"""Vacation-parameter optimization and the policy grid sweep.

For a fixed fleet policy (n, R, PM flag) and vacation family, the generator
D(x) and the flow table F(x) (column l is D_l 1) split by vacation stage,
so each cell builds both splits from two assemblies and per evaluation runs
one bordered stationary solve.  The first orders the bordered matrix B(x)
afresh; every later one forms B(x) in that order from the cell's compiled
pattern by one vector update and factors it, with no sparse matrix built.
The profit is Phi = pi r with the per-state profit rate
r(x) = (nr - nc) - F(x) c and the cost table c of economics.event_costs.
Its exact gradient costs one more triangular solve through the same LU
(the adjoint of the stationary solve), so one projected quasi-Newton
search on log x (_search) serves every family; it stops once a further
step could gain no more than Phi resolves.

The search lives here, not in scipy.optimize: with one or two rates and an
exact gradient it takes a few lines, and the same evaluations as scipy's
L-BFGS-B on every study-grid cell.  L-BFGS-B's LAPACK calls woke scipy's
OpenBLAS worker pool, whose worker then spun through every later SuperLU
factorisation, doubling the CPU time of an optimization; importing
scipy.optimize also cost 13 MB and about 0.1 s of each CLI `optimize`.
"""

from dataclasses import dataclass

import numpy as np

from .assembler import assemble_all
from .config import (VACATION_FAMILIES, ModelConfig, vacation_family,
                     vacation_from_params)
from .economics import (build_nc, build_nr, event_costs, profit_stationary,
                        state_sum)
from .measures import (EventRates, availability_stationary,
                       event_rates_stationary)
from .solvers import BorderedPattern, bordered_stationary, stationary_direct
from .statespace import enumerate_states
from .unit import build_unit_blocks

EPS = float(np.finfo(float).eps)
ARMIJO = 1e-4           # a step must gain this share of its first-order gain
MAX_EVALUATIONS = 100   # _search's cap on objective calls
GRID_CELLS = [(n, R) for n in (4, 3, 2) for R in range(n, 0, -1)]


@dataclass
class OptimizationResult:
    units: int
    threshold: int
    pm_enabled: bool
    family: str
    x: np.ndarray
    profit: float
    availability: float
    evaluations: int
    converged: bool
    rates: EventRates   # event rates at x

    def as_record(self) -> dict:
        return {
            "n": self.units, "R": self.threshold, "pm": self.pm_enabled,
            "family": self.family, "x": [float(v) for v in self.x],
            "profit": self.profit, "availability": self.availability,
            "evaluations": self.evaluations, "converged": self.converged,
        }


class _CellEvaluator:
    """Phi/A/event rates of one grid cell from the generator split by
    vacation stage, D(x) = D0 + diag(rho(x)) dD, rho(x) holding x_w in each
    vacation state of stage w and 0 elsewhere, and F(x) and r(x) likewise.
    Exact: the stages run in series and x_w is the total rate of stage w, so
    x enters only vacation rows, as x_w times their entries at unit rate.
    Assemblies at x = 1 and 2 give dD = D(2) - D(1), D0 = D(1) - dD.

    The first solve factors B(D(x)) in a fresh fill-reducing order and
    compiles B(x) in that order, split as D(x) is (solvers.BorderedPattern).
    Every later evaluation adds x_w times the stage-w entries to the fixed
    entries, factors the result in its natural order and solves, as a
    fresh LU of B(D(x)) in that order does, bit for bit.  `gradient` gives
    Phi's resolution too; availability comes from `measures`."""

    def __init__(self, config: ModelConfig, family: str):
        self.dim = VACATION_FAMILIES[family]
        self.config = config.with_policy(
            vacation=vacation_from_params(family, [1.0] * self.dim))
        self.layout = enumerate_states(self.config)
        vacation, w = self.layout.states["vacation"], self.layout.states["w"]
        self.stage = np.where(vacation, w, -1)   # -1 reads _rates' final 0
        # the vacation does not enter the online unit's blocks
        blocks = build_unit_blocks(self.config)
        one, two = (assemble_all(config.with_policy(
            vacation=vacation_from_params(family, [rate] * self.dim)),
            self.layout, blocks, validate=False) for rate in (1.0, 2.0))
        dD, dF = two.total - one.total, two.flows - one.flows
        self.D, self.F = (one.total - dD, dD), (one.flows - dF, dF)
        net = (build_nr(self.config, self.layout)
               - build_nc(self.config, self.layout))
        costs = event_costs(self.config)
        self.reward = (net - self.F[0] @ costs, -dF @ costs)
        self._last = (None, None)   # (x, pi) of the last gradient solve
        self._pattern = None        # every B(x) in the first solve's order

    def _rates(self, x) -> np.ndarray:   # rho(x)
        return np.append(np.asarray(x, dtype=float), 0.0)[self.stage]

    def generator(self, x):
        """D(x) = D0 + diag(rho(x)) dD."""
        return self.D[0] + self.D[1].multiply(self._rates(x)[:, None])

    def _reward(self, x) -> np.ndarray:
        return self.reward[0] + self._rates(x) * self.reward[1]

    def _solve(self, x) -> tuple:
        """pi and the bordered LU at x.  D(x) has one sparsity pattern over
        the box, so the first solve's fill-reducing order serves them all."""
        if self._pattern is not None:
            return self._pattern.solve(self._rates(x))
        pi, lu = bordered_stationary(self.generator(x))
        self._pattern = BorderedPattern(*self.D, lu.order)
        return pi, lu

    def evaluate(self, x):
        """Phi, availability and event rates at x from one stationary solve,
        or from none when x is the point of the last gradient call."""
        last_x, pi = self._last
        if not np.array_equal(last_x, x):
            pi, _ = self._solve(x)
        flows = self.F[0] + self._rates(x)[:, None] * self.F[1]
        return (state_sum(pi, self._reward(x)),
                availability_stationary(pi, self.layout),
                EventRates.from_flows(pi @ flows))

    def gradient(self, x):
        """Phi = pi r, dPhi/dx and Phi's rounding eps sum_i pi_i |r_i| at x
        from one bordered LU.  With B pi^T = e_0 and dB/dx_i = (K_i^T with
        row 0 cleared), K_i the rows of dD in stage i, the adjoint g = B^-T r
        gives dPhi/dx_i = -g[1:] (pi K_i)[1:] + pi r_i, r_i = dr/dx_i: one
        extra triangular solve whatever the dimension."""
        pi, lu = self._solve(x)
        self._last = (np.array(x, dtype=float), pi)
        reward = self._reward(x)
        g = lu.solve(reward, trans="T")[1:]
        stages = [np.where(self.stage == i, pi, 0.0) for i in range(self.dim)]
        grad = [state_sum(p, self.reward[1])
                - state_sum(g, (p @ self.D[1])[1:]) for p in stages]
        return (state_sum(pi, reward), np.array(grad),
                EPS * state_sum(pi, np.abs(reward)))


def evaluate(config: ModelConfig, family: str, x):
    """Phi, availability and event rates for one parameter vector."""
    cfg = config.with_policy(vacation=vacation_from_params(family, x))
    gens = assemble_all(cfg, validate=False)
    pi = stationary_direct(gens)
    profit = profit_stationary(pi, gens, cfg)
    return (profit.total, availability_stationary(pi, gens.layout),
            event_rates_stationary(pi, gens))


def _remaining_gain(iterates, lo: float, hi: float) -> float:
    """Gain in Phi a further step could still make from the last of the
    iterates, the points _search accepted after its start as a list of
    (z, g) with z = log x and g the gradient of -Phi in z: |p|^2 / (2h)
    for the projected gradient p = clip(z - g) - z and the secant
    curvature h = s.y / s.s of the last step, s = dz, y = dg.  Zero when
    the box stops every descent direction; infinite before the second
    iterate, or where h is not positive."""
    z, g = iterates[-1]
    p = np.clip(z - g, lo, hi) - z
    if not p.any():
        return 0.0
    if len(iterates) < 2:
        return np.inf
    s, y = z - iterates[-2][0], g - iterates[-2][1]
    sy = float(s @ y)
    return float(p @ p) * float(s @ s) / (2 * sy) if sy > 0 else np.inf


def _cubic_step(f0, d0, f1, d1) -> float:
    """Where in [0.1, 0.5] to try next on a rejected step, as a fraction
    of it: the minimiser of the cubic through f and its slope f' at both
    ends (f0, d0 at 0 and f1, d1 at 1; d0 < 0), clamped into the interval,
    or 0.5 where the cubic has no minimiser."""
    theta = 3 * (f0 - f1) + d0 + d1
    disc = theta * theta - d0 * d1
    if disc < 0:
        return 0.5
    root = np.sqrt(disc)
    a = 1 - (d1 + root - theta) / (d1 - d0 + 2 * root)
    return min(max(a, 0.1), 0.5)


def _search(objective, start, lo: float, hi: float):
    """Minimize f over the box [lo, hi]^d from start, objective(z) giving
    f(z), its gradient g and f's resolution delta there.  Returns the last
    accepted z, the number of objective calls and whether the stop rule
    held (False when MAX_EVALUATIONS ended the search first).

    A projected quasi-Newton search (Bertsekas 1982).  The first step is
    -g, later ones the quasi-Newton step of the BFGS inverse Hessian H,
    both on the free coordinates: a coordinate on a bound whose gradient
    points out of the box is held there, and the free ones step by the
    inverse of the free block of H^-1.  A step s, clipped into the box, is
    accepted when f falls by at least ARMIJO g.s; otherwise the next trial
    along s is the minimiser of the cubic through f and g.s at both of its
    ends (Moré & Thuente 1994), using the gradient every call returns.
    The search stops once _remaining_gain of the accepted points after the
    start is at most delta, which includes a vanishing projected
    gradient."""
    z = np.asarray(start, dtype=float)
    f, g, delta = objective(z)
    calls, iterates, H = 1, [], None
    if _remaining_gain([(z, g)], lo, hi) <= delta:   # a vanishing p alone
        return z, calls, True
    while calls < MAX_EVALUATIONS:
        free = ~(((z <= lo) & (g > 0)) | ((z >= hi) & (g < 0)))
        descent = -g * free
        step = np.clip(z + descent, lo, hi) - z
        if H is not None:
            # the inverse of the Hessian's free block: H with each held
            # coordinate eliminated, a Schur complement
            reduced = H.copy()
            for k in np.flatnonzero(~free):
                reduced -= np.outer(reduced[:, k], reduced[k]) / reduced[k, k]
            newton = np.clip(z + reduced @ descent, lo, hi) - z
            if newton @ g < 0:   # else the clipped -g step, which descends
                step = newton
        while True:
            trial = z + step
            f_t, g_t, delta_t = objective(trial)
            calls += 1
            if f_t <= f + ARMIJO * (g @ step):
                break
            if calls >= MAX_EVALUATIONS:
                return z, calls, False
            step = step * _cubic_step(f, g @ step, f_t, g_t @ step)
        s, y = trial - z, g_t - g
        z, f, g, delta = trial, f_t, g_t, delta_t
        iterates.append((z, g))
        if _remaining_gain(iterates, lo, hi) <= delta:
            return z, calls, True
        sy = float(s @ y)
        if sy > 0:
            if H is None:
                H = sy / float(y @ y) * np.eye(z.size)
            V = np.eye(z.size) - np.outer(s, y) / sy
            H = V @ H @ V.T + np.outer(s, s) / sy
    return z, calls, False


def optimize(config: ModelConfig, family: str, x0=None) -> OptimizationResult:
    """Maximize stationary profit over the vacation rates: _search on
    z = log x in [log 1e-3, log 1e2] with the exact gradient, from x0
    (the family's rates, all positive, clipped into the box) or from x = 1.

    The search stops once a further step could gain no more than Phi's
    rounding.  Phi = sum_i pi_i r_i is summed from a pi accurate to
    rounding, so it is resolved to about delta = eps sum_i pi_i |r_i|, eps
    the machine epsilon.  (At the study grid's optima, Phi computed at 41
    points within 1e-9 of x* scatters about its trend line by 0.4 to 4.6
    delta, standard deviation.)  Near the optimum -Phi is close to
    quadratic in z, and a Newton step along the projected gradient p gains
    about |p|^2 / (2h) with h the curvature.  The secant curvature of the
    last step, h = s.y / s.s, lies between the Hessian's smallest and
    largest eigenvalues, so the estimate errs low by at most their ratio
    (about 3 on the study grid).  Once it is at most delta the next line
    search would compare values that differ in rounding alone, and the
    search stops and reports convergence.  Only that rule, an exactly
    vanishing projected gradient or the evaluation cap ends the search,
    and the cap reports no convergence."""
    family = vacation_family(family)
    if x0 is not None:
        x0 = np.atleast_1d(np.asarray(x0, dtype=float))
        if x0.shape != (VACATION_FAMILIES[family],) or not np.all(x0 > 0):
            raise ValueError(f"x0 must hold {VACATION_FAMILIES[family]} "
                             f"positive {family} rate(s), got {x0}")
    cell = _CellEvaluator(config, family)
    lo, hi = np.log(1e-3), np.log(1e2)

    def objective(z):
        x = np.exp(z)
        phi, grad, delta = cell.gradient(x)
        return -phi, -grad * x, delta

    start = np.zeros(cell.dim) if x0 is None else np.clip(np.log(x0), lo, hi)
    z, calls, converged = _search(objective, start, lo, hi)
    x = np.exp(z)
    phi, avail, rates = cell.evaluate(x)
    return OptimizationResult(config.units, config.vacation_threshold,
                              config.pm_enabled, family, x, phi, avail,
                              calls, converged, rates)


def run_grid(config: ModelConfig) -> list:
    """Optimize all 36 policy/family combinations of the study grid."""
    results = []
    for n, R in GRID_CELLS:
        for pm in (True, False):
            for family in VACATION_FAMILIES:
                cfg = config.with_policy(units=n, vacation_threshold=R,
                                         pm_enabled=pm)
                results.append(optimize(cfg, family))
    return results
