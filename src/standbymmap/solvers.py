"""Transient and stationary solvers for the assembled generator.

Transient quantities use one uniformization sweep over the whole time grid.
Its truncated mass stays in the result: p(t) 1 falls short of 1, and
int_0^t p 1 short of t, by the truncation defect, which callers can check.
The stationary distribution is available both through a block
back-substitution sweep over the unit-count levels and through a direct
bordered solve, which serve as cross-checks.
"""

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.stats import poisson

from .assembler import MmapGenerators
from .config import ModelConfig
from .statespace import StateSpaceLayout

UNIFORMIZATION_TOL = 1e-10


class SolverError(RuntimeError):
    pass


def initial_distribution(config: ModelConfig, layout: StateSpaceLayout) -> np.ndarray:
    """Start of a fresh fleet: all units new, shock clock stationary,
    repairperson leaving for vacation."""
    from .ph import renewal_stationary
    phi = np.zeros(layout.total)
    start, stop = layout.span(layout.n, 0, "v")
    head = np.kron(config.internal.init, renewal_stationary(config.shock))
    head = np.kron(np.kron(head, config.damage_init), config.inspection.init)
    phi[start:stop] = np.kron(head, config.vacation.init)
    return phi


def _uniformization(gens: MmapGenerators, phi: np.ndarray, times, tol: float,
                    integral: bool) -> np.ndarray:
    """Rows sum_k w_k(t) phi P^k, one per t, with P = I + D / lam and w_k
    the Poisson(lam t) pmf (for p(t)) or its survival function over lam (for
    int_0^t p).  One sweep forms phi P^k up to the largest truncation point;
    each t sums its own weights up to its own point, and the mass beyond it
    is left out of the result, not rescaled back in."""
    times = np.atleast_1d(np.asarray(times, dtype=float))
    if not np.all(np.isfinite(times) & (times >= 0)):
        raise SolverError(f"uniformization needs finite times t >= 0: {times}")
    D = gens.total
    lam = 1.01 * np.max(np.abs(D.diagonal()))
    PT = (sp.identity(D.shape[0], format="csr") + D / lam).T.tocsr()
    # longest sum first, so the times still summing at step k are a prefix
    order = np.argsort(-times, kind="stable")
    lamt = lam * times[order]
    kmax = poisson.isf(tol / np.maximum(lamt, 1.0), lamt).astype(int) + 1
    steps = np.arange(kmax[0] + 1)[:, None]
    weights = (poisson.sf(steps, lamt) / lam if integral
               else poisson.pmf(steps, lamt))
    live = (steps <= kmax).sum(axis=1)
    acc = np.zeros((times.size, phi.size))
    vec = phi
    for w, n in zip(weights, live):
        acc[:n] += w[:n, None] * vec
        vec = PT @ vec
    return acc[np.argsort(order)]


def transient(gens: MmapGenerators, phi: np.ndarray, times,
              tol: float = UNIFORMIZATION_TOL) -> np.ndarray:
    """Rows p(t) = phi expm(D t) for each t, by uniformization."""
    return _uniformization(gens, phi, times, tol, integral=False)


def transient_integral(gens: MmapGenerators, phi: np.ndarray, t: float,
                       tol: float = UNIFORMIZATION_TOL) -> np.ndarray:
    """Row vector int_0^t phi expm(D u) du, by uniformization."""
    return _uniformization(gens, phi, t, tol, integral=True)[0]


def bordered_stationary(D: sp.spmatrix) -> np.ndarray:
    """Solve pi D = 0, pi 1 = 1: the first equation of D^T pi^T = 0 is
    replaced by the normalisation, and the bordered matrix factored by LU."""
    n = D.shape[0]
    B = sp.vstack([sp.csr_matrix(np.ones((1, n))), D.T.tocsr()[1:]],
                  format="csr")
    rhs = np.zeros(n)
    rhs[0] = 1.0
    pi = spla.splu(B.tocsc(), permc_spec="MMD_AT_PLUS_A").solve(rhs)
    return _normalised(pi)


def _normalised(pi: np.ndarray) -> np.ndarray:
    """Reject negative mass beyond rounding, then clip it and rescale."""
    if np.min(pi) < -1e-9:
        raise SolverError("stationary solve produced negative probabilities")
    return np.clip(pi, 0.0, None) / pi.sum()


def stationary_direct(gens: MmapGenerators) -> np.ndarray:
    """Stationary distribution of the assembled generator by one bordered
    sparse solve."""
    return bordered_stationary(gens.total)


def stationary_block(gens: MmapGenerators) -> np.ndarray:
    """Stationary distribution via back-substitution over the unit levels.

    The generator is block lower-Hessenberg in k (transitions only decrease
    the unit count, except the fleet renewal back to level n), so each
    level's sub-vector is proportional to the level-n one.
    """
    lay = gens.layout
    D = gens.total
    spans = [lay.k_span(k) for k in range(lay.n, 0, -1)]  # level order n..1
    L = len(spans)

    def blk(i, j):
        (r0, r1), (c0, c1) = spans[i], spans[j]
        return D[r0:r1, c0:c1].toarray()

    # pi_k = pi_n M_k with M_n = I; the renewal feedback into level n is
    # folded into the closing balance equation for pi_n.
    mult = [None] * L
    mult[0] = np.eye(spans[0][1] - spans[0][0])
    for j in range(1, L):
        # inflow to level j comes only from level j-1 (and j itself)
        mult[j] = -mult[j - 1] @ blk(j - 1, j) @ np.linalg.inv(blk(j, j))
    closing = blk(0, 0).copy()
    if L > 1:
        closing = closing + mult[-1] @ blk(L - 1, 0)
    total_mass = sum(m.sum(axis=1) for m in mult)
    closing[:, 0] = total_mass
    rhs = np.zeros(closing.shape[0])
    rhs[0] = 1.0
    pin = np.linalg.solve(closing.T, rhs)
    pieces = [pin @ m for m in mult]
    return _normalised(np.concatenate(pieces))
