"""Vacation-parameter optimization and the policy grid sweep.

For a fixed fleet policy (n, R, PM flag) and vacation family, the generator
depends affinely on the vacation rates, so each cell caches the constant
part and per evaluation only rebuilds D(x) and runs the bordered stationary
solve of the solvers module.  The profit goes through the same fixed-cost
formula as economics.profit_stationary, and the optimum's profit,
availability and event rates come from the cell's own final solve.
"""

import io
import json
from dataclasses import dataclass

import numpy as np
from scipy.optimize import minimize, minimize_scalar

from .assembler import assemble_all
from .config import ModelConfig, vacation_from_params
from .economics import build_nc, build_nr, fixed_cost, profit_stationary
from .measures import (EventRates, availability_stationary, down_mask,
                       event_rates_stationary)
from .solvers import bordered_stationary, stationary_direct
from .statespace import enumerate_states

FAMILIES = ("exponential", "erlang2")

GRID_CELLS = [(n, R) for n in (4, 3, 2) for R in range(n, 0, -1)]

NELDER_MEAD_MAXFEV = 500


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
    """Evaluates Phi/A/event rates for one grid cell with the generator split
    into its vacation-rate-independent part plus one rate-proportional part
    per parameter: D(x) = K0 + sum_i x_i K_i.  The per-label outflow vectors
    needed for the event rates are cached the same way."""

    def __init__(self, config: ModelConfig, family: str):
        self.dim = 1 if family == "exponential" else 2
        self.config = config.with_policy(
            vacation=vacation_from_params(family, [1.0] * self.dim))
        self.layout = enumerate_states(self.config)
        snapshots = [assemble_all(self.config, self.layout, validate=False)]
        for i in range(self.dim):
            x = np.ones(self.dim)
            x[i] = 2.0
            cfg = config.with_policy(vacation=vacation_from_params(family, x))
            snapshots.append(assemble_all(cfg, self.layout, validate=False))
        base = snapshots[0].total
        self.parts = [(s.total - base).tocsr() for s in snapshots[1:]]
        self.base = (base - sum(self.parts)).tocsr()
        labels = snapshots[0].arrival_labels
        out0 = {l: np.asarray(snapshots[0][l].sum(axis=1)).ravel()
                for l in labels}
        self.outflow_parts = []
        for s in snapshots[1:]:
            self.outflow_parts.append(
                {l: np.asarray(s[l].sum(axis=1)).ravel() - out0[l]
                 for l in labels})
        self.outflow_base = {
            l: out0[l] - sum(p[l] for p in self.outflow_parts) for l in labels}
        self.nr = build_nr(self.config, self.layout)
        self.nc = build_nc(self.config, self.layout)
        self.up_mask = ~down_mask(self.layout)

    def evaluate(self, x):
        """Phi, availability and event rates at x from one stationary solve."""
        D = self.base + sum(float(xi) * K for xi, K in zip(x, self.parts))
        pi = bordered_stationary(D)
        rates = EventRates.from_flows(
            {l: float(pi @ (self.outflow_base[l]
                            + sum(float(xi) * p[l]
                                  for xi, p in zip(x, self.outflow_parts))))
             for l in self.outflow_base})
        profit = float(pi @ self.nr - pi @ self.nc
                       - fixed_cost(rates, self.config))
        return profit, float(pi[self.up_mask].sum()), rates

    def profit(self, x) -> float:
        return self.evaluate(x)[0]

    def availability(self, x) -> float:
        return self.evaluate(x)[1]


def evaluate(config: ModelConfig, family: str, x):
    """Phi, availability and event rates for one parameter vector."""
    cfg = config.with_policy(vacation=vacation_from_params(family, x))
    gens = assemble_all(cfg, validate=False)
    pi = stationary_direct(gens)
    profit = profit_stationary(pi, gens, cfg)
    return (profit.total, availability_stationary(pi, gens.layout),
            event_rates_stationary(pi, gens))


def optimize(config: ModelConfig, family: str, x0=None) -> OptimizationResult:
    """Maximize stationary profit over the vacation rates (log scale)."""
    cell = _CellEvaluator(config, family)
    evaluations = 0

    def objective(log_x):
        nonlocal evaluations
        evaluations += 1
        return -cell.profit(np.exp(log_x))

    if family == "exponential":
        res = minimize_scalar(lambda la: objective([la]),
                              bounds=(np.log(1e-3), np.log(1e2)),
                              method="bounded", options={"xatol": 1e-8})
        log_x = np.array([res.x])
        converged = res.success
    else:
        start = np.log(x0) if x0 is not None else np.zeros(cell.dim)
        res = minimize(objective, start, method="Nelder-Mead",
                       options={"xatol": 1e-6, "fatol": 1e-10,
                                "maxfev": NELDER_MEAD_MAXFEV})
        log_x = res.x
        converged = bool(res.success)
    x = np.exp(log_x)
    phi, avail, rates = cell.evaluate(x)
    return OptimizationResult(config.units, config.vacation_threshold,
                              config.pm_enabled, family, x, phi, avail,
                              evaluations, converged, rates)


def golden_section_scan(config: ModelConfig, lo: float = 1e-3,
                        hi: float = 10.0, tol: float = 1e-6) -> tuple:
    """1-D golden-section maximization of Phi over the exponential rate.
    Independent cross-check for the exponential branch of optimize()."""
    cell = _CellEvaluator(config, "exponential")
    inv_phi = (np.sqrt(5) - 1) / 2
    a, b = np.log(lo), np.log(hi)
    c = b - inv_phi * (b - a)
    d = a + inv_phi * (b - a)
    fc = cell.profit([np.exp(c)])
    fd = cell.profit([np.exp(d)])
    while b - a > tol:
        if fc > fd:
            b, d, fd = d, c, fc
            c = b - inv_phi * (b - a)
            fc = cell.profit([np.exp(c)])
        else:
            a, c, fc = c, d, fd
            d = a + inv_phi * (b - a)
            fd = cell.profit([np.exp(d)])
    x = np.exp((a + b) / 2)
    return x, cell.profit([x])


def run_grid(config: ModelConfig) -> list:
    """Optimize all 36 policy/family combinations of the study grid."""
    results = []
    for n, R in GRID_CELLS:
        for pm in (True, False):
            for family in FAMILIES:
                cfg = config.with_policy(units=n, vacation_threshold=R,
                                         pm_enabled=pm)
                results.append(optimize(cfg, family))
    return results


def grid_to_csv(results) -> str:
    out = io.StringIO()
    out.write("n,R,pm,family,x,profit,availability,evaluations,converged\n")
    for r in results:
        xs = ";".join(f"{v:.6f}" for v in r.x)
        out.write(f"{r.units},{r.threshold},{int(r.pm_enabled)},{r.family},"
                  f"{xs},{r.profit:.4f},{r.availability:.4f},"
                  f"{r.evaluations},{int(r.converged)}\n")
    return out.getvalue()


def grid_to_json(results) -> str:
    return json.dumps([r.as_record() for r in results], indent=2)
