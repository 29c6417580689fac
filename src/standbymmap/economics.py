"""Net profit: per-state reward/cost vectors and the total profit measures.

The reward vector nr charges the online unit's gross profit, the downtime
loss, per-phase operating and damage costs and the repairperson's
vacation/presence rates.  The cost vector nc charges the per-phase repair
cost of the task in service.  Fixed costs are per event: an occupation
vector vec (pi, or int_0^t p) pays (vec @ F) @ c, with the flow table F of
the measures module and the per-label cost table c = event_costs(config).
"""

from dataclasses import dataclass

import numpy as np

from .assembler import ARRIVAL_LABELS, MmapGenerators
from .config import ModelConfig
from .measures import down_mask
from .solvers import transient_integral
from .statespace import StateSpaceLayout


def build_nr(config: ModelConfig, layout: StateSpaceLayout) -> np.ndarray:
    """Net reward vector of the online unit (and repairperson time rates):
    B - presence - c0[i] - cd[h] while a unit is online, -(C + presence)
    when every unit is down."""
    c, st = config.costs, layout.states
    presence = np.where(st["vacation"], c.vacation, c.repair_present)
    # the -1 phases of the all-down states pick an entry that is replaced
    nr = c.gross_profit - presence - c.operational[st["i"]] - c.damage[st["h"]]
    down = down_mask(layout)
    nr[down] = -(c.downtime_loss + presence[down])
    return nr


def build_nc(config: ModelConfig, layout: StateSpaceLayout) -> np.ndarray:
    """Repair-task cost vector: cr[w] of the queue head's service phase
    while the repairperson is at work."""
    c, st = config.costs, layout.states
    nc = np.zeros(layout.total)
    for mark, cr in ((1, c.corrective), (2, c.preventive)):
        at_work = (st["head"] == mark) & ~st["vacation"]
        nc[at_work] = cr[st["w"][at_work]]
    return nc


@dataclass(frozen=True)
class ProfitBreakdown:
    working: float       # reward stream of the online unit
    repair_cost: float   # per-phase repair cost stream
    fixed_cost: float    # event-driven fixed costs
    total: float


def event_costs(config: ModelConfig) -> np.ndarray:
    """The cost table c: the fixed cost of one event of each label, over
    ARRIVAL_LABELS (C and F cost nothing)."""
    c = config.costs
    cost = {"A": c.repairable_fixed, "B": c.inspection_fixed,
            "D": c.return_fixed, "CD": c.return_fixed, "E": c.return_fixed,
            "NS": config.units * c.new_unit}
    return np.array([cost.get(label, 0.0) for label in ARRIVAL_LABELS])


def state_sum(a: np.ndarray, b: np.ndarray) -> float:
    """sum_i a_i b_i over the states by numpy's pairwise reduction.  A
    ddot (a @ b) splits the sum across OpenBLAS threads above 10,000
    states, so its last digit would depend on the BLAS thread count."""
    return float(np.add.reduce(a * b))


def _profit(vec: np.ndarray, flows: np.ndarray, nr: np.ndarray,
            nc: np.ndarray, costs: np.ndarray) -> ProfitBreakdown:
    """Profit of the occupation vector vec whose label flows are `flows`."""
    phi_w = state_sum(vec, nr)
    phi_rf = state_sum(vec, nc)
    fixed = float(flows @ costs)
    return ProfitBreakdown(phi_w, phi_rf, fixed, phi_w - phi_rf - fixed)


def _charges(config: ModelConfig, layout: StateSpaceLayout) -> tuple:
    """nr, nc and the cost table c of a model on its layout."""
    return (build_nr(config, layout), build_nc(config, layout),
            event_costs(config))


def profit_stationary(pi: np.ndarray, gens: MmapGenerators,
                      config: ModelConfig) -> ProfitBreakdown:
    """Mean net total profit per unit of time in stationary regime."""
    return _profit(pi, pi @ gens.flows, *_charges(config, gens.layout))


def profit_transient(gens: MmapGenerators, phi: np.ndarray, t,
                     config: ModelConfig):
    """Mean net total profit accumulated over [0, t], including the
    purchase of the initial fleet.  For a sequence of times, a list with
    one breakdown per t, all from one uniformization sweep."""
    charges = _charges(config, gens.layout)
    profits = []
    for ip in np.atleast_2d(transient_integral(gens, phi, t)):
        counts = ip @ gens.flows
        # the initial fleet is bought like one more fleet renewal
        counts[ARRIVAL_LABELS.index("NS")] += 1.0
        profits.append(_profit(ip, counts, *charges))
    return profits[0] if np.ndim(t) == 0 else profits
