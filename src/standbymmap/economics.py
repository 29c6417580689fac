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
from .measures import label_flows
from .solvers import transient_integral
from .statespace import StateSpaceLayout


def build_nr(config: ModelConfig, layout: StateSpaceLayout) -> np.ndarray:
    """Net reward vector of the online unit (and repairperson time rates).

    An online unit's phases (i, j, h, u) lead each phase tuple, so within a
    queue the reward B - presence - c0[i] - cd[h] repeats over the phases
    that follow them."""
    c = config.costs
    per_i = np.repeat(c.operational, config.t * config.d * config.eps)
    cd = np.tile(np.repeat(c.damage, config.eps), config.m * config.t)
    nr = np.empty(layout.total)
    for key, start, stop in layout.queue_spans():
        presence = c.vacation if key.x == "v" else c.repair_present
        if key.s == key.k:
            nr[start:stop] = -(c.downtime_loss + presence)
        else:
            nr[start:stop] = np.repeat(c.gross_profit - presence - per_i - cd,
                                       (stop - start) // per_i.size)
    return nr


def build_nc(config: ModelConfig, layout: StateSpaceLayout) -> np.ndarray:
    """Repair-task cost vector: cr per service phase of the queue head while
    at work (the service phase is the fastest index)."""
    cr = (None, config.costs.corrective, config.costs.preventive)
    nc = np.zeros(layout.total)
    for key, start, stop in layout.queue_spans():
        if key.x == "nv" and key.s:
            head = cr[key.queue[0]]
            nc[start:stop] = np.tile(head, (stop - start) // head.size)
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


def _profit(vec: np.ndarray, flows: np.ndarray, gens: MmapGenerators,
            config: ModelConfig) -> ProfitBreakdown:
    """Profit of the occupation vector vec whose label flows are `flows`."""
    phi_w = float(vec @ build_nr(config, gens.layout))
    phi_rf = float(vec @ build_nc(config, gens.layout))
    fixed = float(flows @ event_costs(config))
    return ProfitBreakdown(phi_w, phi_rf, fixed, phi_w - phi_rf - fixed)


def profit_stationary(pi: np.ndarray, gens: MmapGenerators,
                      config: ModelConfig) -> ProfitBreakdown:
    """Mean net total profit per unit of time in stationary regime."""
    return _profit(pi, pi @ label_flows(gens), gens, config)


def profit_transient(gens: MmapGenerators, phi: np.ndarray, t,
                     config: ModelConfig):
    """Mean net total profit accumulated over [0, t], including the
    purchase of the initial fleet.  For a sequence of times, a list with
    one breakdown per t, all from one uniformization sweep."""
    flows = label_flows(gens)
    profits = []
    for ip in np.atleast_2d(transient_integral(gens, phi, t)):
        counts = ip @ flows
        # the initial fleet is bought like one more fleet renewal
        counts[ARRIVAL_LABELS.index("NS")] += 1.0
        profits.append(_profit(ip, counts, gens, config))
    return profits[0] if np.ndim(t) == 0 else profits
