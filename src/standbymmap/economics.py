"""Net profit: per-state reward/cost vectors and the total profit measures.

The reward vector nr charges the online unit's gross profit, the downtime
loss, per-phase operating and damage costs and the repairperson's
vacation/presence rates.  The cost vector nc charges the per-phase repair
cost of the task in service.  Fixed per-event costs enter through the event
rates.
"""

from dataclasses import dataclass, replace

import numpy as np

from .assembler import MmapGenerators
from .config import ModelConfig
from .measures import EventRates, event_rates_stationary
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


def fixed_cost(rates: EventRates, config: ModelConfig) -> float:
    """Event-driven fixed costs of the given event rates (or mean counts)."""
    c = config.costs
    return (rates.new_systems * config.units * c.new_unit
            + rates.repairable * c.repairable_fixed
            + rates.major_inspection * c.inspection_fixed
            + (rates.returns + rates.returns_empty) * c.return_fixed)


def profit_stationary(pi: np.ndarray, gens: MmapGenerators,
                      config: ModelConfig) -> ProfitBreakdown:
    """Mean net total profit per unit of time in stationary regime."""
    lay = gens.layout
    phi_w = float(pi @ build_nr(config, lay))
    phi_rf = float(pi @ build_nc(config, lay))
    fixed = fixed_cost(event_rates_stationary(pi, gens), config)
    return ProfitBreakdown(phi_w, phi_rf, fixed, phi_w - phi_rf - fixed)


def profit_transient(gens: MmapGenerators, phi: np.ndarray, t: float,
                     config: ModelConfig) -> ProfitBreakdown:
    """Mean net total profit accumulated over [0, t], including the
    purchase of the initial fleet."""
    lay = gens.layout
    ip = transient_integral(gens, phi, t)
    phi_w = float(ip @ build_nr(config, lay))
    phi_rf = float(ip @ build_nc(config, lay))
    counts = event_rates_stationary(ip, gens)
    # the initial fleet is bought like one more fleet renewal
    fixed = fixed_cost(replace(counts, new_systems=1.0 + counts.new_systems),
                       config)
    return ProfitBreakdown(phi_w, phi_rf, fixed, phi_w - phi_rf - fixed)
