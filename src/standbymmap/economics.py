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
from .measures import EventRates, event_counts_transient, event_rates_stationary
from .solvers import transient_integral
from .statespace import StateSpaceLayout


def _online_reward(config: ModelConfig, presence_rate: float, tail: int) -> np.ndarray:
    """Per-phase net reward of one operational arrangement.

    Phases run (i, j, h, u) x tail; the reward is
    B - presence_rate - c0[i] - cd[h] uniformly in j, u and the tail factor.
    """
    c = config.costs
    base = c.gross_profit - presence_rate
    per_i = np.repeat(c.operational, config.t * config.d * config.eps)
    cd = np.tile(np.repeat(c.damage, config.eps), config.m * config.t)
    return np.repeat(base - per_i - cd, tail)


def build_nr(config: ModelConfig, layout: StateSpaceLayout) -> np.ndarray:
    """Net reward vector of the online unit (and repairperson time rates)."""
    c = config.costs
    nr = np.empty(layout.total)
    for (k, s, x) in layout.macro_keys():
        start, stop = layout.span(k, s, x)
        presence = c.vacation if x == "v" else c.repair_present
        if s == k:
            nr[start:stop] = -(c.downtime_loss + presence)
        else:
            tail = config.v if x == "v" else (1 if s == 0 else None)
            if tail is not None:
                block = _online_reward(config, presence, tail)
                nr[start:stop] = np.tile(block, 2 ** s if x == "v" else 1)
            else:
                parts = []
                for head in (1, 2):
                    piece = _online_reward(config, presence, config.z[head])
                    parts.append(np.tile(piece, 2 ** (s - 1)))
                nr[start:stop] = np.concatenate(parts)
    return nr


def build_nc(config: ModelConfig, layout: StateSpaceLayout) -> np.ndarray:
    """Repair-task cost vector: cr per service phase while at work."""
    c = config.costs
    nc = np.zeros(layout.total)
    cr = (None, c.corrective, c.preventive)
    for (k, s, x) in layout.macro_keys():
        if x == "v" or s == 0:
            continue
        start, stop = layout.span(k, s, x)
        online = config.m * config.t * config.d * config.eps if s < k else config.t
        parts = []
        for head in (1, 2):
            parts.append(np.tile(np.tile(cr[head], online), 2 ** (s - 1)))
        nc[start:stop] = np.concatenate(parts)
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
    counts = event_counts_transient(gens, phi, t)
    # the initial fleet is bought like one more fleet renewal
    fixed = fixed_cost(replace(counts, new_systems=1.0 + counts.new_systems),
                       config)
    return ProfitBreakdown(phi_w, phi_rf, fixed, phi_w - phi_rf - fixed)
