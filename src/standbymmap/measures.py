"""Performance measures: availability, occupancy and event rates.

All stationary measures take the stationary row vector pi.  Transient
availability reads the uniformized rows p(t), whose truncated mass stays in
the result.  Event flows read the flow table F, whose column l is D_l 1:
vec @ F gives the rates under pi, the mean counts over [0, t] under int p.
"""

from dataclasses import dataclass

import numpy as np

from .assembler import ARRIVAL_LABELS, MmapGenerators
from .solvers import transient
from .statespace import StateSpaceLayout

# event-rate names -> generator labels they aggregate
RATE_LABELS = {
    "repairable": ("A",),
    "major_inspection": ("B",),
    "nonrepairable": ("C", "CD", "NS"),
    "returns": ("D", "CD"),
    "returns_empty": ("E",),
    "vacations_after_repair": ("F",),
    "new_systems": ("NS",),
}


def down_mask(layout: StateSpaceLayout) -> np.ndarray:
    """Boolean mask of the states with no operational unit (s = k)."""
    return layout.states["s"] == layout.states["k"]


def availability_stationary(pi: np.ndarray, layout: StateSpaceLayout) -> float:
    return float(1.0 - pi[down_mask(layout)].sum())


def availability_rows(p: np.ndarray, layout: StateSpaceLayout) -> np.ndarray:
    """1 minus the down mass of each row of p, each row summed as a 1-D
    sum is, so its value does not depend on the other rows.  p[:, mask]
    would be stored column by column, and its sum over axis 1 then adds
    the entries in an order set by the number of rows."""
    return 1.0 - np.compress(down_mask(layout), p, axis=1).sum(axis=1)


def availability_transient(gens: MmapGenerators, phi: np.ndarray, times) -> np.ndarray:
    return availability_rows(transient(gens, phi, times), gens.layout)


@dataclass(frozen=True)
class OccupancyTable:
    """Proportions of time per second-level macro-state; cli renders them."""

    psi: dict   # (k, s, x) -> value


def occupancy(pi: np.ndarray, layout: StateSpaceLayout) -> OccupancyTable:
    psi = {}
    for (k, s, x) in layout.macro_keys():
        start, stop = layout.span(k, s, x)
        psi[(k, s, x)] = float(pi[start:stop].sum())
    return OccupancyTable(psi)


@dataclass(frozen=True)
class EventRates:
    """Stationary rates or transient mean counts of the labelled events."""

    repairable: float
    major_inspection: float
    nonrepairable: float
    returns: float
    returns_empty: float
    vacations_after_repair: float
    new_systems: float

    def as_dict(self) -> dict:
        return {name: getattr(self, name) for name in RATE_LABELS}

    @classmethod
    def from_flows(cls, flows) -> "EventRates":
        """Aggregate label flows over ARRIVAL_LABELS (vec @ F) by RATE_LABELS."""
        by_label = dict(zip(ARRIVAL_LABELS, map(float, flows)))
        return cls(**{name: sum(by_label[l] for l in labels)
                      for name, labels in RATE_LABELS.items()})


def event_rates_stationary(vec: np.ndarray, gens: MmapGenerators) -> EventRates:
    """Labelled event flows under any row vector: the stationary rates
    under pi, the mean counts over [0, t] under int_0^t p."""
    return EventRates.from_flows(vec @ gens.flows)
