"""Performance measures: availability, occupancy and event rates.

All stationary measures take the stationary row vector pi.  Transient
availability reads the uniformized rows p(t), whose truncated mass stays in
the result.  Event flows are linear in the row vector: rates under pi, mean
counts over [0, t] under int_0^t p.
"""

import io
from dataclasses import dataclass

import numpy as np

from .assembler import MmapGenerators
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
    mask = np.zeros(layout.total, dtype=bool)
    for (k, s, x) in layout.macro_keys():
        if s == k:
            start, stop = layout.span(k, s, x)
            mask[start:stop] = True
    return mask


def availability_stationary(pi: np.ndarray, layout: StateSpaceLayout) -> float:
    return float(1.0 - pi[down_mask(layout)].sum())


def availability_transient(gens: MmapGenerators, phi: np.ndarray, times) -> np.ndarray:
    p = transient(gens, phi, times)
    return 1.0 - p[:, down_mask(gens.layout)].sum(axis=1)


@dataclass(frozen=True)
class OccupancyTable:
    """Proportions of time per second-level macro-state."""

    psi: dict   # (k, s, x) -> value

    def by_units(self) -> dict:
        """Psi_k aggregated over s and x."""
        out = {}
        for (k, s, x), val in self.psi.items():
            out[k] = out.get(k, 0.0) + val
        return out

    def to_csv(self) -> str:
        out = io.StringIO()
        out.write("k,s,regime,psi\n")
        for (k, s, x), val in sorted(self.psi.items(), reverse=True):
            out.write(f"{k},{s},{x},{val:.6f}\n")
        return out.getvalue()


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
    def from_flows(cls, flows: dict) -> "EventRates":
        """Aggregate per-label flows (label -> rate or count) by RATE_LABELS."""
        return cls(**{name: sum(flows[l] for l in labels)
                      for name, labels in RATE_LABELS.items()})


def event_rates_stationary(vec: np.ndarray, gens: MmapGenerators) -> EventRates:
    """Labelled event flows under any row vector: the stationary rates
    under pi, the mean counts over [0, t] under int_0^t p."""
    return EventRates.from_flows({label: float((vec @ gens[label]).sum())
                                  for label in gens.arrival_labels})
