"""Three-level macro-state hierarchy and global index layout.

Ordering: the unit count k runs from n down to 1.  For k >= R the vacation
macro-states E_s^{k,v} come first (s = 0..k), then the at-work states
E_s^{k,nv} for s = N..k with N = k - R + 1.  For k < R only E_s^{k,nv} with
s = 0..k exist.  Within a second-level macro-state the repair queues
(i_1, ..., i_s) are enumerated lexicographically over the marks that can be
queued: corrective (1) before preventive (2) with PM on, corrective alone
with PM off, where no inspection sends a unit to preventive repair.  Within
a queue the phase tuple is lexicographic with the rightmost index fastest.

Prefix addressing: because the queues are lexicographic, the queues of
E_s^{k,x} that start with a given prefix (i_1, ..., i_p) are contiguous, and
`span(k, s, x, prefix)` returns their global range.  The empty prefix is the
whole second-level block, a full queue is one third-level macro-state, and
the prefix (i_1,) groups the queues by the type of their head.

Phase tuples: (i, j, h, u[, w | r]) while an online unit exists (s < k) and
(j[, w | r]) when all units are down (the inspection clock is suspended).
The service phase r is carried only in nv states with s >= 1 and belongs to
the queue head i_1.

State table: `states` has one row per global index, with the integer
columns queue (the position of the state's queue in `queue_spans()`), k,
s, vacation (x == "v"), head (i_1), the online unit's phases i, j, h, u and
the clock phase w (the vacation phase w or the service phase r).  Phases
are 0-based; a column that a state does not carry reads -1.  Per-state
quantities read the phases they need by name, so only this module knows
the order of the phase tuple.
"""

from dataclasses import dataclass
from itertools import accumulate, product
from math import prod

import numpy as np

from .config import ModelConfig


@dataclass(frozen=True)
class MacroStateKey:
    """Identifies one third-level macro-state."""

    k: int
    s: int
    x: str          # "v" or "nv"
    queue: tuple    # (i_1, ..., i_s) over the layout marks, i_1 in service


class StateSpaceLayout:
    """Immutable global index layout of the full chain."""

    def __init__(self, config: ModelConfig):
        self.config = config
        self.n = config.units
        self.R = config.vacation_threshold
        # repair marks that can be queued: preventive only with PM on
        self.marks = (1, 2) if config.pm_enabled else (1,)
        # (k, s, x) -> global boundaries of its queues, one entry more
        self._bounds: dict[tuple, tuple] = {}
        self._k_spans: dict[int, tuple] = {}
        spans = []
        offset = 0
        for k in range(self.n, 0, -1):
            k_start = offset
            for s, x in self.second_level_keys(k):
                queues = self.queues(s)
                bounds = tuple(accumulate(
                    (self.phase_count(k, s, x, q) for q in queues),
                    initial=offset))
                spans += [(MacroStateKey(k, s, x, q), lo, hi)
                          for q, lo, hi in zip(queues, bounds, bounds[1:])]
                self._bounds[(k, s, x)] = bounds
                offset = bounds[-1]
            self._k_spans[k] = (k_start, offset)
        self._queue_spans = tuple(spans)
        self.total = offset
        self.states = self._state_table()

    def _state_table(self) -> np.ndarray:
        """The state table: the macro-state columns repeat over each queue,
        and the phase grid of a (k, s, x, head) span over its queues."""
        c = self.config
        small = np.min_scalar_type(-max(self.n, c.m, c.t, c.d, c.eps, c.v,
                                        *c.z[1:]))
        keys = [key for key, _, _ in self._queue_spans]
        sizes = np.array([hi - lo for _, lo, hi in self._queue_spans])
        table = np.empty(self.total, dtype=[
            ("queue", np.min_scalar_type(-len(keys))), ("k", small),
            ("s", small), ("vacation", bool), ("head", small),
            *((name, small) for name in "ijhuw")])
        table["queue"] = np.repeat(np.arange(len(keys)), sizes)
        for name, per_queue in (
                ("k", [key.k for key in keys]), ("s", [key.s for key in keys]),
                ("vacation", [key.x == "v" for key in keys]),
                ("head", [key.queue[0] if key.s else -1 for key in keys])):
            table[name] = np.repeat(per_queue, sizes)
        phases = np.full((5, self.total), -1, dtype=small)   # i, j, h, u, w
        grids = {}   # phase dims -> their coordinates, one row per factor
        for k, s, x in self._bounds:
            rows = [0, 1, 2, 3, 4] if s < k else [1, 4]
            for head in self.queues(min(s, 1)):
                start, stop = self.span(k, s, x, head)
                dims = self.phase_dims(k, s, x, head)
                if dims not in grids:
                    grids[dims] = np.indices(dims).reshape(len(dims), -1)
                grid = grids[dims]
                queues = phases[:, start:stop].reshape(5, -1, grid.shape[1])
                queues[rows[:len(dims)]] = grid[:, None]
        for name, column in zip("ijhuw", phases):
            table[name] = column
        table.flags.writeable = False
        return table

    # -- structure ---------------------------------------------------------

    def second_level_keys(self, k: int):
        """(s, x) pairs of U^k in layout order, the blocks R allows."""
        if k >= self.R:
            n_min = k - self.R + 1
            return ([(s, "v") for s in range(k + 1)]
                    + [(s, "nv") for s in range(n_min, k + 1)])
        return [(s, "nv") for s in range(k + 1)]

    def queues(self, s: int):
        """Repair queues of length s over the marks, lexicographic."""
        return list(product(self.marks, repeat=s))

    def phase_count(self, k: int, s: int, x: str, queue: tuple) -> int:
        return prod(self.phase_dims(k, s, x, queue))

    # -- lookups -----------------------------------------------------------

    def span(self, k: int, s: int, x: str, prefix: tuple = ()) -> tuple:
        """Contiguous global range of the queues of E_s^{k,x} that start
        with `prefix`; the empty prefix gives the whole block."""
        try:
            bounds = self._bounds[(k, s, x)]
        except KeyError:
            raise KeyError(f"no macro-state E_{s}^{{{k},{x}}} in this layout") from None
        if len(prefix) > s or any(i not in self.marks for i in prefix):
            raise KeyError(f"invalid queue prefix {prefix} for s={s}")
        base, first = len(self.marks), 0
        for i in prefix:
            first = base * first + (i - 1)
        width = base ** (s - len(prefix))
        return bounds[first * width], bounds[(first + 1) * width]

    def k_span(self, k: int) -> tuple:
        return self._k_spans[k]

    def key_of(self, index: int) -> MacroStateKey:
        """Third-level macro-state containing a global index."""
        if not 0 <= index < self.total:
            raise KeyError(f"index {index} out of range 0..{self.total - 1}")
        return self._queue_spans[self.states["queue"][index]][0]

    def phase_dims(self, k: int, s: int, x: str, queue: tuple) -> tuple:
        """Factor sizes of the phase tuple, rightmost fastest."""
        c = self.config
        dims = (c.m, c.t, c.d, c.eps) if s < k else (c.t,)
        if x == "v":
            return dims + (c.v,)
        if s == 0:
            return dims
        return dims + (c.z[queue[0]],)

    def decode(self, index: int):
        """(key, phase tuple) of a global index; phases are 1-based."""
        key, row = self.key_of(index), self.states[index]
        return key, tuple(int(row[name]) + 1 for name in "ijhuw"
                          if row[name] >= 0)

    def queue_spans(self) -> tuple:
        """(MacroStateKey, start, stop) of every repair queue, in layout
        order."""
        return self._queue_spans

    def macro_keys(self):
        """Second-level keys (k, s, x) in layout order."""
        return list(self._bounds)


def enumerate_states(config: ModelConfig) -> StateSpaceLayout:
    """Build the global layout for a model configuration."""
    return StateSpaceLayout(config)
