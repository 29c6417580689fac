"""Three-level macro-state hierarchy and global index layout.

Ordering: the unit count k runs from n down to 1.  For k >= R the vacation
macro-states E_s^{k,v} come first (s = 0..k), then the at-work states
E_s^{k,nv} for s = N..k with N = k - R + 1.  For k < R only E_s^{k,nv} with
s = 0..k exist.  Within a second-level macro-state the repair queues
(i_1, ..., i_s) are enumerated lexicographically with corrective (1) before
preventive (2); within a queue the phase tuple is lexicographic with the
rightmost index fastest.

Phase tuples: (i, j, h, u[, w | r]) while an online unit exists (s < k) and
(j[, w | r]) when all units are down (the inspection clock is suspended).
The service phase r is carried only in nv states with s >= 1 and belongs to
the queue head i_1.
"""

from dataclasses import dataclass
from itertools import product

from .config import ConfigError, ModelConfig


@dataclass(frozen=True)
class MacroStateKey:
    """Identifies one third-level macro-state."""

    k: int
    s: int
    x: str          # "v" or "nv"
    queue: tuple    # (i_1, ..., i_s), entries in {1, 2}, i_1 in service


@dataclass(frozen=True)
class SecondLevelBlock:
    key: tuple      # (k, s, x)
    offset: int
    size: int
    queue_offsets: tuple   # global offset per queue, lexicographic order
    queue_sizes: tuple


class StateSpaceLayout:
    """Immutable global index layout of the full chain."""

    def __init__(self, config: ModelConfig):
        if not 1 <= config.vacation_threshold <= config.units:
            raise ConfigError("configuration error: R must satisfy 1 <= R <= n")
        self.config = config
        self.n = config.units
        self.R = config.vacation_threshold
        self._blocks: dict[tuple, SecondLevelBlock] = {}
        self._k_spans: dict[int, tuple] = {}
        offset = 0
        for k in range(self.n, 0, -1):
            k_start = offset
            for s, x in self.second_level_keys(k):
                qoffsets, qsizes = [], []
                for queue in self.queues(s):
                    size = self.phase_count(k, s, x, queue)
                    qoffsets.append(offset)
                    qsizes.append(size)
                    offset += size
                start = qoffsets[0]
                self._blocks[(k, s, x)] = SecondLevelBlock(
                    (k, s, x), start, offset - start,
                    tuple(qoffsets), tuple(qsizes))
            self._k_spans[k] = (k_start, offset)
        self.total = offset

    # -- structure ---------------------------------------------------------

    def second_level_keys(self, k: int):
        """(s, x) pairs of U^k in layout order."""
        if k >= self.R:
            n_min = k - self.R + 1
            return ([(s, "v") for s in range(k + 1)]
                    + [(s, "nv") for s in range(n_min, k + 1)])
        return [(s, "nv") for s in range(k + 1)]

    @staticmethod
    def queues(s: int):
        """Repair queues of length s, lexicographic with 1 < 2."""
        return list(product((1, 2), repeat=s))

    def phase_count(self, k: int, s: int, x: str, queue: tuple) -> int:
        c = self.config
        online = c.m * c.t * c.d * c.eps if s < k else c.t
        if x == "v":
            return online * c.v
        if s == 0:
            return online
        return online * c.z[queue[0]]

    # -- lookups -----------------------------------------------------------

    def block(self, k: int, s: int, x: str) -> SecondLevelBlock:
        try:
            return self._blocks[(k, s, x)]
        except KeyError:
            raise KeyError(f"no macro-state E_{s}^{{{k},{x}}} in this layout") from None

    def span(self, k: int, s: int, x: str) -> tuple:
        b = self.block(k, s, x)
        return b.offset, b.offset + b.size

    def k_span(self, k: int) -> tuple:
        return self._k_spans[k]

    def head_span(self, k: int, s: int, x: str, head: int) -> tuple:
        """Global range of the queues whose head has type `head` (s >= 1)."""
        b = self.block(k, s, x)
        half = len(b.queue_offsets) // 2
        if head == 1:
            return b.queue_offsets[0], b.queue_offsets[0] + sum(b.queue_sizes[:half])
        return (b.queue_offsets[half],
                b.queue_offsets[half] + sum(b.queue_sizes[half:]))

    def index_of(self, key: MacroStateKey) -> tuple:
        """Contiguous global index range of a third-level macro-state."""
        b = self.block(key.k, key.s, key.x)
        if len(key.queue) != key.s or any(i not in (1, 2) for i in key.queue):
            raise KeyError(f"invalid queue {key.queue} for s={key.s}")
        qidx = 0
        for i in key.queue:
            qidx = 2 * qidx + (i - 1)
        return b.queue_offsets[qidx], b.queue_offsets[qidx] + b.queue_sizes[qidx]

    def key_of(self, index: int) -> MacroStateKey:
        """Third-level macro-state containing a global index."""
        if not 0 <= index < self.total:
            raise KeyError(f"index {index} out of range 0..{self.total - 1}")
        for (k, s, x), b in self._blocks.items():
            if b.offset <= index < b.offset + b.size:
                for queue, qoff, qsize in zip(self.queues(s), b.queue_offsets,
                                              b.queue_sizes):
                    if qoff <= index < qoff + qsize:
                        return MacroStateKey(k, s, x, queue)
        raise KeyError(f"index {index} not covered")  # pragma: no cover

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
        key = self.key_of(index)
        start, _ = self.index_of(key)
        rem = index - start
        dims = self.phase_dims(key.k, key.s, key.x, key.queue)
        tup = []
        for size in reversed(dims):
            tup.append(rem % size + 1)
            rem //= size
        return key, tuple(reversed(tup))

    def macro_keys(self):
        """Second-level keys (k, s, x) in layout order."""
        return list(self._blocks.keys())


def enumerate_states(config: ModelConfig) -> StateSpaceLayout:
    """Build the global layout for a model configuration."""
    return StateSpaceLayout(config)
