"""Assembly of the labelled event generators over the full state space.

Nine labels: O (no event), A (repairable failure), B (major inspection),
C (non-repairable failure), D (return to work), CD (failure at k = R that
interrupts the vacation), E (return followed by a fresh vacation), F (new
vacation after the repair that brings the fleet back to R operational
units), NS (total loss of the last unit, fleet replacement).  Their sum is
the conservative generator of the chain.

Six builders write them.  Each walks the second-level blocks of the layout
and emits the labels that one physical event can produce, routed by the
blocks the layout holds, so that the layout alone applies the threshold R:

- failures_to_facility: A, B (the online unit joins the repair queue)
- unit_losses: C, CD (the online unit is discarded)
- vacation_ends: D, E
- service_completions: O, F (the head's repair ends)
- fleet_renewal: NS
- phase_moves: O (phase moves without a change of macro-state)

A builder addresses the source and target blocks as (k, s, x, prefix), the
queues of E_s^{k,x} that start with the prefix, and gives the factors of the
dense matrix of one source queue, a Kronecker product or sum.  Few of these
blocks differ (43 among 151 placements at n = 4, R = 3 with PM, 43 among 310
at n = 6), so `_Assembly.place` forms each distinct block and its nonzero
entries once per assembly, and repeats them over all the queues by index
arithmetic, the i-th copy shifted by i times the block's shape.

The builders' triplets are concatenated once, in label order.  From them
`assemble_all` builds the total in one CSR pass and the flow table F, whose
column l is D_l 1, from each arrival label's slice, and checks the signs of
each label's entries.  The measures read nothing else, so no label becomes a
sparse matrix of its own; `label_matrices` builds the nine from the same
builders for reports and tests.
"""

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .config import ModelConfig
from .ph import kron, kron_sum
from .statespace import StateSpaceLayout, enumerate_states
from .unit import UnitBlocks, build_unit_blocks

EVENT_LABELS = ("O", "A", "B", "C", "D", "CD", "E", "F", "NS")
# the labels that mark an event: every one but O
ARRIVAL_LABELS = EVENT_LABELS[1:]

CONSERVATION_TOL = 1e-10


class AssemblyError(RuntimeError):
    """Raised when an assembled generator violates a structural invariant."""


@dataclass(frozen=True)
class MmapGenerators:
    """The chain of the marked MAP on its layout: the generator D, the sum
    of the nine labelled generators D_l, and the flow table F, whose column
    l is D_l 1 over ARRIVAL_LABELS.  Every pi, Phi and event rate reads
    these two alone; the D_l themselves are not kept (see
    `label_matrices`).  solvers.stationary_direct attaches pi to the
    instance it solves."""

    layout: StateSpaceLayout
    total: sp.csr_matrix
    flows: np.ndarray   # states x ARRIVAL_LABELS


def _nonzeros(block: np.ndarray) -> tuple:
    """(shape, rows, cols, values) of the nonzero entries, row by row."""
    row, col = np.nonzero(block)
    return block.shape, row, col, block[row, col]


class _Assembly:
    """Shared context for the per-event builders.

    The last phase factor of a state is its clock: the vacation phase in v
    states, the head's service phase in nv states with s >= 1, and nothing
    (a 1 x 1 factor) in the empty facility.  The per-head tables are keyed
    by the head's mark, None for an empty queue."""

    def __init__(self, config: ModelConfig, layout: StateSpaceLayout,
                 blocks: UnitBlocks):
        self.c = config
        self.lay = layout
        self.keys = set(layout.macro_keys())   # the blocks (k, s, x) held
        self.b = blocks
        c = config
        self.V0 = c.vacation.exit_vector[:, None]
        self.upsilon = c.vacation.init[None, :]
        self.ones_v = np.ones((c.v, 1))
        self.beta = {None: np.ones((1, 1)), 1: c.corrective.init[None, :],
                     2: c.preventive.init[None, :]}
        self.S = {None: np.zeros((1, 1)), 1: c.corrective.subgen,
                  2: c.preventive.subgen}
        self.S0 = {1: c.corrective.exit_vector[:, None],
                   2: c.preventive.exit_vector[:, None]}
        self.entries: dict[str, list] = {l: [] for l in EVENT_LABELS}
        self._factors = {}  # (shape, dtype, entries) -> factor number
        # id(factor) -> (factor, number); holding the factor keeps its id
        # from passing to another array during the assembly
        self._numbered = {}
        self._blocks = {}   # (op, factor numbers) -> the block's nonzeros
        self._eyes = {}

    def heads(self, s: int):
        """(head mark, queue prefix) pairs that split E_s by the head."""
        return [(None, ())] if s == 0 else [(i, (i,)) for i in self.lay.marks]

    def clock(self, x: str, head) -> np.ndarray:
        """Generator of the clock of a v or nv state with this head."""
        return self.c.vacation.subgen if x == "v" else self.S[head]

    def core(self, k: int, s: int) -> np.ndarray:
        """No-event core of the unit phases: H0 while a unit is online, the
        shock renewal L + L0 gamma while every unit is down."""
        return self.b.H0 if s < k else self.b.shock_renewal

    def eye(self, n: int) -> np.ndarray:
        """The n x n identity, one object per n in this assembly."""
        if n not in self._eyes:
            self._eyes[n] = np.eye(n)
        return self._eyes[n]

    def keep(self, x: str, head) -> np.ndarray:
        """Identity on the clock: the event leaves it running."""
        return self.eye(self.clock(x, head).shape[0])

    def place(self, label: str, src: tuple, dst: tuple, *factors, op=kron):
        """Add the block op(*factors) once per queue of src = (k, s, x,
        prefix): the i-th of its queues maps into the i-th equal share of the
        span of dst.  The entries are addressed by offset arithmetic, in the
        order of kron(I_reps, block)."""
        (h, w), row, col, val = self._block(op, factors)
        if not row.size:
            return
        (r0, r1), (c0, c1) = self.lay.span(*src), self.lay.span(*dst)
        reps = (r1 - r0) // h
        if (reps * h, reps * w) != (r1 - r0, c1 - c0):
            raise AssemblyError(f"{label} block {(h, w)} does not tile "
                                f"{src} -> {dst}")
        shift = np.arange(reps)[:, None]
        self.entries[label].append(
            ((r0 + shift * h + row).ravel(), (c0 + shift * w + col).ravel(),
             np.tile(val, reps)))

    def _block(self, op, factors) -> tuple:
        """(shape, rows, cols, values) of the dense block op(*factors),
        formed once in this assembly for each op and distinct factors.  A
        factor is known by its shape, dtype and entries, and a kron's key
        leaves out the 1 x 1 factors [[1]], which do not change it."""
        key = [op]
        for f in factors:
            if op is not kron or f.shape != (1, 1) or f[0, 0] != 1:
                key.append(self._number(f))
        key = tuple(key)
        if key not in self._blocks:
            self._blocks[key] = _nonzeros(op(*factors))
        return self._blocks[key]

    def _number(self, f: np.ndarray) -> int:
        """The number of f's content, read off the array object after its
        first placement."""
        known = self._numbered.get(id(f))
        if known is None:
            number = self._factors.setdefault(
                (f.shape, f.dtype.str, f.tobytes()), len(self._factors))
            known = self._numbered[id(f)] = (f, number)
        return known[1]

    def triplets(self) -> tuple:
        """(rows, cols, values, parts): every label's entries concatenated
        once, in EVENT_LABELS order, and label -> the slice of its own.
        Each label's entry list is dropped from `entries` as it is copied."""
        size = sum(v.size for pieces in self.entries.values()
                   for *_, v in pieces)
        out = (np.empty(size, np.int64), np.empty(size, np.int64),
               np.empty(size))
        parts, stop = {}, 0
        for label in EVENT_LABELS:
            pieces = self.entries.pop(label)
            start, stop = stop, stop + sum(v.size for *_, v in pieces)
            for column, part in zip(out, zip(*pieces)):
                np.concatenate(part, out=column[start:stop])
            parts[label] = slice(start, stop)
        return (*out, parts)

    # -- event builders: each walks the second-level blocks ---------------

    def failures_to_facility(self):
        """A and B: a repairable failure (A) or a major inspection finding
        (B) sends the online unit to the back of the queue (s -> s + 1).
        Into an empty facility at work it starts service at once."""
        b = self.b
        select = {mark: np.eye(1, len(self.lay.marks), mark - 1)
                  for mark in self.lay.marks}
        for k, s, x in self.lay.macro_keys():
            if s == k:
                continue
            spare = s + 1 < k
            for label, mark, H in (("A", 1, b.HA if spare else b.HA_p),
                                   ("B", 2, b.HB if spare else b.HB_p)):
                if mark not in self.lay.marks:   # no B without PM
                    continue
                if s == 0:
                    start = self.beta[mark] if x == "nv" else self.keep(x, None)
                    self.place(label, (k, 0, x, ()), (k, 1, x, (mark,)),
                               H, start)
                    continue
                for head, prefix in self.heads(s):
                    self.place(label, (k, s, x, prefix), (k, s + 1, x, prefix),
                               select[mark], H, self.keep(x, head))

    def unit_losses(self):
        """C and CD: a non-repairable failure with k > 1 discards the online
        unit (k -> k - 1).  With no vacation block (k - 1, s, v) in the
        layout, as at k = R, it interrupts the vacation (CD) and the queue
        head, if any, starts service."""
        for k, s, x in self.lay.macro_keys():
            if s == k or k == 1:
                continue
            H = self.b.HC if s + 1 < k else self.b.HC_p
            to = x if (k - 1, s, x) in self.keys else "nv"
            for head, prefix in self.heads(s):
                if to == x:
                    label, clock = "C", (self.keep(x, head),)
                else:
                    label, clock = "CD", (self.ones_v, self.beta[head])
                self.place(label, (k, s, x, prefix), (k - 1, s, to, prefix),
                           H, *clock)

    def vacation_ends(self):
        """D and E: the vacation ends.  If the layout holds the at-work block
        (k, s, nv), as with N = k - R + 1 or more units waiting, the head
        starts service (D); else a new vacation starts at once (E)."""
        renew = self.V0 @ self.upsilon
        for k, s, x in self.lay.macro_keys():
            if x != "v":
                continue
            online = self.eye(len(self.core(k, s)))
            if (k, s, "nv") not in self.keys:
                self.place("E", (k, s, x, ()), (k, s, x, ()),
                           online, renew)
                continue
            for head, prefix in self.heads(s):
                self.place("D", (k, s, x, prefix), (k, s, "nv", prefix),
                           online, self.V0, self.beta[head])

    def service_completions(self):
        """O and F: the head's repair ends (s -> s - 1), the unit goes
        online (fresh if none was) and the next queued unit, if any, starts
        service.  With no at-work block (k, s - 1, nv) in the layout, R
        units are operational again and a new vacation starts instead (F)."""
        for k, s, x in self.lay.macro_keys():
            if x != "nv" or s == 0:
                continue
            G = self.eye(len(self.b.H0)) if s < k else self.b.theta
            for head, prefix in self.heads(s):
                if (k, s - 1, "nv") not in self.keys:
                    self.place("F", (k, s, x, prefix), (k, s - 1, "v", ()),
                               G, self.upsilon, self.S0[head])
                    continue
                for new, rest in self.heads(s - 1):
                    self.place("O", (k, s, x, prefix + rest), (k, s - 1, x, rest),
                               G, self.S0[head], self.beta[new])

    def fleet_renewal(self):
        """NS: non-repairable failure of the last unit, whole fleet renewed
        on a fresh vacation."""
        x = "v" if (1, 0, "v") in self.keys else "nv"   # the one E_0^{1,x}
        end = self.ones_v @ self.upsilon if x == "v" else self.upsilon
        self.place("NS", (1, 0, x, ()), (self.lay.n, 0, "v", ()),
                   self.b.HC, end)

    def phase_moves(self):
        """O: phase moves of the online unit and the clock, harmless shocks
        and negative inspections; with every unit down only the shock clock
        runs."""
        for k, s, x in self.lay.macro_keys():
            for head, prefix in self.heads(s):
                self.place("O", (k, s, x, prefix), (k, s, x, prefix),
                           self.core(k, s), self.clock(x, head), op=kron_sum)


def _built(config: ModelConfig, layout: StateSpaceLayout | None,
           blocks: UnitBlocks | None) -> _Assembly:
    """The assembly of the model with every builder run."""
    asm = _Assembly(config, layout or enumerate_states(config),
                    blocks or build_unit_blocks(config))
    asm.phase_moves()
    asm.failures_to_facility()
    asm.unit_losses()
    asm.vacation_ends()
    asm.service_completions()
    asm.fleet_renewal()
    return asm


def _csr(size: int, rows, cols, values) -> sp.csr_matrix:
    return sp.csr_matrix((values, (rows, cols)), shape=(size, size))


def _row_sums(size: int, rows: np.ndarray, values: np.ndarray) -> np.ndarray:
    """The sum of each row's entries: `np.add.reduceat` over each run of
    one row's entries, as scipy sums a CSR row, and a row's runs added.
    A builder emits each row of a label as one run in column order, so
    these are the label matrix's row sums bit for bit; a weighted bincount
    adds in sequence and can differ in the last bit."""
    starts = np.flatnonzero(np.diff(rows, prepend=-1))
    return np.bincount(rows[starts], weights=np.add.reduceat(values, starts),
                       minlength=size)


def assemble_all(config: ModelConfig, layout: StateSpaceLayout | None = None,
                 blocks: UnitBlocks | None = None,
                 validate: bool = True) -> MmapGenerators:
    """The generator D and the flow table F from one concatenation of the
    builders' triplets: D in one CSR pass, and column l of F, D_l 1, as the
    row sums of label l's entries."""
    asm = _built(config, layout, blocks)
    rows, cols, values, parts = triplets = asm.triplets()
    size = asm.lay.total
    flows = np.column_stack([
        _row_sums(size, rows[parts[label]], values[parts[label]])
        for label in ARRIVAL_LABELS])
    total = _csr(size, rows, cols, values)
    if validate:
        _validate(asm.lay, total, triplets)
    return MmapGenerators(asm.lay, total, flows)


def label_matrices(config: ModelConfig, layout: StateSpaceLayout | None = None,
                   blocks: UnitBlocks | None = None) -> dict:
    """label -> the labelled generator D_l as a CSR matrix, for all nine,
    from the builders `assemble_all` runs; they sum to its total.  The
    measures read only the total and F: these serve `build`'s nnz report
    and the tests."""
    asm = _built(config, layout, blocks)
    rows, cols, values, parts = asm.triplets()
    return {label: _csr(asm.lay.total, rows[part], cols[part], values[part])
            for label, part in parts.items()}


def _validate(layout: StateSpaceLayout, total: sp.csr_matrix, triplets):
    """Raise AssemblyError unless every row of the total sums to zero
    within CONSERVATION_TOL, and, among the builders' triplets (rows, cols,
    values, parts), no event label has a negative entry and O none off its
    diagonal."""
    rowsums = np.asarray(total.sum(axis=1)).ravel()
    worst = int(np.argmax(np.abs(rowsums)))
    if abs(rowsums[worst]) > CONSERVATION_TOL:
        key, phase = layout.decode(worst)
        raise AssemblyError(
            f"generator row {worst} (macro-state {key}, phase {phase}) "
            f"has residual {rowsums[worst]:.3e}")
    rows, cols, values, parts = triplets
    for label, part in parts.items():
        entries = values[part]
        if label == "O":
            off = entries[rows[part] != cols[part]]
            if off.size and off.min() < -CONSERVATION_TOL:
                raise AssemblyError("negative off-diagonal entry in O block")
        elif entries.size and entries.min() < -CONSERVATION_TOL:
            raise AssemblyError(f"negative entry in {label} block")
