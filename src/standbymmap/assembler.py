"""Assembly of the labelled event generators over the full state space.

Nine labels: O (no event), A (repairable failure), B (major inspection),
C (non-repairable failure), D (return to work), CD (failure at k = R that
interrupts the vacation), E (return followed by a fresh vacation), F (new
vacation after the repair that brings the fleet back to R operational
units), NS (total loss of the last unit, fleet replacement).  Their sum is
the conservative generator of the chain.
"""

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .config import ModelConfig
from .statespace import StateSpaceLayout, enumerate_states
from .unit import UnitBlocks, build_unit_blocks

EVENT_LABELS = ("O", "A", "B", "C", "D", "CD", "E", "F", "NS")

CONSERVATION_TOL = 1e-10


class AssemblyError(RuntimeError):
    """Raised when an assembled generator violates a structural invariant."""


@dataclass(frozen=True)
class MmapGenerators:
    """The labelled generators, their sum, and the layout they live on."""

    layout: StateSpaceLayout
    matrices: dict     # label -> csr_matrix
    total: sp.csr_matrix

    def __getitem__(self, label: str) -> sp.csr_matrix:
        return self.matrices[label]

    @property
    def arrival_labels(self):
        return tuple(l for l in EVENT_LABELS if l != "O")


def _skron(*mats) -> sp.csr_matrix:
    out = None
    for m in mats:
        m = sp.csr_matrix(m)
        out = m if out is None else sp.kron(out, m, format="csr")
    return out


def _ksum(a, b) -> sp.csr_matrix:
    a = sp.csr_matrix(a)
    b = sp.csr_matrix(b)
    return (sp.kron(a, sp.identity(b.shape[0], format="csr"), format="csr")
            + sp.kron(sp.identity(a.shape[0], format="csr"), b, format="csr"))


class _Assembly:
    """Shared context for the per-event builders."""

    def __init__(self, config: ModelConfig, layout: StateSpaceLayout,
                 blocks: UnitBlocks):
        self.c = config
        self.lay = layout
        self.b = blocks
        c = config
        self.P = c.m * c.t * c.d * c.eps
        self.theta = np.kron(np.kron(np.kron(c.internal.init, np.eye(c.t)),
                                     c.damage_init), c.inspection.init)
        self.shock_renewal = c.shock.subgen + np.outer(c.shock.exit_vector,
                                                       c.shock.init)
        self.V0 = c.vacation.exit_vector[:, None]
        self.upsilon = c.vacation.init[None, :]
        self.ones_v = np.ones((c.v, 1))
        self.beta = (None, c.corrective.init[None, :], c.preventive.init[None, :])
        self.S = (None, c.corrective.subgen, c.preventive.subgen)
        self.S0 = (None, c.corrective.exit_vector[:, None],
                   c.preventive.exit_vector[:, None])
        self.entries: dict[str, list] = {l: [] for l in EVENT_LABELS}

    def nv_min(self, k: int) -> int:
        return k - self.lay.R + 1 if k >= self.lay.R else 0

    def place(self, label: str, row0: int, col0: int, mat):
        mat = sp.coo_matrix(mat)
        if mat.nnz:
            self.entries[label].append((row0, col0, mat))

    def matrix(self, label: str) -> sp.csr_matrix:
        rows, cols, data = [], [], []
        for row0, col0, mat in self.entries[label]:
            rows.append(mat.row + row0)
            cols.append(mat.col + col0)
            data.append(mat.data)
        if not rows:
            return sp.csr_matrix((self.lay.total, self.lay.total))
        return sp.csr_matrix(
            (np.concatenate(data), (np.concatenate(rows), np.concatenate(cols))),
            shape=(self.lay.total, self.lay.total))

    # -- event builders ------------------------------------------------

    def event_failure_to_facility(self, label: str):
        """A and B: the online unit joins the repair queue (s -> s + 1)."""
        lay, R, n = self.lay, self.lay.R, self.lay.n
        qtype = 1 if label == "A" else 2
        sel = np.zeros((1, 2))
        sel[0, qtype - 1] = 1.0
        hx = {"A": (self.b.HA, self.b.HA_p), "B": (self.b.HB, self.b.HB_p)}[label]
        for k in range(1, n + 1):
            if k >= R:
                for s in range(k):
                    H = hx[0] if s + 1 < k else hx[1]
                    self.place(label, lay.span(k, s, "v")[0],
                               lay.span(k, s + 1, "v")[0],
                               _skron(sp.identity(2 ** s), sel, H,
                                      np.eye(self.c.v)))
            for s in range(self.nv_min(k), k):
                H = hx[0] if s + 1 < k else hx[1]
                if s == 0:
                    b1 = lay.block(k, 1, "nv")
                    col0 = b1.queue_offsets[qtype - 1]
                    self.place(label, lay.span(k, 0, "nv")[0], col0,
                               _skron(H, self.beta[qtype]))
                else:
                    for head in (1, 2):
                        self.place(label, lay.head_span(k, s, "nv", head)[0],
                                   lay.head_span(k, s + 1, "nv", head)[0],
                                   _skron(sp.identity(2 ** (s - 1)), sel, H,
                                          np.eye(self.c.z[head])))

    def event_unit_loss(self):
        """C: non-repairable failure with k > 1 (vacation not interrupted)."""
        lay, R, n = self.lay, self.lay.R, self.lay.n
        for k in range(2, n + 1):
            if k > R:
                for s in range(k):
                    H = self.b.HC if s < k - 1 else self.b.HC_p
                    self.place("C", lay.span(k, s, "v")[0],
                               lay.span(k - 1, s, "v")[0],
                               _skron(sp.identity(2 ** s), H, np.eye(self.c.v)))
            for s in range(self.nv_min(k), k):
                H = self.b.HC if s < k - 1 else self.b.HC_p
                if s == 0:
                    self.place("C", lay.span(k, 0, "nv")[0],
                               lay.span(k - 1, 0, "nv")[0], H)
                else:
                    for head in (1, 2):
                        self.place("C", lay.head_span(k, s, "nv", head)[0],
                                   lay.head_span(k - 1, s, "nv", head)[0],
                                   _skron(sp.identity(2 ** (s - 1)), H,
                                          np.eye(self.c.z[head])))

    def event_loss_interrupts_vacation(self):
        """CD: failure at k = R forces the repairperson back to work."""
        lay, R = self.lay, self.lay.R
        if R < 2:
            return
        k = R
        for s in range(k):
            H = self.b.HC if s < k - 1 else self.b.HC_p
            if s == 0:
                self.place("CD", lay.span(k, 0, "v")[0],
                           lay.span(k - 1, 0, "nv")[0],
                           _skron(H, self.ones_v))
            else:
                for head in (1, 2):
                    self.place("CD", lay.head_span(k, s, "v", head)[0],
                               lay.head_span(k - 1, s, "nv", head)[0],
                               _skron(sp.identity(2 ** (s - 1)), H,
                                      self.ones_v, self.beta[head]))

    def event_return_to_work(self):
        """D: vacation ends with >= N units waiting, service starts."""
        lay, R, n = self.lay, self.lay.R, self.lay.n
        for k in range(R, n + 1):
            nmin = self.nv_min(k)
            for s in range(nmin, k + 1):
                online = self.P if s < k else self.c.t
                for head in (1, 2):
                    self.place("D", lay.head_span(k, s, "v", head)[0],
                               lay.head_span(k, s, "nv", head)[0],
                               _skron(sp.identity(2 ** (s - 1)), np.eye(online),
                                      self.V0, self.beta[head]))

    def event_return_and_leave(self):
        """E: vacation ends with < N units waiting, a new vacation starts."""
        lay, R, n = self.lay, self.lay.R, self.lay.n
        renew = self.V0 @ self.upsilon
        for k in range(R, n + 1):
            for s in range(self.nv_min(k)):
                off = lay.span(k, s, "v")[0]
                self.place("E", off, off,
                           _skron(sp.identity(2 ** s), np.eye(self.P), renew))

    def event_vacation_after_repair(self):
        """F: the completion that restores R operational units; new vacation."""
        lay, R, n = self.lay, self.lay.R, self.lay.n
        for k in range(R, n + 1):
            N = self.nv_min(k)
            G = self.theta if k == N else np.eye(self.P)
            col0 = lay.span(k, N - 1, "v")[0]
            for head in (1, 2):
                self.place("F", lay.head_span(k, N, "nv", head)[0], col0,
                           _skron(sp.identity(2 ** (N - 1)), G, self.upsilon,
                                  self.S0[head]))

    def event_new_system(self):
        """NS: non-repairable failure of the last unit, whole fleet renewed."""
        lay, R, n = self.lay, self.lay.R, self.lay.n
        col0 = lay.span(n, 0, "v")[0]
        if R > 1:
            self.place("NS", lay.span(1, 0, "nv")[0], col0,
                       _skron(self.b.HC, self.upsilon))
        else:
            self.place("NS", lay.span(1, 0, "v")[0], col0,
                       _skron(self.b.HC, self.ones_v @ self.upsilon))

    def event_no_arrival(self):
        """O: phase moves, harmless shocks/inspections, and the service
        completions that neither reach the vacation threshold nor empty
        the facility below it."""
        lay, R, n = self.lay, self.lay.R, self.lay.n
        c = self.c
        for k in range(1, n + 1):
            nmin = self.nv_min(k)
            if k >= R:
                for s in range(k + 1):
                    core = self.b.H0 if s < k else self.shock_renewal
                    off = lay.span(k, s, "v")[0]
                    self.place("O", off, off,
                               _skron(sp.identity(2 ** s),
                                      _ksum(core, c.vacation.subgen)))
            if nmin == 0:
                off = lay.span(k, 0, "nv")[0]
                self.place("O", off, off, self.b.H0)
            for s in range(max(nmin, 1), k + 1):
                core = self.b.H0 if s < k else self.shock_renewal
                for head in (1, 2):
                    off = lay.head_span(k, s, "nv", head)[0]
                    self.place("O", off, off,
                               _skron(sp.identity(2 ** (s - 1)),
                                      _ksum(core, self.S[head])))
            # service completions staying above the vacation threshold
            s_lo = 1 if k < R else nmin + 1
            for s in range(s_lo, k + 1):
                online_rows = self.P if s < k else c.t
                G = np.eye(self.P) if s < k else self.theta
                if s == 1:
                    for head in (1, 2):
                        self.place("O", lay.head_span(k, 1, "nv", head)[0],
                                   lay.span(k, 0, "nv")[0],
                                   _skron(G, self.S0[head]))
                else:
                    for old in (1, 2):
                        row_base = lay.head_span(k, s, "nv", old)[0]
                        quarter = 2 ** (s - 2) * online_rows * c.z[old]
                        for new in (1, 2):
                            self.place(
                                "O", row_base + (new - 1) * quarter,
                                lay.head_span(k, s - 1, "nv", new)[0],
                                _skron(sp.identity(2 ** (s - 2)), G,
                                       self.S0[old], self.beta[new]))


def assemble_all(config: ModelConfig, layout: StateSpaceLayout | None = None,
                 blocks: UnitBlocks | None = None,
                 validate: bool = True) -> MmapGenerators:
    """Build all nine labelled generators and their sum."""
    layout = layout or enumerate_states(config)
    blocks = blocks or build_unit_blocks(config)
    asm = _Assembly(config, layout, blocks)
    asm.event_no_arrival()
    asm.event_failure_to_facility("A")
    asm.event_failure_to_facility("B")
    asm.event_unit_loss()
    asm.event_loss_interrupts_vacation()
    asm.event_return_to_work()
    asm.event_return_and_leave()
    asm.event_vacation_after_repair()
    asm.event_new_system()
    matrices = {label: asm.matrix(label) for label in EVENT_LABELS}
    total = sum(matrices.values(), sp.csr_matrix((layout.total, layout.total)))
    gens = MmapGenerators(layout=layout, matrices=matrices,
                          total=sp.csr_matrix(total))
    if validate:
        _validate(gens)
    return gens


def _validate(gens: MmapGenerators):
    lay = gens.layout
    rowsums = np.asarray(gens.total.sum(axis=1)).ravel()
    worst = int(np.argmax(np.abs(rowsums)))
    if abs(rowsums[worst]) > CONSERVATION_TOL:
        key, phase = lay.decode(worst)
        raise AssemblyError(
            f"generator row {worst} (macro-state {key}, phase {phase}) "
            f"has residual {rowsums[worst]:.3e}")
    for label in EVENT_LABELS:
        mat = gens[label]
        if label == "O":
            off = mat - sp.diags(mat.diagonal())
            if off.nnz and off.data.min() < -CONSERVATION_TOL:
                raise AssemblyError("negative off-diagonal entry in O block")
        elif mat.nnz and mat.data.min() < -CONSERVATION_TOL:
            raise AssemblyError(f"negative entry in {label} block")

