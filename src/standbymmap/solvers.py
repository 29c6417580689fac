"""Transient and stationary solvers for the assembled generator.

Transient quantities use one uniformization sweep over the whole time grid.
The sweep detects stationarity (Sericola 1999; Malhotra, Muppala and
Trivedi 1994): once successive iterates agree to the tolerance it reads the
model's one stationary solve, and once phi P^k is within the tolerance of pi
it replaces the rest of the sum of every time that goes past k by a
stationary tail whose weight has a closed form, so a horizon costs no more
steps than the mixing time.  Its truncated mass stays in the result: p(t) 1
falls short of 1, and int_0^t p 1 short of t, by the truncation defect,
which callers can check.
The stationary distribution comes from a level cycle over the unit-count
levels: it censors the chain on the few full-fleet states the fleet
renewal enters, solves that small chain by GTH (Grassmann, Taksar and
Heyman 1985), and sweeps down the levels, factoring each level block once
and nothing larger.  A one-level chain and a generator without a layout
take one bordered solve of the whole generator instead; it shares no
factorisation with the level cycle, so it also serves as its cross-check.
Both factor with a threshold-pivoted LU that keeps the fill-reducing
order, the symmetric MMD_AT_PLUS_A for the bordered generator and the
column order COLAMD (Davis, Gilbert, Larimore and Ng 2004) for the level
blocks, and both reject a result with negative mass or a balance residual
||pi D||_inf beyond rounding level.  The optimizer's generators D(x),
affine in the vacation rates, share one bordered pattern, which
`BorderedPattern` compiles once in the order of their first LU.
"""

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.special import gammaln, pdtrc, xlogy

from .assembler import MmapGenerators
from .config import ModelConfig
from .statespace import StateSpaceLayout

UNIFORMIZATION_TOL = 1e-10
WEIGHT_BLOCK = 512       # sweep steps whose Poisson weights are formed at once
TRIGGER_STRIDE = 8       # the sweep's trigger is tested at steps k % 8 == 0
PIVOT_THRESH = 0.1
RESIDUAL_TOL = 1e-9


class SolverError(RuntimeError):
    pass


def initial_distribution(config: ModelConfig, layout: StateSpaceLayout) -> np.ndarray:
    """Start of a fresh fleet: all units new, shock clock stationary,
    repairperson leaving for vacation."""
    from .ph import renewal_stationary
    phi = np.zeros(layout.total)
    start, stop = layout.span(layout.n, 0, "v")
    st = layout.states[start:stop]
    phi[start:stop] = (config.internal.init[st["i"]]
                       * renewal_stationary(config.shock)[st["j"]]
                       * config.damage_init[st["h"]]
                       * config.inspection.init[st["u"]]
                       * config.vacation.init[st["w"]])
    return phi


def _poisson_sf(k, m):
    """P(N > k) for N ~ Poisson(m), elementwise: the special function that
    scipy.stats.poisson.sf calls, with the same result bit for bit, without
    the start-up cost of scipy.stats.  k < 0 gives 1, where pdtrc is NaN."""
    return np.where(k < 0, 1.0, pdtrc(k, m))


def _poisson_pmf(k, m):
    """P(N = k) for N ~ Poisson(m) and k >= 0, elementwise: the log-pmf that
    scipy.stats.poisson.pmf exponentiates, with the same result bit for bit."""
    return np.exp(xlogy(k, m) - gammaln(k + 1) - m)


def _truncation(lamt: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Smallest k with P(N >= k) <= q for N ~ Poisson(lamt), elementwise,
    by doubling and bisection on the survival function `_poisson_sf`.
    Valid for any q in (0, 1): an inverse survival function that works
    through 1 - q, as scipy.stats.poisson.isf does, rounds it to 1 once q is
    below about 1e-16, and then returns NaN."""
    lo = np.zeros(lamt.shape, dtype=np.int64)   # P(N >= lo) > q
    hi = np.ceil(lamt).astype(np.int64) + 1     # P(N >= hi) <= q once doubled
    while np.any(high := _poisson_sf(hi - 1, lamt) > q):
        lo, hi = np.where(high, hi, lo), np.where(high, 2 * hi, hi)
    while np.any(wide := hi - lo > 1):
        mid = (lo + hi) // 2
        low = _poisson_sf(mid - 1, lamt) <= q
        lo = np.where(wide & ~low, mid, lo)
        hi = np.where(wide & low, mid, hi)
    return hi


def _tail_weights(K: int, kmax: np.ndarray, lamt: np.ndarray, lam: float,
                  integral: bool) -> np.ndarray:
    """The sweep's weights summed over k = K..kmax in closed form:
    P(K <= N <= kmax) for p(t), and (E[(N - K)+] - E[(N - kmax - 1)+]) / lam
    for int_0^t p, with E[(N - a)+] = lam t P(N >= a) - a P(N > a)."""
    if not integral:
        return _poisson_sf(K - 1, lamt) - _poisson_sf(kmax, lamt)

    def excess(a):
        return lamt * _poisson_sf(a - 1, lamt) - a * _poisson_sf(a, lamt)
    return (excess(K) - excess(kmax + 1)) / lam


class _Products:
    """(x, out) -> PT x in out, PT @ x bit for bit: zero-fill out and run
    scipy's csr_matvec, the kernel that `csr_matrix @ vector` itself runs
    after `np.zeros` and its dispatch.  The kernel checks no size: PT is
    checked here, and the caller passes contiguous float64 vectors of PT's
    size."""

    def __init__(self, PT: sp.csr_matrix):
        from scipy.sparse._sparsetools import csr_matvec
        n = PT.shape[0]
        if not (PT.format == "csr" and PT.dtype == np.float64
                and PT.shape == (n, n) and PT.indptr.size == n + 1
                and PT.indices.dtype == PT.indptr.dtype):
            raise ValueError("the sweep's products need a square float64 "
                             f"CSR matrix: {PT.format} {PT.dtype} {PT.shape}")
        self._kernel, self._matrix = csr_matvec, (n, n, PT.indptr,
                                                  PT.indices, PT.data)

    def __call__(self, x: np.ndarray, out: np.ndarray) -> np.ndarray:
        out.fill(0.0)
        self._kernel(*self._matrix, x, out)
        return out


def _uniformization(gens: MmapGenerators, phi: np.ndarray, times, tol: float,
                    integral: bool) -> np.ndarray:
    """Rows sum_k w_k(t) phi P^k, one per t, with P = I + D / lam and w_k
    the Poisson(lam t) pmf (for p(t)) or its survival function over lam (for
    int_0^t p).  Each t sums up to its own truncation point kmax(t), the
    smallest k with P(N >= k) <= tol / max(lam t, 1); the mass beyond it is
    left out of the result, not rescaled back in.

    One sweep forms v_k = phi P^k for the whole grid, with the weights
    formed WEIGHT_BLOCK steps at a time, and stops once the chain has mixed.
    Trigger: at a step k that is a multiple of TRIGGER_STRIDE, when
    ||v_k - v_(k-1)||_1 <= tol, pi is read from `stationary_direct`, the
    model's one stationary solve.  Certificate: from then on the first step
    K with ||v_K - pi||_1 <= tol is the tail point.  A trigger without it (a
    nearly decomposable chain) costs that solve and one norm per step; one
    whose solve fails (several closed classes, no unique pi) ends both
    tests.  Every t with kmax(t) > K adds (sum_{k=K}^{kmax} w_k) pi in
    closed form in place of its steps from K on.  P is stochastic, so
    ||v_j - pi||_1 <= tol for every j >= K, and the tail is off by at most
    tol times its weight: tol for p(t), tol t for int_0^t p.  The other
    times sum exactly.

    Both tests look at iterates and step numbers that do not depend on the
    grid, and run while k < kmax of the grid's longest time, so K is the
    same for every grid whose longest time passes it: a t with kmax(t) > K
    takes the tail at K in any grid, and any other t sums exactly, so its
    row depends on t alone.  The worst case is a grid whose longest time
    ends between the trigger and K: it reads pi (solved once and kept on
    `gens`) and still sums every step.

    A step adds its iterate to the rows whose weight is not 0 (at t = 5000
    on the bundled fleet every weight before K underflows to 0), a window
    of rows found for a whole block of steps at once.  It then forms the
    next iterate by one `_Products` call, scipy's own CSR kernel run into
    the two vectors of `iterates` in turn, PT @ vec bit for bit: at 3,668
    states the sparse product is most of a step, and a fresh vector and a
    dispatch per step would be a good part of the rest.  No iterate is
    formed past the last step: an exact sum forms kmax products, and a
    tail taken at step K forms K."""
    times = np.atleast_1d(np.asarray(times, dtype=float))
    phi = np.ascontiguousarray(phi, dtype=float)
    if not times.size or not np.all(np.isfinite(times) & (times >= 0)):
        raise SolverError("uniformization needs a nonempty grid of finite "
                          f"times t >= 0: {times}")
    if not 0.0 < tol < 1.0:
        raise SolverError(f"uniformization needs 0 < tol < 1: {tol}")
    D = gens.total
    if phi.shape != (D.shape[0],):
        raise SolverError(f"uniformization needs phi of {D.shape[0]} "
                          f"states: shape {phi.shape}")
    lam = 1.01 * np.max(np.abs(D.diagonal()))
    PT = (sp.identity(D.shape[0], format="csr") + D / lam).T.tocsr()
    # longest sum first, so the times still summing at step k are a prefix
    order = np.argsort(-times, kind="stable")
    lamt = lam * times[order]
    if not lamt[0] < 2.0 ** 61:
        raise SolverError("uniformization needs lam t < 2**61 for its step "
                          f"counts: lam = {lam}, t = {times[order[0]]}")
    kmax = _truncation(lamt, tol / np.maximum(lamt, 1.0))
    acc = np.zeros((times.size, phi.size))
    buf = np.empty(phi.size)
    product = _Products(PT)
    iterates = np.empty((2, phi.size))     # v_k is formed in iterates[k & 1]

    def gap(a, b):                  # ||a - b||_1, formed in `buf`
        return np.abs(np.subtract(a, b, out=buf), out=buf).sum()
    vec, pi = phi, None
    search = int(kmax[0])           # both tests run while k < search
    k = done = 0                    # rows [0, done) took the stationary tail
    while done < times.size and k <= kmax[done]:
        last = int(kmax[done])      # the sweep's last step, if no tail
        steps = np.arange(k, min(k + WEIGHT_BLOCK, last + 1))
        live = np.searchsorted(-kmax, -steps, side="right")
        steps, rows = steps[:, None], lamt[done:live[0]]
        weights = (_poisson_sf(steps, rows) / lam if integral
                   else _poisson_pmf(steps, rows))
        # a step's weights are unimodal along the times, so the rows still
        # live at that step whose weight does not underflow to 0 are one
        # window [lo, hi) of the block's rows, empty (lo = hi) if none is
        nonzero = (weights != 0) & (np.arange(rows.size)
                                    < (live - done)[:, None])
        some = nonzero.any(axis=1)
        lo = np.where(some, nonzero.argmax(axis=1), 0)
        hi = np.where(some, rows.size - nonzero[:, ::-1].argmax(axis=1), 0)
        for s, (r0, r1) in enumerate(zip(lo.tolist(), hi.tolist())):
            # a tail taken at step k serves every time with kmax > k
            if not done and k < search:
                if (pi is None and k and not k % TRIGGER_STRIDE
                        and gap(vec, prev) <= tol):
                    try:
                        pi = stationary_direct(gens)
                    except RuntimeError:    # no unique pi: nothing to certify
                        search = 0
                if pi is not None and gap(vec, pi) <= tol:
                    done = np.count_nonzero(kmax > k)
                    tail = _tail_weights(k, kmax[:done], lamt[:done], lam,
                                         integral)
                    acc[:done] += tail[:, None] * pi
                    break
            if r1 > r0:
                acc[done + r0:done + r1] += weights[s, r0:r1, None] * vec
            k += 1
            if k <= last:
                prev, vec = vec, product(vec, iterates[k & 1])
    return acc[np.argsort(order)]


def transient(gens: MmapGenerators, phi: np.ndarray, times,
              tol: float = UNIFORMIZATION_TOL) -> np.ndarray:
    """Rows p(t) = phi expm(D t) for each t, by uniformization.  Below a
    tol of about 1e-11 the tail certificate cannot hold, as pi is itself
    only about that accurate in l1, and each t sums all its kmax(t) steps."""
    return _uniformization(gens, phi, times, tol, integral=False)


def transient_integral(gens: MmapGenerators, phi: np.ndarray, t,
                       tol: float = UNIFORMIZATION_TOL) -> np.ndarray:
    """Row vector int_0^t phi expm(D u) du, by uniformization; for a
    sequence of times, one such row per t from one sweep.  Below a tol of
    about 1e-11 every t sums all its kmax(t) steps, as `transient` does."""
    rows = _uniformization(gens, phi, t, tol, integral=True)
    return rows[0] if np.ndim(t) == 0 else rows


class OrderedLU:
    """Sparse LU of a square matrix A that solves in A's own coordinates.

    `order` is q = argsort(perm_c) of SuperLU's column permutation.  An LU
    that `_factor` makes solves as SuperLU's own does.  A `BorderedPattern`
    LU factors A[q][:, q] in natural order, with q the `order` of an
    earlier MMD_AT_PLUS_A factor of a matrix with A's pattern, and solves
    by x[q] = lu.solve(b[q], trans) for either transpose.  Only an
    MMD_AT_PLUS_A order is reused that way: it orders A + A^T, so it is a
    symmetric order.  COLAMD, which the level cycle uses, is a column
    order: it orders A^T A to bound the fill under any row pivoting, and
    its q is neither chosen as a symmetric order nor reused.
    """

    def __init__(self, lu, order: np.ndarray, permuted: bool):
        self.lu, self.order, self._permuted = lu, order, permuted

    @property
    def fill(self) -> int:
        """Entries of L and U together."""
        return self.lu.L.nnz + self.lu.U.nnz

    def solve(self, b: np.ndarray, trans: str = "N") -> np.ndarray:
        if not self._permuted:
            return self.lu.solve(b, trans)
        y = self.lu.solve(b[self.order], trans)
        x = np.empty_like(y)
        x[self.order] = y
        return x


def _lu(A: sp.csc_matrix, permc_spec: str):
    return spla.splu(A, permc_spec=permc_spec, diag_pivot_thresh=PIVOT_THRESH)


def _factor(A: sp.spmatrix, permc_spec: str) -> OrderedLU:
    """Sparse LU of A in SuperLU's fill-reducing order `permc_spec`,
    keeping a diagonal pivot while it is at least PIVOT_THRESH of its
    column's largest entry.  Generator blocks and the bordered transposed
    generator are diagonally dominant by rows or columns, so the diagonal
    almost always qualifies; partial pivoting (threshold 1) would give up
    the order for no safer pivots and fill the factors up to three times
    over.  The bordered generator takes the symmetric MMD_AT_PLUS_A, the
    level blocks COLAMD, which fills them less (2.9M against 5.0M entries
    over the eight levels at n = 8, PM on)."""
    lu = _lu(A.tocsc(), permc_spec)
    return OrderedLU(lu, np.argsort(lu.perm_c), permuted=False)


def _bordered(D: sp.spmatrix) -> sp.csr_matrix:
    """B: D^T with its first equation replaced by the normalisation pi 1 = 1,
    a row of ones."""
    n = D.shape[0]
    return sp.vstack([sp.csr_matrix(np.ones((1, n))), D.T.tocsr()[1:]],
                     format="csr")


def bordered_stationary(D: sp.spmatrix) -> tuple:
    """Solve pi D = 0, pi 1 = 1: the first equation of D^T pi^T = 0 is
    replaced by the normalisation, and the bordered matrix B factored by LU
    in a fresh MMD_AT_PLUS_A order.  Returns pi as solved, neither clipped
    nor rescaled, and the factorisation of B as an OrderedLU, whose
    transposed solves give the adjoint of the stationary solve and whose
    `order` a `BorderedPattern` reuses.  It is the stationary route of a
    one-level chain and of a generator without a layout, the first solve
    of an optimizer cell, and the level cycle's cross-check.  A pi that
    `_checked` rejects raises."""
    lu = _factor(_bordered(D), "MMD_AT_PLUS_A")
    pi = lu.solve(np.eye(1, D.shape[0])[0])
    return _checked(pi, pi @ D, D.diagonal()), lu


class BorderedPattern:
    """The bordered solves of the generators D(x) = D_0 + diag(rho) dD, in
    one fixed order q, compiled once.  The caller forms rho = rho(x), x_w
    in each vacation state of stage w and 0 elsewhere; dD has entries in
    vacation rows alone, so each of them is part of D(x).

    Each entry of D(x) is d_0 + rho_i d with i its row, summed as D(x) sums
    it.  While no entry cancels, every D(x) has one pattern, and its
    bordered matrix in the order q, B(x)[q][:, q] in CSC, has one fixed
    `indices` and `indptr` and the data b_0 + sum_w x_w b_w: b_0 holds the
    entries of D_0 and the row of ones in their slots of B, and b_w the
    entries of dD in rows of stage w, kept for all w as one (slots, rows,
    values) triple.  A solve takes rho, forms that data by one vector
    update, adding rho[rows] * values, and factors it in its natural
    order, with no sparse matrix built, and gives the pi and LU that
    SuperLU's natural-order LU of B(D(x))[q][:, q] gives, bit for bit.
    The ordering, more than half the cost of an LU of the bordered
    generator, looks at the pattern alone, so a fresh one would choose the
    same order: the fill equals a fresh ordering's (checked at the corners
    of the optimizer's box), and solutions move in their last digits only.

    The slots are found by passing a D(x) whose entries name themselves
    through the same bordering and ordering: entry e of D_0 is tagged
    (e + 1) m and entry f of dD f + 2, with m = nnz(dD) + 2, so each slot of
    B reads e and f back from its tag, and the row of ones reads 1."""

    def __init__(self, D0: sp.csr_matrix, dD: sp.csr_matrix,
                 order: np.ndarray):
        self.D0, self.dD, self.order = D0, dD, order
        self.n = D0.shape[0]
        rows = np.repeat(np.arange(self.n), np.diff(dD.indptr))
        m = dD.nnz + 2
        # each temporary goes before the next is made, as the first LU is alive
        B = _bordered(
            sp.csr_matrix((np.arange(1.0, D0.nnz + 1) * m, D0.indices,
                           D0.indptr), shape=D0.shape)
            + sp.csr_matrix((np.arange(2.0, m), dD.indices, dD.indptr),
                            shape=dD.shape))[order][:, order].tocsc()
        self.indices, self.indptr = B.indices, B.indptr
        e, f = np.divmod(B.data.astype(np.int64), m)
        del B
        self.base = np.append(0.0, D0.data)[e]
        self.base[f == 1] = 1.0
        at = np.flatnonzero(f > 1)
        f = f[at] - 2
        self.delta = at, rows[f], dD.data[f]
        self.diagonals = D0.diagonal(), dD.diagonal()

    def solve(self, rho) -> tuple:
        """pi and the bordered LU at rho, checked as
        `bordered_stationary` checks them, with pi D(x) and the diagonal of
        D(x) from the split."""
        at, rows, values = self.delta
        data = self.base.copy()
        data[at] += rho[rows] * values
        B = sp.csc_matrix((data, self.indices, self.indptr),
                          shape=(self.n, self.n))
        lu = OrderedLU(_lu(B, "NATURAL"), self.order, permuted=True)
        pi = lu.solve(np.eye(1, self.n)[0])
        balance = pi @ self.D0 + (pi * rho) @ self.dD
        diagonal = self.diagonals[0] + rho * self.diagonals[1]
        return _checked(pi, balance, diagonal), lu


def _checked(pi: np.ndarray, balance: np.ndarray,
             diagonal: np.ndarray) -> np.ndarray:
    """pi, once no entry is below -1e-9 and its balance residual
    ||pi D||_inf, the largest entry of balance = pi D, is at most
    RESIDUAL_TOL times the largest exit rate max |D_ii| of the diagonal;
    an inaccurate solve raises."""
    if np.min(pi) < -1e-9:
        raise SolverError("stationary solve produced negative probabilities")
    residual = float(np.max(np.abs(balance)))
    bound = RESIDUAL_TOL * float(np.max(np.abs(diagonal)))
    if not residual <= bound:
        raise SolverError(f"stationary residual ||pi D||_inf = {residual:.3e}"
                          f" exceeds {bound:.3e}")
    return pi


def stationary_direct(gens: MmapGenerators) -> np.ndarray:
    """Stationary distribution of the assembled generator by the level
    cycle, `stationary_block`, solved on the first call and attached to
    `gens` as a read-only `_pi` that later calls return (a
    `dataclasses.replace` copy has none).  The LUs are not kept, nor is a
    failure.  The LUs of the levels fill far less than one LU of the whole
    generator: `standbymmap steady --n 8` (73,492 states) takes 1.4 s and
    131 MB against 7.3 s and 354 MB by the bordered solve."""
    pi = getattr(gens, "_pi", None)
    if pi is None:
        pi = stationary_block(gens)
        pi.flags.writeable = False
        object.__setattr__(gens, "_pi", pi)
    return pi


def _check_levels(D: sp.spmatrix, layout: StateSpaceLayout) -> None:
    """Raise unless every transition stays in its level k, drops to k - 1,
    or is the fleet renewal from level 1 to level n."""
    n, level = layout.n, layout.states["k"]
    coo = D.tocoo()
    src, dst = level[coo.row], level[coo.col]
    bad = ((dst != src) & (dst != src - 1) & ~((src == 1) & (dst == n))
           & (coo.data != 0))
    if bad.any():
        i = np.argmax(bad)
        raise SolverError(f"the level cycle needs a zero block from level "
                          f"{src[i]} to level {dst[i]}")


def renewal_entries(D: sp.csr_matrix, layout: StateSpaceLayout) -> np.ndarray:
    """Columns of level n >= 2 that the fleet renewal from level 1 enters.
    Raises SolverError when there are none, as pi is then not unique."""
    (r0, r1), (c0, c1) = layout.k_span(1), layout.k_span(layout.n)
    cols = np.flatnonzero(np.diff(D[r0:r1, c0:c1].tocsc().indptr))
    if not cols.size:
        raise SolverError("no fleet renewal: with no non-repairable failure "
                          "each unit count is a closed class, pi not unique")
    return cols


def _gth(P: np.ndarray) -> np.ndarray:
    """Stationary vector a of a small irreducible stochastic matrix P,
    a P = a, a 1 = 1, by Grassmann, Taksar and Heyman's elimination (Oper.
    Res. 33, 1985).  It censors out the last state at each step and reads
    each exit probability as the sum of the off-diagonal entries of its row,
    never as 1 - P_kk, so it subtracts nothing and keeps full relative
    accuracy however weakly the states are coupled; the diagonal is never
    read.  Raises SolverError when a state cannot reach the ones before it
    (P is reducible and a is not unique)."""
    P = np.array(P, dtype=float)
    for k in range(len(P) - 1, 0, -1):
        leave = P[k, :k].sum()
        if not leave > 0:
            raise SolverError(f"GTH: state {k} of the {len(P)}-state "
                              "return matrix reaches no state before it")
        P[:k, k] /= leave
        P[:k, :k] += np.outer(P[:k, k], P[k, :k])
    a = np.ones(len(P))
    for k in range(1, len(P)):
        a[k] = a[:k] @ P[:k, k]
    return a / a.sum()


def stationary_block(gens: MmapGenerators) -> np.ndarray:
    """Stationary distribution by the level cycle (stochastic
    complementation, Meyer 1989), censored on the fleet renewal's entry
    states.

    The levels are the unit counts k = n..1.  A transition lowers k by at
    most one, except the fleet renewal (NS) from level 1 back to level n, so
    the balance of level k < n gives pi_k = -pi_{k+1} D_{k+1,k} D_kk^-1.
    The renewal enters level n only in its c nonzero columns (c = 2 on the
    bundled model), and these entry states are regeneration points.  W
    carries those columns up from level 1 by W <- -D_{k+1,k} D_kk^-1 W, so
    W_ij is the rate from level-n state i that ends in a renewal into entry
    j.  Y holds the rows of (-D_nn)^-1 at the entry states, by c transposed
    solves: Y_ij is the expected time in level-n state j from entry i until
    the fleet first drops to level n - 1.  Y W is the c x c stochastic
    matrix of the entry state each renewal returns to, and its stationary
    vector a comes from a GTH solve.  By the renewal-reward theorem pi_n is
    proportional to a Y, the expected time in each level-n state over one
    cycle from a renewal; a sweep down the levels by transposed solves
    gives the rest, and one scaling makes the whole mass 1.

    Every level block D_kk, D_nn included (a sub-generator, nonsingular
    as every level-n state leads down out of the level), is factored once
    in COLAMD order.  Y needs only D_nn's LU, and W and the downward sweep
    only the LUs of levels 1..n-1, so D_nn is factored first and its LU
    dropped once Y is solved: the LUs alive at once fill no more than the
    larger of D_nn's and the other levels' together.  At n = 1 there is
    one level, the renewal lies inside it, D_11 is singular, and the route
    is the bordered solve of D itself, as it is for a generator without a
    layout (`gens.layout` None or absent), whose levels are unknown.  Raises SolverError if any other
    block breaks that structure, or if no renewal occurs (`renewal_entries`).
    """
    lay, D = getattr(gens, "layout", None), gens.total.tocsr()
    if lay is None or lay.n == 1:
        return bordered_stationary(D)[0]
    n = lay.n
    _check_levels(D, lay)

    def blk(i, j):
        (r0, r1), (c0, c1) = lay.k_span(i), lay.k_span(j)
        return D[r0:r1, c0:c1]

    renewal, cols = blk(1, n), renewal_entries(D, lay)
    entries = np.zeros((renewal.shape[1], cols.size))
    entries[cols, np.arange(cols.size)] = 1.0
    # D_nn's LU goes as soon as Y is solved, before any other level's
    Y = -_factor(blk(n, n), "COLAMD").solve(entries, trans="T").T
    lus = {k: _factor(blk(k, k), "COLAMD") for k in range(1, n)}
    W = renewal[:, cols].toarray()
    for k in range(1, n):
        W = -(blk(k + 1, k) @ lus[k].solve(W))
    pieces = [_gth(Y @ W) @ Y]
    for k in range(n - 1, 0, -1):
        pieces.append(-lus[k].solve(pieces[-1] @ blk(k + 1, k), trans="T"))
    pi = np.concatenate(pieces)
    pi /= pi.sum()
    return _checked(pi, pi @ D, D.diagonal())
