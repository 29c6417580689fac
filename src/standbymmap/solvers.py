"""Transient and stationary solvers for the assembled generator.

Transient quantities use uniformization; the stationary distribution is
available both through a block back-substitution sweep over the unit-count
levels and through a direct bordered solve, which serve as cross-checks.
"""

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.stats import poisson

from .assembler import MmapGenerators
from .config import ModelConfig
from .statespace import StateSpaceLayout

UNIFORMIZATION_TOL = 1e-10


class SolverError(RuntimeError):
    pass


def initial_distribution(config: ModelConfig, layout: StateSpaceLayout) -> np.ndarray:
    """Start of a fresh fleet: all units new, shock clock stationary,
    repairperson leaving for vacation."""
    from .ph import renewal_stationary
    phi = np.zeros(layout.total)
    start, stop = layout.span(layout.n, 0, "v")
    head = np.kron(config.internal.init, renewal_stationary(config.shock))
    head = np.kron(np.kron(head, config.damage_init), config.inspection.init)
    phi[start:stop] = np.kron(head, config.vacation.init)
    return phi


def _uniformized(gen: sp.csr_matrix):
    lam = 1.01 * np.max(np.abs(gen.diagonal()))
    P = sp.identity(gen.shape[0], format="csr") + gen / lam
    return lam, P


def transient(gens: MmapGenerators, phi: np.ndarray, times,
              tol: float = UNIFORMIZATION_TOL) -> np.ndarray:
    """Rows p(t) = phi expm(D t) for each t, by uniformization."""
    times = np.atleast_1d(np.asarray(times, dtype=float))
    lam, P = _uniformized(gens.total)
    out = np.empty((times.size, phi.size))
    for r, t in enumerate(times):
        if t == 0:
            out[r] = phi
            continue
        kmax = int(poisson.isf(tol, lam * t)) + 1
        weights = poisson.pmf(np.arange(kmax + 1), lam * t)
        acc = weights[0] * phi
        vec = phi
        for k in range(1, kmax + 1):
            vec = vec @ P
            acc = acc + weights[k] * vec
        out[r] = acc / acc.sum()
    return out


def transient_integral(gens: MmapGenerators, phi: np.ndarray, t: float,
                       tol: float = UNIFORMIZATION_TOL) -> np.ndarray:
    """Row vector int_0^t phi expm(D u) du.

    With the uniformized chain P and rate lam this is
    (1/lam) sum_k phi P^k Pr(Poisson(lam t) > k).
    """
    if t <= 0:
        return np.zeros_like(phi)
    lam, P = _uniformized(gens.total)
    kmax = int(poisson.isf(tol / max(lam * t, 1.0), lam * t)) + 1
    surv = poisson.sf(np.arange(kmax + 1), lam * t)
    acc = surv[0] * phi
    vec = phi
    for k in range(1, kmax + 1):
        vec = vec @ P
        acc = acc + surv[k] * vec
        if surv[k] < tol and k > lam * t:
            break
    res = acc / lam
    # normalise the tiny truncation defect against the exact total mass t
    return res * (t / res.sum())


def bordered_stationary(D: sp.spmatrix) -> np.ndarray:
    """Solve pi D = 0, pi 1 = 1: the first equation of D^T pi^T = 0 is
    replaced by the normalisation, and the bordered matrix factored by LU."""
    n = D.shape[0]
    B = sp.vstack([sp.csr_matrix(np.ones((1, n))), D.T.tocsr()[1:]],
                  format="csr")
    rhs = np.zeros(n)
    rhs[0] = 1.0
    pi = spla.splu(B.tocsc(), permc_spec="MMD_AT_PLUS_A").solve(rhs)
    return _normalised(pi)


def _normalised(pi: np.ndarray) -> np.ndarray:
    """Reject negative mass beyond rounding, then clip it and rescale."""
    if np.min(pi) < -1e-9:
        raise SolverError("stationary solve produced negative probabilities")
    return np.clip(pi, 0.0, None) / pi.sum()


def stationary_direct(gens: MmapGenerators) -> np.ndarray:
    """Stationary distribution of the assembled generator by one bordered
    sparse solve."""
    return bordered_stationary(gens.total)


def stationary_block(gens: MmapGenerators) -> np.ndarray:
    """Stationary distribution via back-substitution over the unit levels.

    The generator is block lower-Hessenberg in k (transitions only decrease
    the unit count, except the fleet renewal back to level n), so each
    level's sub-vector is proportional to the level-n one.
    """
    lay = gens.layout
    D = gens.total
    spans = [lay.k_span(k) for k in range(lay.n, 0, -1)]  # level order n..1
    L = len(spans)

    def blk(i, j):
        (r0, r1), (c0, c1) = spans[i], spans[j]
        return D[r0:r1, c0:c1].toarray()

    # pi_k = pi_n M_k with M_n = I; the renewal feedback into level n is
    # folded into the closing balance equation for pi_n.
    mult = [None] * L
    mult[0] = np.eye(spans[0][1] - spans[0][0])
    for j in range(1, L):
        # inflow to level j comes only from level j-1 (and j itself)
        mult[j] = -mult[j - 1] @ blk(j - 1, j) @ np.linalg.inv(blk(j, j))
    closing = blk(0, 0).copy()
    if L > 1:
        closing = closing + mult[-1] @ blk(L - 1, 0)
    total_mass = sum(m.sum(axis=1) for m in mult)
    closing[:, 0] = total_mass
    rhs = np.zeros(closing.shape[0])
    rhs[0] = 1.0
    pin = np.linalg.solve(closing.T, rhs)
    pieces = [pin @ m for m in mult]
    return _normalised(np.concatenate(pieces))
