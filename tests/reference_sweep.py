"""The uniformization sweep as a plain per-step loop: the reference that
`solvers._uniformization` must equal bit for bit.

Each step finds its live rows by `np.flatnonzero`, adds `w[lo:hi, None] *
vec` to them, and forms the next iterate by `PT @ vec`, a product after
every step, the last one included.  Steps, weights, trigger, certificate
and tail are the solver's own, so only the way a step is carried out
differs."""

import numpy as np
import scipy.sparse as sp

from standbymmap.solvers import (TRIGGER_STRIDE, WEIGHT_BLOCK, _poisson_pmf,
                                 _poisson_sf, _tail_weights, _truncation,
                                 stationary_direct)


def reference_sweep(gens, phi, times, tol, integral):
    """(rows, products): the rows of `solvers._uniformization` in grid
    order, and the number of products `PT @ vec` the loop formed."""
    times = np.atleast_1d(np.asarray(times, dtype=float))
    D = gens.total
    lam = 1.01 * np.max(np.abs(D.diagonal()))
    PT = (sp.identity(D.shape[0], format="csr") + D / lam).T.tocsr()
    order = np.argsort(-times, kind="stable")
    lamt = lam * times[order]
    kmax = _truncation(lamt, tol / np.maximum(lamt, 1.0))
    acc = np.zeros((times.size, phi.size))
    buf = np.empty(phi.size)

    def gap(a, b):
        return np.abs(np.subtract(a, b, out=buf), out=buf).sum()
    vec, pi, products = phi, None, 0
    search = kmax[0]
    k = done = 0
    while done < times.size and k <= kmax[done]:
        steps = np.arange(k, min(k + WEIGHT_BLOCK, kmax[done] + 1))
        live = np.searchsorted(-kmax, -steps, side="right")
        steps, rows = steps[:, None], lamt[done:live[0]]
        weights = (_poisson_sf(steps, rows) / lam if integral
                   else _poisson_pmf(steps, rows))
        for w, n in zip(weights, live):
            if not done and k < search:
                if (pi is None and k and not k % TRIGGER_STRIDE
                        and gap(vec, prev) <= tol):
                    try:
                        pi = stationary_direct(gens)
                    except RuntimeError:
                        search = 0
                if pi is not None and gap(vec, pi) <= tol:
                    done = np.count_nonzero(kmax > k)
                    tail = _tail_weights(k, kmax[:done], lamt[:done], lam,
                                         integral)
                    acc[:done] += tail[:, None] * pi
                    break
            nonzero = np.flatnonzero(w[:n - done])
            if nonzero.size:
                lo, hi = nonzero[0], nonzero[-1] + 1
                acc[done + lo:done + hi] += w[lo:hi, None] * vec
            prev, vec = vec, PT @ vec
            products += 1
            k += 1
    return acc[np.argsort(order)], products
