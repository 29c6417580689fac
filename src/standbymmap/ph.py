"""Phase-type distribution primitives and Kronecker helpers.

A phase-type (PH) distribution is the time to absorption of a finite CTMC
with one absorbing state, represented by an initial probability row vector
and the sub-generator over the transient phases.
"""

from dataclasses import dataclass, field

import numpy as np

# Absolute tolerance for validating user-supplied vectors/matrices.
VALIDATION_ATOL = 1e-12


class DegeneratePhError(ValueError):
    """Raised when a PH representation has a singular sub-generator."""


class ReducibleRenewalError(ValueError):
    """Raised when the PH renewal generator L + L0*gamma is reducible."""


@dataclass(frozen=True)
class PhDistribution:
    """PH distribution (init, subgen) with nonnegative exit vector."""

    init: np.ndarray
    subgen: np.ndarray

    def __post_init__(self):
        init = np.atleast_1d(np.asarray(self.init, dtype=float)).ravel()
        subgen = np.atleast_2d(np.asarray(self.subgen, dtype=float))
        object.__setattr__(self, "init", init)
        object.__setattr__(self, "subgen", subgen)
        n = init.size
        if subgen.shape != (n, n):
            raise ValueError(
                f"subgen shape {subgen.shape} does not match init length {n}"
            )
        if np.any(init < -VALIDATION_ATOL) or init.sum() > 1 + 1e-9:
            raise ValueError("init must be a sub-probability row vector")
        off = subgen - np.diag(np.diag(subgen))
        if np.any(off < -VALIDATION_ATOL):
            raise ValueError("subgen off-diagonal entries must be >= 0")
        if np.any(np.diag(subgen) >= 0):
            raise ValueError("subgen diagonal entries must be < 0")
        rows = subgen.sum(axis=1)
        if np.any(rows > VALIDATION_ATOL):
            raise ValueError("subgen row sums must be <= 0")
        if not np.any(rows < -VALIDATION_ATOL):
            raise ValueError("subgen must have at least one exit row")

    @property
    def order(self) -> int:
        return self.init.size

    @property
    def exit_vector(self) -> np.ndarray:
        """Absorption intensities: -subgen @ 1."""
        return -self.subgen.sum(axis=1)


def ph_mean(d: PhDistribution) -> float:
    """Mean time to absorption, -init @ subgen^-1 @ 1."""
    try:
        sol = np.linalg.solve(d.subgen, -np.ones(d.order))
    except np.linalg.LinAlgError as exc:
        raise DegeneratePhError("degenerate PH: singular sub-generator") from exc
    return float(d.init @ sol)


def kron(*mats) -> np.ndarray:
    """Kronecker product of the factors, left to right, entry for entry
    that of np.kron; a vector factor is taken as a row."""
    out, *rest = map(np.atleast_2d, mats)
    for b in rest:
        (p, q), (r, s) = out.shape, b.shape
        out = (out[:, None, :, None]
               * b[None, :, None, :]).reshape(p * r, q * s)
    return out


def kron_sum(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker sum a (+) b = a x I + I x b for square a, b."""
    a = np.atleast_2d(a)
    b = np.atleast_2d(b)
    if a.shape[0] != a.shape[1] or b.shape[0] != b.shape[1]:
        raise ValueError("kron_sum requires square matrices")
    return kron(a, np.eye(b.shape[0])) + kron(np.eye(a.shape[0]), b)


def renewal_stationary(d: PhDistribution) -> np.ndarray:
    """Stationary phase distribution of the PH renewal process.

    Solves r (subgen + exit*init) = 0, r @ 1 = 1 by replacing the first
    column of the renewal generator with the all-ones vector.
    """
    q = d.subgen + np.outer(d.exit_vector, d.init)
    bordered = q.copy()
    bordered[:, 0] = 1.0
    rhs = np.zeros(d.order)
    rhs[0] = 1.0
    try:
        r = np.linalg.solve(bordered.T, rhs)
    except np.linalg.LinAlgError as exc:
        raise ReducibleRenewalError("reducible renewal process") from exc
    if np.any(r < -1e-9):
        raise ReducibleRenewalError("reducible renewal process")
    return r
