"""Transition blocks of the online unit.

The online unit lives on the phase grid (internal, shock, damage, inspection).
With PM off the chain carries no inspection phase (see
`ModelConfig.carries_inspection`): the grid's inspection factor is 1 x 1,
which leaves the layout's (i, j, h), and no term reads the inspection clock.
Its outflow splits into four labelled channels: repairable failure (A),
positive inspection sending the unit to preventive maintenance (B),
non-repairable failure (C) and everything else (O, block H0).  Each channel
is one list of Kronecker terms with one factor per clock, (internal, shock,
damage, inspection), and its block is the sum of the terms' products.  With
every unit down only the shock clock runs: its core is L + L0 gamma, and the
repair that ends the outage brings a fresh unit online through theta =
alpha (x) I_t (x) omega (x) eta.  The primed variants of A/B/C apply when
the failing unit is the last operational one, so no fresh unit is
re-initialised and only the shock clock survives: each is derived from its
unprimed block by summing the target columns over every phase but the
shock clock, H' = H (1_m (x) I_t (x) 1_d (x) 1_eps).
"""

from dataclasses import dataclass
from functools import reduce

import numpy as np

from .config import ModelConfig
from .ph import kron


@dataclass(frozen=True)
class UnitBlocks:
    """Event blocks of the online unit on the (i, j, h, u) phase grid, (i, j,
    h) with PM off, and the blocks of the all-down fleet on the shock clock
    j."""

    H0: np.ndarray
    HA: np.ndarray
    HB: np.ndarray
    HC: np.ndarray
    HA_p: np.ndarray   # primed variants: columns collapse to the shock clock
    HB_p: np.ndarray
    HC_p: np.ndarray
    theta: np.ndarray           # all down -> one fresh unit online, j kept
    shock_renewal: np.ndarray   # all down: L + L0 gamma


def _terms(c: ModelConfig) -> dict:
    """Kronecker terms of every block on the grid, keyed by its UnitBlocks
    field, and `keep_shock` = 1_m (x) I_t (x) 1_d (x) 1_eps.  Without an
    inspection clock (PM off, see `ModelConfig.carries_inspection`) its
    factor is 1 x 1 and its terms are left out, not replaced by a one-phase
    clock whose restart would add -r and +r to H0's diagonal."""
    I_m, I_t, I_d, I_e = (np.eye(k) for k in (c.m, c.t, c.d, c.eps))
    one = np.ones((1, 1))
    alpha, omega = c.internal.init, c.damage_init
    eta = c.inspection.init if c.carries_inspection else np.ones(1)
    renew = np.outer(c.shock.exit_vector, c.shock.init)        # L0 gamma
    sub = renew * (1 - c.total_failure_prob)
    new_m, new_d = np.outer(np.ones(c.m), alpha), np.outer(np.ones(c.d), omega)
    new_e = np.outer(np.ones(c.eps), eta)
    stay_d = np.outer(c.damage_matrix.sum(axis=1), omega)      # D 1 omega
    # without the inspection clock nothing is found, and HB is zero
    clock, minor, findings = [], [], [(np.zeros((c.m, c.m)), I_t, I_d, I_e)]
    if c.carries_inspection:
        insp = np.outer(c.inspection.exit_vector, eta)
        minor_i = (np.arange(c.m) < c.minor_internal).astype(float)
        minor_d = (np.arange(c.d) < c.minor_damage).astype(float)
        # A major finding (major internal phase, or minor with major damage)
        # sends the unit to PM (B); after a minor one its phases persist (O).
        majors = ((1 - minor_i, np.ones(c.d)), (minor_i, 1 - minor_d))
        clock = [(I_m, I_t, I_d, c.inspection.subgen)]
        minor = [(np.diag(minor_i), I_t, np.diag(minor_d), insp)]
        findings = [(np.outer(u, alpha), I_t, np.outer(v, omega), insp)
                    for u, v in majors]
    return {
        "H0": [(c.internal.subgen, I_t, I_d, I_e),
               (I_m, c.shock.subgen, I_d, I_e),
               *clock,
               (c.shock_effect, sub, c.damage_matrix, I_e),
               *minor],
        "HA": [(np.outer(c.internal_exit_repairable, alpha), I_t, new_d, new_e),
               (np.outer(c.shock_repairable, alpha), sub, stay_d, new_e)],
        "HB": findings,
        "HC": [(np.outer(c.internal_exit_nonrepairable, alpha), I_t, new_d, new_e),
               (np.outer(c.shock_nonrepairable, alpha), sub, stay_d, new_e),
               (new_m, sub, np.outer(c.damage_exit, omega), new_e),
               (new_m, renew * c.total_failure_prob, new_d, new_e)],
        "theta": [(alpha, I_t, omega, eta)],
        "shock_renewal": [(one, c.shock.subgen, one, one), (one, renew, one, one)],
        "keep_shock": [(np.ones((c.m, 1)), I_t, np.ones((c.d, 1)),
                        np.ones((c.eps, 1)))],
    }


def _fold(terms: list) -> np.ndarray:
    """Sum of the terms' Kronecker products."""
    return reduce(np.add, (kron(*term) for term in terms))


def build_unit_blocks(config: ModelConfig) -> UnitBlocks:
    H = {name: _fold(terms) for name, terms in _terms(config).items()}
    keep_shock = H.pop("keep_shock")
    for label in "ABC":
        H[f"H{label}_p"] = H[f"H{label}"] @ keep_shock
    blocks = UnitBlocks(**H)
    residual = (blocks.H0 + blocks.HA + blocks.HB + blocks.HC).sum(axis=1)
    if np.max(np.abs(residual)) > 1e-10:
        raise ValueError(
            f"online-unit outflow does not balance, residual {np.max(np.abs(residual)):.2e}"
        )
    return blocks
