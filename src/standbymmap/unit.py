"""Transition blocks of the online unit.

The online unit lives on the phase grid (internal, shock, damage, inspection).
Its outflow splits into four labelled channels: repairable failure (A),
positive inspection sending the unit to preventive maintenance (B),
non-repairable failure (C) and everything else (O, block H0).  The primed
variants of A/B/C apply when the failing unit is the last operational one,
so no fresh unit is re-initialised and only the shock clock survives: each
is derived from its unprimed block by summing the target columns over every
phase but the shock clock, H' = H (1_m (x) I_t (x) 1_d (x) 1_eps).
"""

from dataclasses import dataclass

import numpy as np

from .config import ModelConfig
from .ph import kron_sum


@dataclass(frozen=True)
class UnitBlocks:
    """Event blocks of the online unit on the (i, j, h, u) phase grid."""

    H0: np.ndarray
    HA: np.ndarray
    HB: np.ndarray
    HC: np.ndarray
    HA_p: np.ndarray   # primed variants: columns collapse to the shock clock
    HB_p: np.ndarray
    HC_p: np.ndarray


def build_selectors(config: ModelConfig):
    """Minor/major diagonal selectors for internal (U1, U2) and damage (V1, V2).

    Minor phases are 1..minor_internal (resp. 1..minor_damage); the selectors
    partition the diagonal, so U1 + U2 = I and V1 + V2 = I.
    """
    m, d = config.m, config.d
    u1 = np.zeros(m)
    u1[:config.minor_internal] = 1.0
    v1 = np.zeros(d)
    v1[:config.minor_damage] = 1.0
    return np.diag(u1), np.diag(1.0 - u1), np.diag(v1), np.diag(1.0 - v1)


def _shock_pieces(config: ModelConfig):
    """Shock-arrival factors shared by all event blocks."""
    L0 = config.shock.exit_vector
    gamma = config.shock.init
    renew = np.outer(L0, gamma)                     # L0 gamma
    return renew * (1 - config.total_failure_prob), renew * config.total_failure_prob


def build_HC(config: ModelConfig) -> np.ndarray:
    """Non-repairable failure channel of the online unit."""
    t, d = config.t, config.d
    alpha = config.internal.init
    omega = config.damage_init
    eta = config.inspection.init
    shock_sub, shock_total = _shock_pieces(config)
    dam_stay = config.damage_matrix.sum(axis=1)     # D 1
    internal_f = np.outer(config.internal_exit_nonrepairable, alpha)
    wnr_f = np.outer(config.shock_nonrepairable, alpha)
    any_f = np.outer(np.ones(config.m), alpha)
    dam_restart = np.outer(np.ones(d), omega)
    core = (np.kron(np.kron(internal_f, np.eye(t)), dam_restart)
            + np.kron(np.kron(wnr_f, shock_sub), np.outer(dam_stay, omega))
            + np.kron(np.kron(any_f, shock_sub), np.outer(config.damage_exit, omega))
            + np.kron(np.kron(any_f, shock_total), dam_restart))
    return np.kron(core, np.outer(np.ones(config.eps), eta))


def build_HA(config: ModelConfig) -> np.ndarray:
    """Repairable failure channel of the online unit."""
    t, d = config.t, config.d
    alpha = config.internal.init
    omega = config.damage_init
    eta = config.inspection.init
    shock_sub, _ = _shock_pieces(config)
    dam_stay = config.damage_matrix.sum(axis=1)
    core = (np.kron(np.kron(np.outer(config.internal_exit_repairable, alpha),
                            np.eye(t)),
                    np.outer(np.ones(d), omega))
            + np.kron(np.kron(np.outer(config.shock_repairable, alpha), shock_sub),
                      np.outer(dam_stay, omega)))
    return np.kron(core, np.outer(np.ones(config.eps), eta))


def build_HB(config: ModelConfig) -> np.ndarray:
    """Major-inspection channel (preventive maintenance trigger)."""
    m, t, d, eps = config.m, config.t, config.d, config.eps
    if not config.pm_enabled:
        return np.zeros((m * t * d * eps, m * t * d * eps))
    U1, U2, _, V2 = build_selectors(config)
    alpha = config.internal.init
    omega = config.damage_init
    insp = np.outer(config.inspection.exit_vector, config.inspection.init)
    return (np.kron(np.kron(np.kron(np.outer(U2 @ np.ones(m), alpha), np.eye(t)),
                            np.outer(np.ones(d), omega)), insp)
            + np.kron(np.kron(np.kron(np.outer(U1 @ np.ones(m), alpha), np.eye(t)),
                              np.outer(V2 @ np.ones(d), omega)), insp))


def build_H0(config: ModelConfig) -> np.ndarray:
    """No-event block: internal/shock/inspection phase moves, harmless shocks
    and negative inspections."""
    t, d, eps = config.t, config.d, config.eps
    U1, U2, V1, V2 = build_selectors(config)
    shock_sub, _ = _shock_pieces(config)
    insp = np.outer(config.inspection.exit_vector, config.inspection.init)

    h0 = (np.kron(np.kron(kron_sum(config.internal.subgen, config.shock.subgen),
                          np.eye(d)), np.eye(eps))
          + np.kron(np.eye(config.m * t * d), config.inspection.subgen)
          + np.kron(np.kron(np.kron(config.shock_effect, shock_sub),
                            config.damage_matrix), np.eye(eps))
          + np.kron(np.kron(np.kron(U1, np.eye(t)), V1), insp))
    if not config.pm_enabled:
        # Major findings are ignored: the inspection renews, phases persist.
        h0 = h0 + (np.kron(np.kron(np.kron(U2, np.eye(t)), np.eye(d)), insp)
                   + np.kron(np.kron(np.kron(U1, np.eye(t)), V2), insp))
    return h0


def build_unit_blocks(config: ModelConfig) -> UnitBlocks:
    HA, HB, HC = build_HA(config), build_HB(config), build_HC(config)
    # 1_m (x) I_t (x) 1_d (x) 1_eps: sums each target (i, j, h, u) over every
    # phase but the shock clock j, which alone survives the loss of the last
    # operational unit
    keep_shock = np.kron(np.kron(np.kron(np.ones((config.m, 1)), np.eye(config.t)),
                                 np.ones((config.d, 1))), np.ones((config.eps, 1)))
    blocks = UnitBlocks(H0=build_H0(config), HA=HA, HB=HB, HC=HC,
                        HA_p=HA @ keep_shock, HB_p=HB @ keep_shock,
                        HC_p=HC @ keep_shock)
    residual = (blocks.H0 + blocks.HA + blocks.HB + blocks.HC).sum(axis=1)
    if np.max(np.abs(residual)) > 1e-10:
        raise ValueError(
            f"online-unit outflow does not balance, residual {np.max(np.abs(residual)):.2e}"
        )
    return blocks
