"""Hypothesis strategy for random valid models, shared by the tests that
check the matrix pipeline on models other than the bundled one."""

import numpy as np
from hypothesis import strategies as st

from standbymmap.config import CostBlock, ModelConfig
from standbymmap.ph import PhDistribution


def _positive(draw, size, lo=0.05, hi=1.0):
    return np.array(draw(st.lists(st.floats(lo, hi), min_size=size,
                                  max_size=size)))


def _distribution(draw, size):
    """Full-support probability vector."""
    w = _positive(draw, size)
    return w / w.sum()


def _stochastic_rows(draw, rows, cols):
    """Positive rows summing to one."""
    w = _positive(draw, rows * cols).reshape(rows, cols)
    return w / w.sum(axis=1, keepdims=True)


def _subgen(draw, order, exits):
    """Sub-generator whose rows lose exactly `exits` to absorption."""
    off = _positive(draw, order * order, 0.0, 1.0).reshape(order, order)
    np.fill_diagonal(off, 0.0)
    return off - np.diag(off.sum(axis=1) + exits)


def _ph(draw, order):
    return PhDistribution(_distribution(draw, order),
                          _subgen(draw, order, _positive(draw, order)))


@st.composite
def small_models(draw):
    """Random valid model: PH orders 1-3 (m, d >= 2), full-support initial
    vectors, every exit channel open, n <= 3, any R, PM on or off.  The
    fleet shrinks as the online unit's phase count P grows (n <= 3 for
    P <= 24, n <= 2 for P <= 36), which keeps each walk near a second."""
    m, d = draw(st.integers(2, 3)), draw(st.integers(2, 3))
    t, eps, v, z1, z2 = (draw(st.integers(1, 3)) for _ in range(5))
    phases = m * t * d * eps
    n = draw(st.integers(1, 3 if phases <= 24 else 2 if phases <= 36 else 1))
    exit_r, exit_nr = _positive(draw, m), _positive(draw, m)
    shock_rows = _stochastic_rows(draw, m, m + 2)
    damage_rows = _stochastic_rows(draw, d, d + 1)
    return ModelConfig(
        internal=PhDistribution(_distribution(draw, m),
                                _subgen(draw, m, exit_r + exit_nr)),
        internal_exit_repairable=exit_r,
        internal_exit_nonrepairable=exit_nr,
        minor_internal=draw(st.integers(1, m - 1)),
        shock=_ph(draw, t),
        total_failure_prob=draw(st.floats(0.05, 0.5)),
        shock_effect=shock_rows[:, :m],
        shock_repairable=shock_rows[:, m],
        shock_nonrepairable=shock_rows[:, m + 1],
        damage_init=_distribution(draw, d),
        damage_matrix=damage_rows[:, :d],
        damage_exit=damage_rows[:, d],
        minor_damage=draw(st.integers(1, d - 1)),
        inspection=_ph(draw, eps),
        vacation=_ph(draw, v),
        corrective=_ph(draw, z1),
        preventive=_ph(draw, z2),
        units=n,
        vacation_threshold=draw(st.integers(1, n)),
        pm_enabled=draw(st.booleans()),
        # every scalar cost, then every per-phase cost vector
        costs=CostBlock(*_positive(draw, 8, 0.05, 10.0),
                        operational=_positive(draw, m),
                        damage=_positive(draw, d),
                        corrective=_positive(draw, z1),
                        preventive=_positive(draw, z2)),
    )
