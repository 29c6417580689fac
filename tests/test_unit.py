"""Single-unit event blocks: outflow balance and the PM switch, on the
bundled model and on random valid models."""

from dataclasses import replace

import numpy as np
from hypothesis import HealthCheck, example, given, settings

from standbymmap.unit import build_unit_blocks

from example_model import example_fleet_config
from random_models import small_models

BUNDLED = example_fleet_config()

# each check runs on the bundled model, then on random small models
on_models = settings(max_examples=20, deadline=None,
                     suppress_health_check=[HealthCheck.too_slow])


@on_models
@given(small_models())
@example(BUNDLED)
def test_block_shapes(config):
    blocks = build_unit_blocks(config)
    c = config
    full = c.m * c.t * c.d * c.eps
    assert blocks.H0.shape == (full, full)
    assert blocks.HA.shape == (full, full)
    assert blocks.HA_p.shape == (full, c.t)
    assert blocks.HC_p.shape == (full, c.t)
    assert blocks.theta.shape == (c.t, full)
    assert blocks.shock_renewal.shape == (c.t, c.t)


@on_models
@given(small_models())
@example(BUNDLED)
def test_outflow_balance(config):
    """Diagonal block plus every event outflow is conservative, and so is
    the all-down core, whose restart theta keeps the mass of each row."""
    blocks = build_unit_blocks(config)
    total = (blocks.H0 + blocks.HA + blocks.HB + blocks.HC).sum(axis=1)
    assert np.max(np.abs(total)) < 1e-10
    assert np.max(np.abs(blocks.shock_renewal.sum(axis=1))) < 1e-10
    assert np.max(np.abs(blocks.theta.sum(axis=1) - 1.0)) < 1e-12


@on_models
@given(small_models())
@example(BUNDLED)
def test_primed_variants_balance_too(config):
    blocks = build_unit_blocks(config)
    total = (blocks.H0.sum(axis=1) + blocks.HA_p.sum(axis=1)
             + blocks.HB_p.sum(axis=1) + blocks.HC_p.sum(axis=1))
    assert np.max(np.abs(total)) < 1e-10


@on_models
@given(small_models())
@example(BUNDLED)
def test_event_blocks_are_nonnegative(config):
    blocks = build_unit_blocks(config)
    for mat in (blocks.HA, blocks.HB, blocks.HC,
                blocks.HA_p, blocks.HB_p, blocks.HC_p, blocks.theta):
        assert mat.min() >= 0.0


@on_models
@given(small_models())
@example(BUNDLED)
def test_disabling_pm_removes_major_inspections(config):
    """With PM off the grid drops the inspection phase: each row of the
    PM-on core, its targets summed over that phase, is the PM-off row of
    its (i, j, h), less the would-be inspection flow, which folds back
    onto the row's own (i, j, h)."""
    off = build_unit_blocks(replace(config, pm_enabled=False))
    on = build_unit_blocks(replace(config, pm_enabled=True))
    assert np.count_nonzero(off.HB) == 0
    size = len(off.H0)
    assert size * config.inspection.order == len(on.H0)
    lump = np.kron(np.eye(size), np.ones((config.inspection.order, 1)))
    gain = lump @ off.H0 - on.H0 @ lump
    assert gain.min() >= -1e-12 and gain.max() > 0
    np.testing.assert_allclose(gain * (lump == 0), 0.0, rtol=0, atol=1e-12)
    np.testing.assert_allclose(gain.sum(axis=1), on.HB.sum(axis=1),
                               rtol=0, atol=1e-12)
    for name in ("HA", "HC"):
        np.testing.assert_allclose(lump @ getattr(off, name),
                                   getattr(on, name) @ lump, rtol=0, atol=1e-12)


@on_models
@given(small_models())
@example(BUNDLED)
def test_pm_switch_preserves_conservation(config):
    blocks = build_unit_blocks(replace(config, pm_enabled=False))
    total = (blocks.H0 + blocks.HA + blocks.HB + blocks.HC).sum(axis=1)
    assert np.max(np.abs(total)) < 1e-10


@on_models
@given(small_models())
@example(BUNDLED)
def test_inspection_never_triggers_repair_in_good_minor_states(config):
    """A unit in its best internal phase with minor damage stays put."""
    c = replace(config, pm_enabled=True)
    HB = build_unit_blocks(c).HB
    # phase (i=0, j=*, h=0, u=*): first eps rows of the first t*d*eps block
    rows = [((0 * c.t + j) * c.d + 0) * c.eps + u
            for j in range(c.t) for u in range(c.eps)]
    assert np.count_nonzero(HB[rows]) == 0
