"""Simulation oracle: reproducibility, semantics, generator equivalence."""

import gc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from standbymmap import simulator
from standbymmap.assembler import assemble_all
from standbymmap.cli import validation_to_text
from standbymmap.ph import PhDistribution
from standbymmap.simulator import (FleetSimulator, SimulationError, simulate,
                                   validate)
from standbymmap.statespace import enumerate_states

from example_model import example_fleet_config
from random_models import small_models
from simstates import (ReferenceRows, global_index, reachable_states,
                       reference_run, sim_state_of)


@pytest.mark.parametrize("n,R", [(2, 1), (2, 2)])
def test_rows_match_the_assembled_generator(n, R):
    """Per-state exit rates and targets agree with D entry by entry."""
    config = example_fleet_config(units=n, vacation_threshold=R)
    layout = enumerate_states(config)
    D = assemble_all(config, layout, validate=False).total.tocsr()
    sim = FleetSimulator(config)
    rng = np.random.default_rng(11)
    for index in rng.integers(0, layout.total, size=60):
        index = int(index)
        st = sim_state_of(layout, index)
        row = sim.row(st)
        flows = {}
        probs = np.diff(row.cum, prepend=0.0)
        for rate, target in zip(row.total * probs, row.targets):
            tgt = global_index(layout, target)
            flows[tgt] = flows.get(tgt, 0.0) + rate
        dense = np.zeros(layout.total)
        dense[list(flows)] = list(flows.values())
        expected = D[index].toarray().ravel()
        self_rate = dense[index]
        dense[index] = 0.0
        off = expected.copy()
        off[index] = 0.0
        np.testing.assert_allclose(dense, off, atol=1e-10)
        # the total exit rate matches the generator diagonal
        assert row.total - self_rate == pytest.approx(-expected[index], abs=1e-10)


def assert_rows_match_the_reference(config):
    """Every reachable row, built from the outcome templates, is the row
    the per-state builders expand, bit for bit."""
    sim, reference = FleetSimulator(config), ReferenceRows(config)
    for state in reachable_states(config):
        row = sim.row(state)
        assert (row.total, row.cum, row.targets, row.events,
                row.reward) == reference.row(state), state


def preventive_init_config():
    """(4, 4, PM on) with a preventive repair that starts in another phase
    than the corrective one, so the queue head's service start shows."""
    config = example_fleet_config(units=4, vacation_threshold=4)
    return replace(config, preventive=PhDistribution(
        np.array([0.0, 0.6, 0.4]), config.preventive.subgen))


def no_nonrepairable_config():
    """The example fleet with every non-repairable path closed: internal
    and shock failures all repairable, and a damage chain that never
    exits."""
    c = example_fleet_config()
    return replace(
        c,
        internal_exit_repairable=(c.internal_exit_repairable
                                  + c.internal_exit_nonrepairable),
        internal_exit_nonrepairable=np.zeros(c.m),
        total_failure_prob=0.0,
        shock_repairable=c.shock_repairable + c.shock_nonrepairable,
        shock_nonrepairable=np.zeros(c.m),
        damage_matrix=np.array([[0.0, 1.0], [0.0, 1.0]]),
        damage_exit=np.zeros(2),
    )


def no_repairable_shock_config():
    """The example fleet with every shock failure non-repairable."""
    c = example_fleet_config()
    return replace(c, shock_repairable=np.zeros(c.m),
                   shock_nonrepairable=(c.shock_repairable
                                        + c.shock_nonrepairable))


@pytest.mark.parametrize("make", [
    lambda: example_fleet_config(pm_enabled=True),
    lambda: example_fleet_config(pm_enabled=False),
    preventive_init_config,
    # the shock exit's closed branches: no total failure, every shock a
    # total failure (nothing left for damage or effects), neither
    # non-repairable shock failures nor damage exits, and no repairable
    # shock failures
    lambda: replace(example_fleet_config(), total_failure_prob=0.0),
    lambda: replace(example_fleet_config(), total_failure_prob=1.0),
    no_nonrepairable_config,
    no_repairable_shock_config,
], ids=["pm-on", "pm-off", "preventive-init", "omega0-0", "omega0-1",
        "no-nonrepairable", "no-repairable-shock"])
def test_rows_match_the_per_state_builders(make):
    assert_rows_match_the_reference(make())


@settings(max_examples=6, deadline=None)
@given(small_models())
def test_rows_match_the_per_state_builders_on_random_models(config):
    assert_rows_match_the_reference(config)


def rows_that_raise(sim, states):
    raised = []
    for state in states:
        try:
            sim.row(state)
        except SimulationError:
            raised.append(state)
    return raised


def test_an_invalid_target_fails_every_row_that_reaches_it(monkeypatch):
    """Targets are checked once each, but only a target that passed is
    remembered: a vacation that ends without a clock phase fails every
    row where the vacation clock can end."""
    config = example_fleet_config()
    states = reachable_states(config)
    monkeypatch.setattr(FleetSimulator, "_vacation_outcomes",
                        lambda self, state: [
                            (1.0, state._replace(clock=None), "E")])
    sim = FleetSimulator(config)
    ends = config.vacation.exit_vector
    expected = [state for state in states
                if state.on_vacation and ends[state.clock] > 0]
    assert len(expected) > 1
    assert rows_that_raise(sim, states) == expected
    assert all(state.clock is not None for state in sim._valid
               if state.on_vacation)


def test_a_renewal_from_more_than_one_unit_fails_every_row(monkeypatch):
    """Losing the online unit labelled NS is a fleet renewal from k > 1
    on every row but those with k = 1."""
    drop = FleetSimulator._drop_unit
    monkeypatch.setattr(FleetSimulator, "_drop_unit", lambda self, state: [
        (p, target, "NS") for p, target, _ in drop(self, state)])
    config = example_fleet_config()
    states = reachable_states(config)
    expected = [state for state in states
                if state.s < state.k and state.k != 1]
    assert len(expected) > 1
    assert rows_that_raise(FleetSimulator(config), states) == expected


def test_a_vacation_start_that_leaves_other_than_n_minus_one_fails(
        monkeypatch):
    """Every service completion labelled F must leave N - 1 units in the
    facility; each row where one does not fails."""
    service = FleetSimulator._service_outcomes
    monkeypatch.setattr(FleetSimulator, "_service_outcomes",
                        lambda self, state: [
                            (p, target, "F")
                            for p, target, _ in service(self, state)])
    config = example_fleet_config()
    states = reachable_states(config)
    sim = FleetSimulator(config)
    services = (None, config.corrective.exit_vector,
                config.preventive.exit_vector)
    expected = [state for state in states
                if not state.on_vacation and state.s >= 1
                and services[state.queue[0]][state.clock] > 0
                and state.s - 1 != sim.N[state.k] - 1]
    assert len(expected) > 1
    assert rows_that_raise(sim, states) == expected


def test_seed_reproducibility():
    config = example_fleet_config()
    a = simulate(config, horizon=2000.0, replications=2, seed=5)
    b = simulate(config, horizon=2000.0, replications=2, seed=5)
    assert a == b


def test_different_seeds_differ():
    config = example_fleet_config()
    a = simulate(config, horizon=2000.0, replications=1, seed=1)
    b = simulate(config, horizon=2000.0, replications=1, seed=2)
    assert a.availability.mean != b.availability.mean


def test_zero_horizon_is_an_error():
    # a batch of infinite or NaN length would never end
    for horizon in (0.0, float("nan"), float("inf")):
        with pytest.raises(ValueError):
            simulate(example_fleet_config(), horizon=horizon)
    with pytest.raises(ValueError):
        simulate(example_fleet_config(), horizon=1000.0, replications=0)
    with pytest.raises(ValueError):
        simulate(example_fleet_config(), horizon=1000.0, threads=0)


def test_seeded_run_is_pinned():
    """A reordered row or RNG stream moves these figures."""
    report = simulate(example_fleet_config(2, 1), horizon=2000.0,
                      replications=2, seed=5)
    pinned = {"A": 0.036750000000000005, "B": 0.00575, "C": 0.01125,
              "D": 0.042499999999999996, "CD": 0.0, "E": 0.26675,
              "F": 0.042499999999999996, "NS": 0.010750000000000001}
    assert report.availability.mean == pytest.approx(0.6558578513543669,
                                                     rel=1e-12)
    assert report.profit.mean == pytest.approx(-3.566679273189328, rel=1e-12)
    assert {e: est.mean for e, est in report.event_rates.items()} == (
        pytest.approx(pinned, rel=1e-12, abs=0.0))


def test_seeded_bundled_run_is_pinned():
    """The bundled fleet caches about 2k rows, so the batch-end fold sums
    many of them; these figures were taken with per-jump accumulation."""
    report = simulate(example_fleet_config(), horizon=2e4,
                      replications=2, seed=5)
    pinned = {"A": 0.0487, "B": 0.006075, "C": 0.016325, "D": 0.0161,
              "CD": 0.003875, "E": 0.0959, "F": 0.013225, "NS": 0.006725}
    assert report.availability.mean == pytest.approx(0.8139705917681459,
                                                     rel=1e-12)
    assert report.profit.mean == pytest.approx(7.245328177171089, rel=1e-12)
    assert {e: est.mean for e, est in report.event_rates.items()} == (
        pytest.approx(pinned, rel=1e-12, abs=0.0))
    assert len(report.occupancy) == 20


def test_run_does_not_depend_on_cache_history():
    """A cache warmed by another seed holds its rows in another order; the
    batch fold must not see it."""
    config = example_fleet_config()
    warm = FleetSimulator(config)
    warm.run(5000.0, np.random.default_rng(8))
    fresh = FleetSimulator(config)
    assert (warm.run(5000.0, np.random.default_rng(3))
            == fresh.run(5000.0, np.random.default_rng(3)))


@pytest.mark.parametrize("make", [
    lambda: example_fleet_config(2, 1),
    lambda: example_fleet_config(pm_enabled=False),
], ids=["2-1", "pm-off"])
def test_fold_ignores_the_order_rows_were_cached_in(make):
    """Every reachable row cached first, in reverse state order: the batch
    fold must sort the cache, not take it as it comes."""
    config = make()
    warm = FleetSimulator(config)
    for state in sorted(reachable_states(config), key=simulator._state_order,
                        reverse=True):
        warm.row(state)
    fresh = FleetSimulator(config)
    assert (warm.run(2e4, np.random.default_rng(3))
            == fresh.run(2e4, np.random.default_rng(3)))


def test_each_batch_folds_exactly_its_own_time():
    """Occupancy covers each batch once: no dwell carried over from the
    batch before, no residual sojourn lost at the batch end."""
    batches = FleetSimulator(example_fleet_config()).run(
        2e4, np.random.default_rng(5))
    for batch in batches:
        occ = batch["occ"]
        assert sum(occ.values()) == pytest.approx(1.0, abs=1e-12)
        up = sum(v for (k, s, _), v in occ.items() if s < k)
        assert batch["up"] == pytest.approx(up, abs=1e-12)


def assert_walk_matches_reference(config, horizon, seed):
    """The span walk gives the per-jump loop's batches, bit for bit."""
    walked = FleetSimulator(config).run(horizon, np.random.default_rng(seed))
    stepped = reference_run(FleetSimulator(config), horizon,
                            np.random.default_rng(seed))
    assert walked == stepped


@pytest.mark.parametrize("pm", [True, False])
@pytest.mark.parametrize("horizon", [
    1e-3,       # every batch ends inside its first sojourn
    2e4,
    1e5,        # about 93k draws: six chunks
])
def test_walk_matches_the_per_jump_loop(pm, horizon):
    assert_walk_matches_reference(example_fleet_config(pm_enabled=pm),
                                  horizon, seed=5)


def test_walk_builds_few_rows_past_the_batch_ends():
    """Spans are cut to the draws a batch is expected to have left, so at
    a horizon of about 100 draws a batch the walk builds nearly only the
    rows the per-jump loop visits."""
    walked, stepped = (FleetSimulator(example_fleet_config())
                       for _ in range(2))
    walked.run(2e3, np.random.default_rng(5))
    reference_run(stepped, 2e3, np.random.default_rng(5))
    assert len(stepped._rows) <= len(walked._rows) <= 1.1 * len(stepped._rows)


@pytest.mark.parametrize("span", [1, 3])
def test_walk_matches_the_per_jump_loop_with_batch_ends_on_span_edges(
        monkeypatch, span):
    """With spans of one or three draws many batch ends fall on the first
    or last draw of a span."""
    monkeypatch.setattr(simulator, "_SPAN", span)
    assert_walk_matches_reference(example_fleet_config(), 2e3, seed=7)
    assert_walk_matches_reference(example_fleet_config(2, 1), 1e-2, seed=7)


@settings(max_examples=6, deadline=None)
@given(small_models(), st.integers(0, 2**32 - 1))
def test_walk_matches_the_per_jump_loop_on_random_models(config, seed):
    assert_walk_matches_reference(config, 2e3, seed)


def test_no_nonrepairable_channel_means_no_renewals():
    """Closing every non-repairable path keeps the fleet alive forever."""
    report = simulate(no_nonrepairable_config(), horizon=20000.0,
                      replications=2, seed=3)
    for name in ("C", "CD", "NS"):
        assert report.event_rates[name].mean == 0.0
    assert report.rates["nonrepairable"].mean == 0.0


def test_occupancy_estimates_sum_to_one():
    report = simulate(example_fleet_config(), horizon=5000.0,
                      replications=2, seed=9)
    total = sum(est.mean for est in report.occupancy.values())
    assert total == pytest.approx(1.0, abs=1e-9)


def test_threaded_run_matches_sequential():
    """With three replications one worker runs two seeds in turn on one
    simulator, and the runs must come back in seed order."""
    config = example_fleet_config(units=2, vacation_threshold=1)
    seq = simulate(config, horizon=1500.0, replications=3, seed=4)
    par = simulate(config, horizon=1500.0, replications=3, seed=4, threads=2)
    assert seq == par


def test_simulate_frees_its_row_cache():
    """Cached rows link to each other; left linked, every call would leave
    its cache as cyclic garbage until a full collection."""
    gc.collect()
    gc.disable()
    try:
        simulate(example_fleet_config(), horizon=2000.0, replications=2,
                 seed=1)
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_validate_flags_a_shifted_quantity():
    config = example_fleet_config()
    report = simulate(config, horizon=20000.0, replications=4, seed=0)
    good = {"availability": report.availability.mean}
    assert validate(good, report).passed
    bad = {"availability": report.availability.mean + 0.05}
    result = validate(bad, report)
    assert not result.passed
    assert "FAIL" in validation_to_text(result)


def test_validation_table_names_its_band_width():
    report = simulate(example_fleet_config(), horizon=500.0,
                      replications=2, seed=0)
    header = validation_to_text(validate(
        {"availability": report.availability.mean}, report,
        width=4.0)).splitlines()[0]
    assert "4 s.e." in header and "3 s.e." not in header


def test_validate_rejects_unknown_quantities():
    report = simulate(example_fleet_config(), horizon=500.0,
                      replications=1, seed=0)
    with pytest.raises(KeyError):
        validate({"nonsense": 1.0}, report)
