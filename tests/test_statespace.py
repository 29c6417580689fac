"""State-space enumeration: sizes, ordering and index round trips."""

import numpy as np
import pytest

from standbymmap.statespace import (MacroStateKey, StateSpaceLayout,
                                    enumerate_states)

from example_model import example_fleet_config


def hand_count(config):
    """Macro-state sizes written out from the construction rules."""
    c = config
    full = c.m * c.t * c.d * c.eps
    # PM on: 2**s queues, head z1 or z2; PM off: 1**s queues, head z1
    marks, zsum = (2, c.z[1] + c.z[2]) if c.pm_enabled else (1, c.z[1])
    total = 0
    for k in range(1, c.units + 1):
        if k >= c.vacation_threshold:
            N = k - c.vacation_threshold + 1
            for s in range(k + 1):  # on vacation
                total += (marks ** s) * (full if s < k else c.t) * c.v
            for s in range(N, k + 1):  # at the facility
                total += marks ** (s - 1) * zsum * (full if s < k else c.t)
        else:
            total += full  # s = 0, idle
            for s in range(1, k + 1):
                total += marks ** (s - 1) * zsum * (full if s < k else c.t)
    return total


@pytest.mark.parametrize("n,R", [(4, 3), (4, 4), (4, 1), (3, 2), (2, 1), (1, 1)])
def test_total_matches_hand_count(n, R):
    for pm in (True, False):
        config = example_fleet_config(units=n, vacation_threshold=R,
                                      pm_enabled=pm)
        assert enumerate_states(config).total == hand_count(config), pm


def test_reference_dimension():
    # four units, threshold three, Erlang vacation: the worked example size
    assert enumerate_states(example_fleet_config()).total == 3668


@pytest.mark.parametrize("n,pm,total", [
    (4, True, 3668), (5, True, 8276), (6, True, 17556),
    (4, False, 1024), (5, False, 1546), (6, False, 2132)])
def test_state_counts_at_threshold_three(n, pm, total):
    # with PM off only the queues without a preventive mark are counted
    config = example_fleet_config(units=n, vacation_threshold=3, pm_enabled=pm)
    assert enumerate_states(config).total == total


def test_levels_partition_the_space():
    layout = enumerate_states(example_fleet_config())
    stops = []
    for k in range(layout.n, 0, -1):
        start, stop = layout.k_span(k)
        if stops:
            assert start == stops[-1]
        else:
            assert start == 0
        stops.append(stop)
    assert stops[-1] == layout.total


def test_blocks_partition_each_level():
    layout = enumerate_states(example_fleet_config())
    for k in range(layout.n, 0, -1):
        pos = layout.k_span(k)[0]
        for s, x in layout.second_level_keys(k):
            start, stop = layout.span(k, s, x)
            assert start == pos
            pos = stop
        assert pos == layout.k_span(k)[1]


def test_vacation_blocks_only_at_or_above_threshold():
    layout = enumerate_states(example_fleet_config(units=4, vacation_threshold=2))
    for (k, s, x) in layout.macro_keys():
        if x == "v":
            assert k >= 2
        elif k >= 2:
            assert s >= k - 2 + 1


def test_queue_order_is_lexicographic():
    on = StateSpaceLayout(example_fleet_config(pm_enabled=True))
    off = StateSpaceLayout(example_fleet_config(pm_enabled=False))
    assert on.marks == (1, 2) and off.marks == (1,)
    assert on.queues(2) == [(1, 1), (1, 2), (2, 1), (2, 2)]
    # with PM off no preventive repair is ever queued
    assert off.queues(2) == [(1, 1)]
    assert on.queues(0) == off.queues(0) == [()]


def test_decode_round_trip():
    layout = enumerate_states(example_fleet_config(units=3, vacation_threshold=2))
    rng = np.random.default_rng(3)
    for idx in rng.integers(0, layout.total, size=64):
        key, phases = layout.decode(int(idx))
        assert len(key.queue) == key.s
        start, stop = layout.span(key.k, key.s, key.x, key.queue)
        assert start <= idx < stop
        dims = layout.phase_dims(key.k, key.s, key.x, key.queue)
        assert len(phases) == len(dims)
        assert all(1 <= p <= dim for p, dim in zip(phases, dims))  # 1-based


@pytest.mark.parametrize("n,R,pm", [(4, 3, True), (3, 2, False)])
def test_state_table_reads_each_queue_and_phase(n, R, pm):
    """The queue column gives key_of, the phase columns are compact and
    read -1 where a state carries no such phase."""
    layout = enumerate_states(example_fleet_config(n, R, pm))
    st = layout.states
    assert all(st[name].dtype == np.int8 for name in "ijhuw")
    for q, (key, start, stop) in enumerate(layout.queue_spans()):
        assert np.all(st["queue"][start:stop] == q)
        assert layout.key_of(start) == layout.key_of(stop - 1) == key
    down = st["s"] == st["k"]
    for name in "ihu":
        assert np.all((st[name] == -1) == down)
    assert np.all((st["w"] == -1) == (~st["vacation"] & (st["s"] == 0)))
    assert np.all((st["head"] == -1) == (st["s"] == 0))


def test_all_down_states_track_only_the_shock_clock():
    config = example_fleet_config()
    layout = enumerate_states(config)
    for (k, s, x) in layout.macro_keys():
        if s != k:
            continue
        for queue in layout.queues(s):
            dims = layout.phase_dims(k, s, x, queue)
            head = config.v if x == "v" else config.z[queue[0]]
            assert dims == (config.t, head)


@pytest.mark.parametrize("n,R,pm", [(4, 3, True), (3, 2, False)])
def test_prefix_spans_partition_each_block(n, R, pm):
    layout = enumerate_states(example_fleet_config(n, R, pm))
    queue_span = {key: (start, stop)
                  for key, start, stop in layout.queue_spans()}
    for (k, s, x) in layout.macro_keys():
        whole = layout.span(k, s, x)
        assert whole == layout.span(k, s, x, ())
        for length in range(s + 1):
            # the prefixes of one length tile the block in lexicographic order
            pos = whole[0]
            for prefix in layout.queues(length):
                start, stop = layout.span(k, s, x, prefix)
                assert start == pos and stop > start
                pos = stop
            assert pos == whole[1]
        for queue in layout.queues(s):
            key = MacroStateKey(k, s, x, queue)
            assert layout.span(k, s, x, queue) == queue_span[key]
        with pytest.raises(KeyError):
            layout.span(k, s, x, (1,) * (s + 1))
        if s:
            for mark in (0, 3) if pm else (0, 2, 3):
                with pytest.raises(KeyError):
                    layout.span(k, s, x, (mark,))
