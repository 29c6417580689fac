"""Exact per-label oracle: the nine assembled generators and the profit's
reward vector and cost table against the simulator's labelled transition
rows and its own event costs.

Every state the simulator can reach from its initial states is visited
breadth-first; each state's outcome distribution is turned into rows of the
nine labelled generators and compared entry by entry with the assembled
ones, over random valid models with random positive costs.  The state's
reward rate is compared with nr - nc, and each label's fixed cost with
economics.event_costs.  Each reached state's row of the layout's state
table is compared with the state itself, and the initial distribution with
the product of the clocks' start vectors on the simulator's initial states.
The simulator is built from the event semantics alone, so this checks the
Kronecker blocks (the derived primed unit blocks included) on models other
than the bundled one.
"""

from collections import deque
from dataclasses import replace

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import HealthCheck, Phase, given, settings

from standbymmap.assembler import ARRIVAL_LABELS, EVENT_LABELS, label_matrices
from standbymmap.economics import build_nc, build_nr, event_costs
from standbymmap.ph import PhDistribution, renewal_stationary
from standbymmap.simulator import FleetSimulator
from standbymmap.solvers import initial_distribution
from standbymmap.statespace import enumerate_states

from example_model import example_fleet_config
from random_models import small_models
from simstates import global_index, initial_states

ATOL = 1e-12


def simulator_generators(sim, layout):
    """The nine labelled generators read off the simulator's rows, over the
    states reachable from the initial ones; also the global index of each
    reached state and the reward rate of each reached index."""
    entries = {label: ([], [], []) for label in EVENT_LABELS}
    index = {}      # reached state -> global index
    rewards = {}    # reached index -> reward rate
    todo = deque()

    def reach(state):
        if state not in index:
            index[state] = global_index(layout, state)
            todo.append(state)
        return index[state]

    for state in initial_states(sim.c):
        reach(state)
    while todo:
        state = todo.popleft()
        i = index[state]
        row = sim.row(state)
        rewards[i] = row.reward
        rates = row.total * np.diff(row.cum, prepend=0.0)
        for rate, target, event in zip(rates, row.targets, row.events):
            rows, cols, vals = entries[event or "O"]
            rows.append(i)
            cols.append(reach(target))
            vals.append(rate)
        rows, cols, vals = entries["O"]
        rows.append(i)
        cols.append(i)
        vals.append(-row.total)
    shape = (layout.total, layout.total)
    mats = {label: sp.csr_matrix((vals, (rows, cols)), shape=shape)
            for label, (rows, cols, vals) in entries.items()}
    return mats, index, rewards


def check_state_table(config, layout, index):
    """Assert that the state table row of every reached state reads the
    state's macro-state and phases (-1 where it carries none), and that
    the initial distribution is alpha_i pi_j omega_h eta_u upsilon_w on
    the initial states and 0 elsewhere."""
    names = ("k", "s", "vacation", "head", "i", "j", "h", "u", "w")
    for state, i in index.items():
        row = layout.states[i]
        head = state.queue[0] if state.queue else -1
        phases = [-1 if p is None else p for p in state[4:]]
        assert tuple(row[name] for name in names) == (
            state.k, state.s, state.on_vacation, head, *phases), state
        assert layout.key_of(i).queue == state.queue, state
    c = config
    pi_shock = renewal_stationary(c.shock)
    expected = np.zeros(layout.total)
    for st in initial_states(config):
        expected[index[st]] = (c.internal.init[st.internal]
                               * pi_shock[st.shock]
                               * c.damage_init[st.damage]
                               * c.inspection.init[st.inspection]
                               * c.vacation.init[st.clock])
    np.testing.assert_allclose(initial_distribution(config, layout),
                               expected, rtol=1e-14, atol=0)


def check_against_simulator(config, layout):
    """Assert that every labelled generator row, the reward rate nr - nc of
    every reached state and the fixed cost of every label agree with the
    simulator, and check the state table and the initial distribution;
    return the reached indices."""
    assembled = label_matrices(config, layout)
    sim = FleetSimulator(config)
    mats, index, rewards = simulator_generators(sim, layout)
    check_state_table(config, layout, index)
    rows = sorted(rewards)
    for label in EVENT_LABELS:
        gap = abs(assembled[label][rows] - mats[label][rows]).max()
        assert gap <= ATOL, f"label {label}: max entry gap {gap:.3e}"
    net = build_nr(config, layout) - build_nc(config, layout)
    gap = np.max(np.abs(net[rows] - [rewards[i] for i in rows]))
    assert gap <= ATOL, f"reward rate: max gap {gap:.3e}"
    for label, cost in zip(ARRIVAL_LABELS, event_costs(config)):
        assert cost == sim._event_costs.get(label, 0.0), f"cost of label {label}"
    return set(rows)


# no shrink phase: each example re-walks the chain, so shrinking a failure
# takes minutes; the first failing model is reported as drawn
@settings(max_examples=20, deadline=None,
          phases=(Phase.explicit, Phase.reuse, Phase.generate),
          suppress_health_check=[HealthCheck.too_slow])
@given(small_models())
def test_every_label_matches_the_simulator_rows(config):
    layout = enumerate_states(config)
    reached = check_against_simulator(config, layout)
    # every layout state is reached, with PM on or off
    assert reached == set(range(layout.total))


BUNDLED_CASES = [pytest.param(R, pm, None, id=f"{R}-{pm}")
                 for pm in (True, False) for R in (1, 3, 4)]
# The bundled corrective and preventive repairs start in the same phase, so
# a builder that starts the wrong queue head's service only shows when the
# preventive initial vector differs.
BUNDLED_CASES += [pytest.param(R, True, [0.0, 0.6, 0.4],
                               id=f"{R}-True-preventive-init")
                  for R in (3, 4)]


@pytest.mark.parametrize("R,pm,preventive_init", BUNDLED_CASES)
def test_bundled_model_matches_the_simulator_rows_at_four_units(
        R, pm, preventive_init):
    """The hypothesis models stop at n = 3; this checks queues of length 4."""
    config = example_fleet_config(units=4, vacation_threshold=R, pm_enabled=pm)
    if preventive_init is not None:
        config = replace(config, preventive=PhDistribution(
            np.array(preventive_init), config.preventive.subgen))
    layout = enumerate_states(config)
    reached = check_against_simulator(config, layout)
    assert reached == set(range(layout.total))
