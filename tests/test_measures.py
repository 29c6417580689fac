"""Occupancy, availability and event rates on the reference system."""

import numpy as np
import pytest

from standbymmap.cli import occupancy_to_csv
from standbymmap.measures import (RATE_LABELS, availability_stationary,
                                  event_rates_stationary, occupancy)
from standbymmap.solvers import initial_distribution, transient_integral

# Published occupancy of the optimal four-unit system, 4 decimals.
PSI_VACATION = {
    (4, 0): 0.0677, (4, 1): 0.0847, (4, 2): 0.0096, (4, 3): 0.0008,
    (4, 4): 0.0001,
    (3, 0): 0.0963, (3, 1): 0.0159, (3, 2): 0.0015, (3, 3): 0.0001,
}
PSI_FACILITY = {
    (4, 2): 0.0301, (4, 3): 0.0149, (4, 4): 0.0071,
    (3, 1): 0.0566, (3, 2): 0.0364, (3, 3): 0.0203,
    (2, 0): 0.1330, (2, 1): 0.0724, (2, 2): 0.0402,
    (1, 0): 0.2012, (1, 1): 0.1112,
}
REFERENCE_RATES = {
    "repairable": 0.0487,
    "major_inspection": 0.0064,
    "nonrepairable": 0.0261,
    "returns": 0.0191,
    "returns_empty": 0.0985,
    "vacations_after_repair": 0.0125,
    "new_systems": 0.0065,
}


def test_occupancy_sums_to_one(optimal_pi, optimal_gens):
    table = occupancy(optimal_pi, optimal_gens.layout)
    assert sum(table.psi.values()) == pytest.approx(1.0)
    assert all(v >= 0 for v in table.psi.values())


def test_occupancy_matches_published_values(optimal_pi, optimal_gens):
    table = occupancy(optimal_pi, optimal_gens.layout)
    for (k, s), val in PSI_VACATION.items():
        assert table.psi[(k, s, "v")] == pytest.approx(val, abs=5e-4)
    for (k, s), val in PSI_FACILITY.items():
        assert table.psi[(k, s, "nv")] == pytest.approx(val, abs=5e-4)


def test_availability_reference_value(optimal_pi, optimal_gens):
    a = availability_stationary(optimal_pi, optimal_gens.layout)
    assert a == pytest.approx(0.8210, abs=5e-4)


def test_availability_complements_down_time(optimal_pi, optimal_gens):
    table = occupancy(optimal_pi, optimal_gens.layout)
    down = sum(v for (k, s, x), v in table.psi.items() if s == k)
    a = availability_stationary(optimal_pi, optimal_gens.layout)
    assert a + down == pytest.approx(1.0)


def test_event_rates_match_published_values(optimal_pi, optimal_gens):
    rates = event_rates_stationary(optimal_pi, optimal_gens).as_dict()
    for name, val in REFERENCE_RATES.items():
        assert rates[name] == pytest.approx(val, abs=5e-4), name


def test_rate_aggregation_labels_are_disjoint_where_expected():
    # every raw label appears somewhere; NS feeds two aggregates by design
    seen = [l for labels in RATE_LABELS.values() for l in labels]
    for label in ("A", "B", "C", "D", "CD", "E", "F", "NS"):
        assert label in seen


def test_by_units_marginals(optimal_pi, optimal_gens):
    table = occupancy(optimal_pi, optimal_gens.layout)
    marg = {k: sum(v for (kk, _, _), v in table.psi.items() if kk == k)
            for k, _, _ in table.psi}
    assert sum(marg.values()) == pytest.approx(1.0)
    assert set(marg) == {1, 2, 3, 4}


def test_occupancy_csv_schema(optimal_pi, optimal_gens):
    text = occupancy_to_csv(occupancy(optimal_pi, optimal_gens.layout))
    lines = text.strip().splitlines()
    assert lines[0] == "k,s,regime,psi"
    assert len(lines) == 1 + len(optimal_gens.layout.macro_keys())


def test_transient_counts_approach_stationary_rates(optimal_config,
                                                    optimal_gens, optimal_pi):
    phi = initial_distribution(optimal_config, optimal_gens.layout)
    t = 4000.0
    counts = event_rates_stationary(transient_integral(optimal_gens, phi, t),
                                    optimal_gens)
    rate = event_rates_stationary(optimal_pi, optimal_gens)
    assert counts.repairable / t == pytest.approx(rate.repairable, abs=1e-4)
