"""Reward vectors and net-profit measures."""

import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from standbymmap import economics
from standbymmap.assembler import assemble_all
from standbymmap.config import CostBlock
from standbymmap.economics import (build_nc, build_nr, profit_stationary,
                                   profit_transient)
from standbymmap.measures import availability_stationary, down_mask
from standbymmap.simulator import simulate
from standbymmap.solvers import initial_distribution, stationary_direct

from example_model import example_fleet_config


def with_costs(config, **kw):
    fields = {"operational": np.zeros(config.m),
              "damage": np.zeros(config.d),
              "corrective": np.zeros(config.z[1]),
              "preventive": np.zeros(config.z[2])}
    fields.update(kw)
    return replace(config, costs=CostBlock(**fields))


def test_reward_support(optimal_config, optimal_gens):
    lay = optimal_gens.layout
    nr = build_nr(optimal_config, lay)
    assert nr.shape == (lay.total,)
    # every down state pays the downtime loss plus a presence rate
    c = optimal_config.costs
    down = down_mask(lay)
    assert np.all(nr[down] <= -(c.downtime_loss
                                + min(c.vacation, c.repair_present)))


def test_repair_cost_only_while_serving(optimal_config, optimal_gens):
    lay = optimal_gens.layout
    nc = build_nc(optimal_config, lay)
    for (k, s, x) in lay.macro_keys():
        lo, hi = lay.span(k, s, x)
        if x == "v" or s == 0:
            assert np.all(nc[lo:hi] == 0.0)
        else:
            assert np.all(nc[lo:hi] > 0.0)


def test_gross_profit_only_reduces_to_availability(optimal_gens, optimal_pi):
    """With every cost zeroed except the gross margin, profit = B * A."""
    config = with_costs(example_fleet_config(), gross_profit=70.0)
    prof = profit_stationary(optimal_pi, optimal_gens, config)
    a = availability_stationary(optimal_pi, optimal_gens.layout)
    assert prof.total == pytest.approx(70.0 * a)
    assert prof.repair_cost == 0.0 and prof.fixed_cost == 0.0


def test_default_phase_costs_are_zero():
    """A CostBlock left at its empty per-phase vectors charges nothing per
    phase, in the matrix pipeline and in the simulator alike."""
    config = replace(example_fleet_config(2, 1),
                     costs=CostBlock(gross_profit=70.0))
    gens = assemble_all(config, validate=False)
    pi = stationary_direct(gens)
    prof = profit_stationary(pi, gens, config)
    assert prof.total == pytest.approx(
        70.0 * availability_stationary(pi, gens.layout))
    sim = simulate(config, horizon=200.0, replications=1, seed=3)
    assert sim.profit.mean == pytest.approx(70.0 * sim.availability.mean)


def test_downtime_only_reduces_to_unavailability(optimal_gens, optimal_pi):
    config = with_costs(example_fleet_config(), downtime_loss=10.0)
    prof = profit_stationary(optimal_pi, optimal_gens, config)
    a = availability_stationary(optimal_pi, optimal_gens.layout)
    assert prof.total == pytest.approx(-10.0 * (1.0 - a))


def test_reference_profit_value(optimal_config, optimal_gens, optimal_pi):
    """Frozen against the independent block-solver evaluation path."""
    prof = profit_stationary(optimal_pi, optimal_gens, optimal_config)
    assert prof.total == pytest.approx(8.201917, abs=1e-5)


def test_breakdown_adds_up(optimal_config, optimal_gens, optimal_pi):
    prof = profit_stationary(optimal_pi, optimal_gens, optimal_config)
    assert prof.total == pytest.approx(prof.working - prof.repair_cost
                                       - prof.fixed_cost)


def test_transient_profit_includes_the_initial_fleet(optimal_config,
                                                     optimal_gens):
    phi = initial_distribution(optimal_config, optimal_gens.layout)
    t = 5.0
    prof = profit_transient(optimal_gens, phi, t, optimal_config)
    c = optimal_config.costs
    # over a short window the fleet purchase dominates everything else
    assert prof.fixed_cost >= optimal_config.units * c.new_unit
    assert prof.total < 0


def test_profit_grid_matches_the_per_time_calls(optimal_config, optimal_gens):
    """A time grid is served by one sweep, bit for bit as one call per t."""
    phi = initial_distribution(optimal_config, optimal_gens.layout)
    grid = [100.0, 0.0, 5.0, 100.0]
    swept = profit_transient(optimal_gens, phi, grid, optimal_config)
    assert len(swept) == len(grid)
    for t, prof in zip(grid, swept):
        assert prof == profit_transient(optimal_gens, phi, t, optimal_config)


def test_profit_rate_converges(optimal_config, optimal_gens, optimal_pi):
    phi = initial_distribution(optimal_config, optimal_gens.layout)
    stat = profit_stationary(optimal_pi, optimal_gens, optimal_config).total
    t = 5000.0
    acc = profit_transient(optimal_gens, phi, t, optimal_config).total
    assert acc / t == pytest.approx(stat, abs=0.2)


PROFIT_AT_N6 = """
from standbymmap.assembler import assemble_all
from standbymmap.config import bundled_model_path, load_model
from standbymmap.economics import profit_stationary
from standbymmap.solvers import stationary_direct
config = load_model(bundled_model_path()).with_policy(units=6)
gens = assemble_all(config)
print(repr(profit_stationary(stationary_direct(gens), gens, config)))
"""


def test_stationary_profit_does_not_depend_on_the_blas_thread_count():
    """At (6, 3, PM on), 17,556 states: OpenBLAS splits a dot product that
    long across its threads, so a ddot's last digit would follow
    OPENBLAS_NUM_THREADS.  Each run is a fresh interpreter, as OpenBLAS
    reads the variable when it loads."""
    package_root = str(Path(economics.__file__).resolve().parents[1])
    reprs = []
    for threads in ("1", "2"):
        env = {**os.environ, "OPENBLAS_NUM_THREADS": threads,
               "PYTHONPATH": os.pathsep.join(
                   filter(None, [package_root, os.environ.get("PYTHONPATH")]))}
        reprs.append(subprocess.run(
            [sys.executable, "-c", PROFIT_AT_N6], env=env,
            capture_output=True, text=True, check=True).stdout)
    assert reprs[0] == reprs[1]
