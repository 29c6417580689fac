"""Vacation-rate optimization: caching, oracles, robustness."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse.linalg as spla
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from scipy.optimize import minimize_scalar

from standbymmap import optimizer
from standbymmap.assembler import assemble_all
from standbymmap.cli import grid_to_csv
from standbymmap.config import VACATION_FAMILIES, vacation_from_params
from standbymmap.measures import availability_stationary
from standbymmap.optimizer import (EPS, GRID_CELLS, MAX_EVALUATIONS,
                                   _CellEvaluator, _search, evaluate,
                                   optimize, run_grid)
from standbymmap.solvers import PIVOT_THRESH, _bordered, bordered_stationary

from example_model import example_fleet_config
from random_models import small_models

# the study-grid cells of the optimize-cells benchmark workload
BENCH_CELLS = [(4, 3, True, "exponential"), (4, 3, True, "erlang2"),
               (3, 2, False, "exponential"), (3, 2, False, "erlang2")]
# evaluations scipy's L-BFGS-B took on them, with the same stop rule
LBFGSB_EVALUATIONS = dict(zip(BENCH_CELLS, [5, 5, 5, 4]))
BOX_CORNERS = ([1e-3, 1e-3], [1e2, 1e2], [1e-3, 1e2])


@pytest.mark.parametrize("pm", [True, False])
@pytest.mark.parametrize("family", ["exponential", "erlang2"])
def test_cached_evaluator_matches_full_pipeline(family, pm):
    config = example_fleet_config(units=3, vacation_threshold=2,
                                  pm_enabled=pm)
    cell = _CellEvaluator(config, family)
    for x in ([0.7, 1.3], [1.0, 1.0], [2.5, 0.4]):
        x = x[:cell.dim]
        full_phi, full_a, full_rates = evaluate(config, family, x)
        phi, avail, rates = cell.evaluate(x)
        assert phi == pytest.approx(full_phi, abs=1e-9)
        assert avail == pytest.approx(full_a, abs=1e-12)
        rates = rates.as_dict()
        for name, value in full_rates.as_dict().items():
            assert rates[name] == pytest.approx(value, abs=1e-12), name


@pytest.mark.parametrize("family", ["exponential", "erlang2"])
def test_cell_assembles_twice(family, monkeypatch):
    """The stage split needs the generator at x = 1 and x = 2 alone,
    whatever the number of rates."""
    calls = []
    assemble = optimizer.assemble_all

    def counting(*args, **kwargs):
        calls.append(args)
        return assemble(*args, **kwargs)

    monkeypatch.setattr(optimizer, "assemble_all", counting)
    _CellEvaluator(example_fleet_config(units=3, vacation_threshold=2), family)
    assert len(calls) == 2


@pytest.mark.parametrize("pm", [True, False])
@pytest.mark.parametrize("family", ["exponential", "erlang2"])
def test_stage_split_matches_a_fresh_assembly(family, pm):
    """D(x) = D0 + diag(rho(x)) dD has the pattern of a fresh assembly at x
    and its entries to rounding, at the box corners and inside.  dD is
    empty off the vacation rows, so those rows are D(1)'s.  In a vacation
    row of stage w only the diagonal is a sum, of the online unit's h,
    -x_w from the clock and, with one stage, +x_w from E; |h| <= M =
    max|D_ii(x)|.  Each assembly rounds it twice, the split carries the
    errors of D(1) and D(2) into D(x) by factors 2 + x_w and 1 + x_w, and
    D0 + x_w dD rounds twice more.  So every entry lies within
    (5 + 3.5 x_w)(|h| + 1) eps, at most (10 + 7 x_w) eps M once M >= 1."""
    config = example_fleet_config(pm_enabled=pm)
    cell = _CellEvaluator(config, family)
    rows, _ = cell.D[1].nonzero()
    assert cell.layout.states["vacation"][rows].all()
    for x in (*BOX_CORNERS, [0.5, 0.7]):
        x = np.array(x[:cell.dim])
        D = cell.generator(x)
        fresh = assemble_all(config.with_policy(
            vacation=vacation_from_params(family, x))).total
        np.testing.assert_array_equal(D.indptr, fresh.indptr)
        np.testing.assert_array_equal(D.indices, fresh.indices)
        scale = np.abs(fresh.diagonal()).max()
        assert scale >= 1
        bound = (10 + 7 * x.max()) * EPS * scale
        assert np.abs(D.data - fresh.data).max() <= bound, x


@settings(max_examples=20, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(small_models(), st.sampled_from(sorted(VACATION_FAMILIES)))
def test_rate_entries_lie_in_vacation_rows(config, family):
    """The cell's dD = D(2) - D(1) has no entry outside the vacation rows,
    on random models too, so `BorderedPattern` may take every entry of dD
    and rho(x) alone decides where x enters."""
    cell = _CellEvaluator(config, family)
    rows, _ = cell.D[1].nonzero()
    assert cell.layout.states["vacation"][rows].all()


def test_availability_is_the_measures_sum_of_the_searched_pi():
    """At every study-grid cell, the availability `evaluate` reports at
    the last gradient call's x is measures.availability_stationary of that
    call's pi, to the bit: 1 - sum of pi over the down states, not the sum
    over the up states, which differs in its last digits at most cells."""
    config = example_fleet_config()
    for n, R in GRID_CELLS:
        for pm in (True, False):
            for family in VACATION_FAMILIES:
                cell = _CellEvaluator(config.with_policy(
                    units=n, vacation_threshold=R, pm_enabled=pm), family)
                x = np.array([0.8, 1.3][:cell.dim])
                cell.gradient(x)
                _, pi = cell._last
                _, avail, _ = cell.evaluate(x)
                assert avail == availability_stationary(pi, cell.layout), \
                    (n, R, pm, family)


@pytest.mark.parametrize("pm", [True, False])
@pytest.mark.parametrize("family", ["exponential", "erlang2"])
def test_gradient_matches_central_differences(family, pm):
    """Inside the box and at its corner (1e-3, 1e-3).  The first call fixes
    the cell's fill-reducing order, so each gradient's adjoint solve goes
    through the factors of the permuted matrix."""
    config = example_fleet_config(units=3, vacation_threshold=2,
                                  pm_enabled=pm)
    cell = _CellEvaluator(config, family)
    cell.evaluate(np.ones(cell.dim))
    for x in ([0.4, 1.7], BOX_CORNERS[0]):
        x = np.array(x[:cell.dim])
        phi, grad, _ = cell.gradient(x)
        assert phi == pytest.approx(cell.evaluate(x)[0], abs=1e-12)
        for i in range(cell.dim):
            step = np.zeros(cell.dim)
            step[i] = 1e-5 * x[i]
            central = (cell.evaluate(x + step)[0]
                       - cell.evaluate(x - step)[0]) / (2 * step[i])
            assert grad[i] == pytest.approx(central, rel=1e-6), (x, i)


def test_log_gradient_vanishes_at_an_interior_optimum():
    config = example_fleet_config(units=3, vacation_threshold=2)
    result = optimize(config, "erlang2")
    assert np.all((result.x > 1e-3) & (result.x < 1e2))
    _, grad, _ = _CellEvaluator(config, "erlang2").gradient(result.x)
    assert np.max(np.abs(result.x * grad)) <= 1e-6


def test_optimum_carries_its_own_measures():
    """profit, availability and rates at x* agree with a fresh assembly."""
    config = example_fleet_config(units=2, vacation_threshold=2)
    result = optimize(config, "exponential")
    phi, avail, rates = evaluate(config, "exponential", result.x)
    assert result.profit == pytest.approx(phi, abs=1e-9)
    assert result.availability == pytest.approx(avail, abs=1e-12)
    for name, value in rates.as_dict().items():
        assert result.rates.as_dict()[name] == pytest.approx(value, abs=1e-12)


def test_exponential_optimum_matches_golden_section():
    """The reference is scipy's bounded scalar search (golden section with
    parabolic steps) on log x over [1e-3, 10], independent of the
    gradient."""
    config = example_fleet_config(units=2, vacation_threshold=2)
    result = optimize(config, "exponential")
    cell = _CellEvaluator(config, "exponential")
    gold = minimize_scalar(lambda log_x: -cell.evaluate([np.exp(log_x)])[0],
                           bounds=(np.log(1e-3), np.log(10.0)),
                           method="bounded", options={"xatol": 1e-6})
    x_gold, phi_gold = np.exp(gold.x), -gold.fun
    assert result.profit >= phi_gold - 1e-9
    assert result.x[0] == pytest.approx(x_gold, rel=1e-2)


def test_restart_robustness():
    """Distinct starting points land on the same profit as optimize()
    from x = 1: its search, run on the cell's own objective."""
    config = example_fleet_config(units=2, vacation_threshold=2)
    cell = _CellEvaluator(config, "erlang2")

    def objective(z):
        x = np.exp(z)
        phi, grad, delta = cell.gradient(x)
        return -phi, -grad * x, delta
    profits = [optimize(config, "erlang2").profit]
    for x0 in ([0.3, 0.3], [1.0, 2.0], [3.0, 0.5]):
        z, _, converged = _search(objective, np.log(x0), np.log(1e-3),
                                  np.log(1e2))
        assert converged
        profits.append(cell.evaluate(np.exp(z))[0])
    assert max(profits) - min(profits) < 1e-8


def test_result_record_round_trips():
    config = example_fleet_config(units=2, vacation_threshold=1)
    result = optimize(config, "exponential")
    rec = result.as_record()
    assert rec["n"] == 2 and rec["R"] == 1 and rec["family"] == "exponential"
    assert len(rec["x"]) == 1 and rec["x"][0] > 0
    assert rec["evaluations"] >= 1 and rec["converged"] is True


def test_grid_csv_schema():
    config = example_fleet_config(units=2, vacation_threshold=2)
    results = [optimize(config, "exponential")]
    text = grid_to_csv(results)
    lines = text.strip().splitlines()
    assert lines[0] == "n,R,pm,family,x,profit,availability,evaluations,converged"
    assert lines[1].startswith("2,2,1,exponential,")


def test_profit_surface_is_locally_concave_at_the_optimum():
    config = example_fleet_config(units=2, vacation_threshold=2)
    cell = _CellEvaluator(config, "exponential")
    result = optimize(config, "exponential")
    x = result.x[0]
    mid = cell.evaluate([x])[0]
    assert mid >= cell.evaluate([x * 1.2])[0] - 1e-9
    assert mid >= cell.evaluate([x / 1.2])[0] - 1e-9


@pytest.mark.parametrize("alias,family", [("exp", "exponential"),
                                          ("erlang", "erlang2")])
def test_family_alias_gives_the_canonical_record(alias, family):
    config = example_fleet_config(units=2, vacation_threshold=1)
    record = optimize(config, alias).as_record()
    assert record == optimize(config, family).as_record()
    assert record["family"] == family


def test_one_optimize_call_orders_once(monkeypatch):
    """Every evaluation of a cell factors a bordered matrix of the same
    pattern: the first computes the fill-reducing order, the rest reuse it."""
    specs = []
    splu = spla.splu

    def counting(A, permc_spec=None, **kwargs):
        specs.append(permc_spec)
        return splu(A, permc_spec=permc_spec, **kwargs)

    monkeypatch.setattr(spla, "splu", counting)
    result = optimize(example_fleet_config(units=3, vacation_threshold=2),
                      "erlang2")
    assert specs.count("MMD_AT_PLUS_A") == 1
    assert specs[0] == "MMD_AT_PLUS_A"
    assert len(specs) >= result.evaluations


@pytest.mark.parametrize("n,R,pm", [(4, 3, True), (4, 4, False),
                                    (2, 2, False)])
def test_reused_order_keeps_a_fresh_orders_fill(n, R, pm):
    """At the box corners and inside, D(x) factored in the order of the
    cell's first solve fills L and U as a fresh ordering of D(x) does, and
    gives the same pi to rounding."""
    cell = _CellEvaluator(example_fleet_config(n, R, pm), "erlang2")
    cell.evaluate([1.0, 1.0])
    for x in (*BOX_CORNERS, [0.5, 0.7]):
        pi, fresh = bordered_stationary(cell.generator(x))
        pi_reused, reused = cell._solve(x)
        np.testing.assert_array_equal(reused.order, cell._pattern.order)
        assert reused.fill == fresh.fill, x
        assert np.max(np.abs(pi_reused - pi)) <= 1e-14, x


@pytest.mark.parametrize("n,R,pm,family", BENCH_CELLS)
def test_evaluation_count_does_not_depend_on_the_last_digits(
        n, R, pm, family, monkeypatch):
    """A search that orders every factorisation afresh sees pi move in its
    last digits.  It must stop after as many evaluations as the real one,
    at the same profit: a stop rule that asks for more than Phi resolves
    would go on searching in rounding noise, down a path those digits
    steer.  The hook hands SuperLU MMD_AT_PLUS_A for every LU, so each one
    the compiled pattern asks to factor in its natural order is ordered
    afresh as well."""
    config = example_fleet_config(n, R, pm)
    result = optimize(config, family)
    specs, splu = [], spla.splu

    def ordered_afresh(A, permc_spec=None, **kwargs):
        specs.append(permc_spec)
        return splu(A, permc_spec="MMD_AT_PLUS_A", **kwargs)

    monkeypatch.setattr(spla, "splu", ordered_afresh)
    fresh = optimize(config, family)
    # one ordering per LU: the first one's own, and a fresh one in place of
    # every reuse of it
    assert specs == ["MMD_AT_PLUS_A"] + ["NATURAL"] * (len(specs) - 1)
    assert len(specs) >= fresh.evaluations
    assert fresh.evaluations == result.evaluations
    assert fresh.profit == pytest.approx(result.profit, abs=1e-12)
    assert fresh.converged and result.converged
    assert result.evaluations <= LBFGSB_EVALUATIONS[(n, R, pm, family)]


@pytest.mark.parametrize("pm", [True, False])
@pytest.mark.parametrize("family", ["exponential", "erlang2"])
def test_compiled_pattern_is_the_ordered_bordered_generator(family, pm,
                                                            monkeypatch):
    """After the first solve a cell factors its compiled pattern.  At the
    box corners and inside, the matrix it hands to SuperLU is B(D(x)) in
    the cell's order, structure and entries, and pi and the adjoint g are
    bit for bit those of that matrix's natural-order LU, solved through
    the order map x[q] = y."""
    cell = _CellEvaluator(example_fleet_config(4, 3, pm), family)
    cell.evaluate([1.0] * cell.dim)
    order = cell._pattern.order
    factored, splu = [], spla.splu

    def recording(A, **kwargs):
        factored.append(A)
        return splu(A, **kwargs)

    monkeypatch.setattr(spla, "splu", recording)
    for x in (*BOX_CORNERS, [0.5, 0.7]):
        x = x[:cell.dim]
        pi, lu = cell._solve(x)
        A = factored[-1]
        D = cell.generator(x)
        expected = _bordered(D).tocsr()[order][:, order].tocsc()
        for part in ("indptr", "indices", "data"):
            assert np.array_equal(getattr(A, part), getattr(expected, part)), \
                (x, part)
        lu_ref = splu(expected, permc_spec="NATURAL",
                      diag_pivot_thresh=PIVOT_THRESH)

        def solve_ref(b, trans="N"):
            y = np.empty(b.size)
            y[order] = lu_ref.solve(b[order], trans)
            return y
        first = np.eye(1, D.shape[0])[0]
        assert pi.tobytes() == solve_ref(first).tobytes(), x
        reward = cell._reward(x)
        assert (lu.solve(reward, trans="T").tobytes()
                == solve_ref(reward, trans="T").tobytes()), x


def quadratic(centre, hessian=((2.0, 0.6), (0.6, 1.0))):
    """f(z) = (z - c) A (z - c) / 2 as a _search objective, resolved to
    eps (1 + |f|)."""
    A, c = np.array(hessian), np.array(centre)

    def objective(z):
        f = 0.5 * (z - c) @ A @ (z - c)
        return f, A @ (z - c), EPS * (1 + abs(f))
    return objective


@pytest.mark.parametrize("start", [[0.0, 0.0], [-2.0, -2.0], [2.0, -2.0]])
def test_search_finds_an_interior_minimum(start):
    """From the middle of the box [-2, 2]^2 and from two of its corners."""
    z, calls, converged = _search(quadratic([0.5, -0.3]), np.array(start),
                                  -2.0, 2.0)
    assert converged and calls < 20
    np.testing.assert_allclose(z, [0.5, -0.3], atol=1e-6)


def test_search_stops_on_the_bound_of_an_outside_minimum():
    """With c = (3, -0.8) outside [-1, 1]^2 the box minimum has z_0 = 1
    and z_1 minimising f along that edge, c_1 - A_10 (1 - c_0) / A_11.
    Once z_0 is held, the step of z_1 is Newton's along the edge, so a
    few calls reach it (11 when z_1 stepped by H's own free block)."""
    z, calls, converged = _search(quadratic([3.0, -0.8]), np.zeros(2),
                                  -1.0, 1.0)
    assert converged and calls <= 5
    assert z[0] == 1.0
    assert z[1] == pytest.approx(-0.8 + 0.6 * 2.0, abs=1e-6)


def test_search_holds_a_bound_coordinate_whose_gradient_points_out():
    """With c = (2, 0) outside [-1, 1]^2 and A_01 = -1.8 the box minimum
    is on the face z_0 = 1, at z_1 = c_1 - A_10 (1 - c_0) / A_11 = -0.45,
    where g_0 = -1 - 1.8 z_1 < 0 points out of the box.  Held on its
    bound, z_0 drops out of the quasi-Newton step and z_1 steps by the
    inverse of H's free block.  Left free, the step of z_1 also carries
    H_10 g_0, the pull of a coordinate that cannot move; then the step
    either ascends (and the -g step is taken) or barely descends, and the
    search stalls short of the face minimum until its evaluation cap."""
    objective = quadratic([2.0, 0.0], hessian=((1.0, -1.8), (-1.8, 4.0)))
    z, calls, converged = _search(objective, np.array([1.0, 1.0]), -1.0, 1.0)
    assert converged
    assert z[0] == 1.0
    assert z[1] == pytest.approx(-0.45, abs=1e-6)


def test_search_stops_at_once_in_a_corner_that_is_the_minimum():
    z, calls, converged = _search(quadratic([3.0, 3.0]),
                                  np.array([1.0, 1.0]), -1.0, 1.0)
    assert converged and calls == 1
    np.testing.assert_array_equal(z, [1.0, 1.0])


def test_search_in_one_dimension():
    """f(z) = e^z - 2z, minimum at log 2, not quadratic."""
    def objective(z):
        f = float(np.exp(z[0]) - 2 * z[0])
        return f, np.exp(z) - 2, EPS * (np.exp(z[0]) + 2 * abs(z[0]))
    z, calls, converged = _search(objective, np.array([-3.0]), -5.0, 5.0)
    assert converged and calls < 20
    assert z[0] == pytest.approx(np.log(2), abs=1e-6)


def test_search_reports_no_convergence_at_its_evaluation_cap():
    """A resolution of -1 no gain can reach: the cap ends the search."""
    def objective(z):
        f, g, _ = quadratic([0.5, -0.3])(z)
        return f, g, -1.0
    z, calls, converged = _search(objective, np.zeros(2), -2.0, 2.0)
    assert calls == MAX_EVALUATIONS and not converged
    np.testing.assert_allclose(z, [0.5, -0.3], atol=1e-6)


def test_grid_takes_no_more_evaluations_than_lbfgsb():
    """L-BFGS-B took 180 evaluations over the 36 cells, 4 to 6 each."""
    results = run_grid(example_fleet_config())
    assert all(r.converged for r in results)
    assert sum(r.evaluations for r in results) <= 180
    assert max(r.evaluations for r in results) <= 6


OPTIMIZE_ALONE = """
import sys
from standbymmap.config import bundled_model_path, load_model
from standbymmap.optimizer import optimize
config = load_model(bundled_model_path()).with_policy(units=2,
                                                      vacation_threshold=2)
assert optimize(config, "erlang2").converged
print(*(m for m in sys.modules if m.startswith("scipy.optimize")))
"""


def test_optimize_does_not_import_scipy_optimize():
    """In a fresh interpreter, as a CLI `optimize` runs."""
    package_root = str(Path(optimizer.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [package_root, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-c", OPTIMIZE_ALONE], env=env,
                          capture_output=True, text=True, check=True)
    assert proc.stdout.split() == []
