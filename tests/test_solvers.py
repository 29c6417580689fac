"""Solvers: uniformized transients and the two stationary routes."""

import tracemalloc
import weakref
from dataclasses import replace
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import HealthCheck, given, settings
from scipy.sparse.linalg import expm_multiply
from scipy.stats import poisson

from standbymmap import solvers
from standbymmap.assembler import ARRIVAL_LABELS, MmapGenerators, assemble_all
from standbymmap.economics import profit_transient
from standbymmap.measures import availability_stationary, availability_transient
from standbymmap.solvers import (UNIFORMIZATION_TOL, SolverError, _checked,
                                 _gth, _poisson_pmf, _poisson_sf, _truncation,
                                 bordered_stationary, initial_distribution,
                                 stationary_block, stationary_direct,
                                 transient, transient_integral)

from example_model import example_fleet_config
from random_models import small_models
from reference_sweep import reference_sweep


def test_initial_distribution_lives_in_the_fresh_block(optimal_config, optimal_gens):
    phi = initial_distribution(optimal_config, optimal_gens.layout)
    assert phi.sum() == pytest.approx(1.0)
    lo, hi = optimal_gens.layout.span(optimal_gens.layout.n, 0, "v")
    assert np.all(phi[:lo] == 0) and np.all(phi[hi:] == 0)
    assert np.all(phi >= 0)


@pytest.mark.parametrize("n,R,pm", [(4, 3, True), (4, 1, True), (2, 2, False),
                                    (6, 3, False), (5, 3, True), (1, 1, True),
                                    (7, 3, True)])
def test_stationary_routes_agree(n, R, pm):
    gens = assemble_all(example_fleet_config(n, R, pm), validate=False)
    direct = bordered_stationary(gens.total)[0]
    block = stationary_block(gens)
    assert np.abs(direct - block).sum() < 1e-8


@pytest.mark.parametrize("n,R,pm", [(2, 2, False), (4, 3, True),
                                    (6, 3, False), (7, 3, True)])
def test_stationary_direct_takes_the_level_cycle(n, R, pm, monkeypatch):
    """Every chain takes the level cycle, from the 272 states of n = 2 with
    PM off to the 36,180 of n = 7 with PM on; no bordered solve is made."""
    gens = assemble_all(example_fleet_config(n, R, pm), validate=False)
    pi, taken = np.zeros(gens.total.shape[0]), []

    def stand_in(name, result):
        def solve(*args, **kwargs):
            taken.append(name)
            return result
        return solve
    monkeypatch.setattr(solvers, "bordered_stationary",
                        stand_in("bordered", (pi, None)))
    monkeypatch.setattr(solvers, "stationary_block",
                        stand_in("level cycle", pi))
    stationary_direct(gens)
    assert taken == ["level cycle"]


def _one_level():
    return assemble_all(example_fleet_config(1, 1, True), validate=False)


def _no_layout():
    return replace(assemble_all(example_fleet_config(2, 2, True),
                                validate=False), layout=None)


def _bare_total():
    return SimpleNamespace(total=assemble_all(
        example_fleet_config(2, 2, False), validate=False).total)


@pytest.mark.parametrize("make", [_one_level, _no_layout, _bare_total])
def test_one_level_and_layout_free_chains_take_the_bordered_solve(
        make, factored, monkeypatch):
    """At n = 1, and for a generator whose levels are unknown (`layout`
    None or absent), the level cycle is one bordered solve of D: its pi,
    bit for bit, and no level block factored."""
    gens, bordered, solve = make(), [], solvers.bordered_stationary
    monkeypatch.setattr(solvers, "bordered_stationary",
                        lambda D: bordered.append(D) or solve(D))
    pi = stationary_block(gens)
    assert len(bordered) == 1 and len(factored) == 1
    assert pi.tobytes() == solve(gens.total)[0].tobytes()


@settings(max_examples=30, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(small_models())
def test_stationary_routes_agree_on_random_models(config):
    """The level cycle and the bordered solve share no factorisation."""
    gens = assemble_all(config, validate=False)
    direct = bordered_stationary(gens.total)[0]
    block = stationary_block(gens)
    assert np.abs(direct - block).sum() <= 1e-10
    for pi in (direct, block):
        assert np.max(np.abs(pi @ gens.total)) <= 1e-12


def test_residual_guard_rejects_a_perturbed_pi(optimal_gens, optimal_pi):
    D = optimal_gens.total
    assert _checked(optimal_pi, optimal_pi @ D, D.diagonal()) is optimal_pi
    bent = optimal_pi.copy()
    bent[0] += 1e-6
    bent /= bent.sum()
    with pytest.raises(SolverError, match="residual"):
        _checked(bent, bent @ D, D.diagonal())


def test_negative_mass_guard_rejects_a_negative_entry(optimal_gens, optimal_pi):
    """The guard both routes share: one entry at -1e-8, mass still 1."""
    bent = optimal_pi.copy()
    bent[0], bent[1] = -1e-8, bent[1] + bent[0] + 1e-8
    with pytest.raises(SolverError, match="negative"):
        _checked(bent, bent @ optimal_gens.total,
                 optimal_gens.total.diagonal())


def test_bordered_solve_rejects_an_unbalanced_generator(optimal_gens):
    """The bordered solve drops the first balance equation, so a change to
    D[0, 0] leaves pi as it was and shows only in ||pi D||_inf (2.3e-4
    here); the optimizer's solves go through the same check."""
    D = optimal_gens.total.tolil()
    D[0, 0] *= 1.01
    with pytest.raises(SolverError, match="residual"):
        bordered_stationary(D.tocsr())


def test_level_cycle_rejects_an_extra_upward_block(optimal_gens):
    """One conservative entry from level n-1 up to level n breaks the
    lower-Hessenberg structure the level cycle relies on."""
    lay = optimal_gens.layout
    row, col = lay.k_span(lay.n - 1)[0], lay.k_span(lay.n)[0]
    D = optimal_gens.total.tolil()
    D[row, col] += 0.5
    D[row, row] -= 0.5
    gens = replace(optimal_gens, total=D.tocsr())
    with pytest.raises(SolverError, match=f"from level {lay.n - 1} to level "
                                          f"{lay.n}"):
        stationary_block(gens)


@pytest.mark.parametrize("pm,bound", [(False, 1.3e5), (True, 2.8e6)])
def test_bordered_lu_fill_stays_low(pm, bound):
    """Threshold pivoting keeps the symmetric fill-reducing order: at n=6
    the LU holds 99.5k (PM off, 2,132 states) and 2.43M (PM on, 17,556
    states) entries, against 157k and 3.19M under partial pivoting."""
    gens = assemble_all(example_fleet_config(6, 3, pm), validate=False)
    _, lu = bordered_stationary(gens.total)
    assert lu.fill < bound


@pytest.fixture
def factored(monkeypatch):
    """The LUs `_factor` makes while the test runs, as (rows, OrderedLU)
    pairs, one each."""
    made = []
    factor = solvers._factor

    def record(A, *args, **kwargs):
        made.append((A.shape[0], factor(A, *args, **kwargs)))
        return made[-1][1]
    monkeypatch.setattr(solvers, "_factor", record)
    return made


@pytest.mark.parametrize("n,R,pm", [(2, 2, True), (4, 3, False),
                                    (5, 3, True)])
def test_level_cycle_factors_each_level_block_once(n, R, pm, factored,
                                                   monkeypatch):
    """One LU per level block D_kk, D_nn first and then k = 1..n-1, and no
    bordered solve: the cycle closes on the renewal's entry states by GTH."""
    gens = assemble_all(example_fleet_config(n, R, pm), validate=False)
    bordered, solve = [], solvers.bordered_stationary
    monkeypatch.setattr(solvers, "bordered_stationary",
                        lambda *a, **kw: bordered.append(a) or solve(*a, **kw))
    stationary_block(gens)
    levels = [hi - lo for lo, hi in map(gens.layout.k_span, range(1, n + 1))]
    assert [rows for rows, _ in factored] == levels[-1:] + levels[:-1]
    assert bordered == []


def test_a_level_cycle_at_n_1_counts_as_one_solve(solves):
    """At n = 1 the level cycle is the bordered solve of D: the `solves`
    fixture counts the two nested calls once."""
    solvers.stationary_block(assemble_all(example_fleet_config(1, 1, True),
                                          validate=False))
    assert len(solves) == 1


def test_level_cycle_fill_stays_low(factored):
    """At n = 6, PM on (17,556 states) the bound on the level cycle's LUs
    together is 8.0e5 entries.  The six level LUs in COLAMD order hold
    0.61M and in MMD_AT_PLUS_A order 0.88M; with a bordered LU of the
    censored level-6 matrix in place of D_66's, MMD_AT_PLUS_A gave 1.03M."""
    stationary_block(assemble_all(example_fleet_config(6, 3, True),
                                  validate=False))
    assert sum(lu.fill for _, lu in factored) < 8.0e5


def _level_cycle_all_lus_at_once(gens) -> np.ndarray:
    """pi by the level cycle with all n level LUs factored first, D_nn's
    last, and held to the end: the operations of `stationary_block` on the
    same data, in another order."""
    lay, D = gens.layout, gens.total.tocsr()
    n = lay.n

    def blk(i, j):
        (r0, r1), (c0, c1) = lay.k_span(i), lay.k_span(j)
        return D[r0:r1, c0:c1]

    lus = {k: solvers._factor(blk(k, k), "COLAMD") for k in range(1, n + 1)}
    renewal = blk(1, n).tocsc()
    cols = np.flatnonzero(np.diff(renewal.indptr))
    W = renewal[:, cols].toarray()
    for k in range(1, n):
        W = -(blk(k + 1, k) @ lus[k].solve(W))
    entries = np.zeros((W.shape[0], cols.size))
    entries[cols, np.arange(cols.size)] = 1.0
    Y = -lus[n].solve(entries, trans="T").T
    pieces = [_gth(Y @ W) @ Y]
    for k in range(n - 1, 0, -1):
        pieces.append(-lus[k].solve(pieces[-1] @ blk(k + 1, k), trans="T"))
    pi = np.concatenate(pieces)
    return pi / pi.sum()


def test_top_level_lu_is_dropped_before_the_other_levels_are_factored(
        monkeypatch):
    """At n = 6, PM on, the LUs alive at once, counted at each `_factor`
    call, never fill more than the larger of D_66's LU and the five other
    level LUs together, and pi is bit for bit that of the cycle that holds
    all six LUs at once."""
    gens = assemble_all(example_fleet_config(6, 3, True), validate=False)
    reference = _level_cycle_all_lus_at_once(gens)
    alive, fills, peak = {}, [], [0]
    factor = solvers._factor

    def tracked(A, *args, **kwargs):
        lu = factor(A, *args, **kwargs)
        alive[id(lu)] = lu.fill
        weakref.finalize(lu, alive.pop, id(lu))
        fills.append(lu.fill)
        peak[0] = max(peak[0], sum(alive.values()))
        return lu
    monkeypatch.setattr(solvers, "_factor", tracked)
    pi = stationary_block(gens)
    top, others = fills[0], sum(fills[1:])
    assert len(fills) == 6
    assert peak[0] <= max(top, others) < top + others
    assert np.array_equal(pi, reference)


@pytest.mark.parametrize("P,a", [
    ([[0.9, 0.1], [0.4, 0.6]], [0.8, 0.2]),
    ([[0.5, 0.25, 0.25], [0.5, 0.0, 0.5], [0.25, 0.25, 0.5]],
     [0.4, 0.2, 0.4])])
def test_gth_solves_small_chains(P, a):
    np.testing.assert_allclose(_gth(np.array(P)), a, rtol=1e-15)


def test_gth_keeps_weak_couplings_exact():
    """States {0, 1} and {2} are coupled at about 1e-14.  The exact pi
    comes from the off-diagonal entries by the Markov chain tree theorem in
    rational arithmetic.  1 - P_22 rounds away a part in 1e3 of the exit
    probability 4e-14, so a dense solve of pi (I - P) = 0 misses pi by
    that much; GTH never forms 1 - P_kk and stays at rounding level."""
    off = {(0, 1): 0.3, (0, 2): 2e-14, (1, 0): 0.6, (1, 2): 1e-14,
           (2, 0): 3e-14, (2, 1): 1e-14}
    P = np.zeros((3, 3))
    for (i, j), p in off.items():
        P[i, j] = p
    P[np.diag_indices(3)] = 1.0 - P.sum(axis=1)
    q = {ij: Fraction(p) for ij, p in off.items()}
    trees = [q[1, 0] * q[2, 0] + q[1, 0] * q[2, 1] + q[1, 2] * q[2, 0],
             q[0, 1] * q[2, 1] + q[0, 1] * q[2, 0] + q[0, 2] * q[2, 1],
             q[0, 2] * q[1, 2] + q[0, 2] * q[1, 0] + q[0, 1] * q[1, 2]]
    exact = np.array([float(t / sum(trees)) for t in trees])
    A = (np.eye(3) - P).T
    A[-1] = 1.0
    dense = np.linalg.solve(A, [0.0, 0.0, 1.0])
    assert np.max(np.abs(dense / exact - 1)) > 1e-6
    np.testing.assert_allclose(_gth(P), exact, rtol=1e-14)


def test_gth_rejects_a_reducible_matrix():
    with pytest.raises(SolverError, match="reaches no state"):
        _gth(np.eye(2))


def test_stationary_is_a_left_null_vector(optimal_gens, optimal_pi):
    residual = optimal_pi @ optimal_gens.total
    assert np.max(np.abs(residual)) < 1e-10
    assert optimal_pi.sum() == pytest.approx(1.0)


def test_transient_at_zero_is_the_start(optimal_config, optimal_gens):
    phi = initial_distribution(optimal_config, optimal_gens.layout)
    rows = transient(optimal_gens, phi, [0.0, 5.0])
    np.testing.assert_array_equal(rows[0], phi)


def test_transient_rows_are_distributions(optimal_config, optimal_gens):
    phi = initial_distribution(optimal_config, optimal_gens.layout)
    rows = transient(optimal_gens, phi, [1.0, 10.0, 100.0])
    assert np.allclose(rows.sum(axis=1), 1.0, atol=1e-10)
    assert rows.min() >= -1e-12


def test_transient_converges_to_stationary(optimal_config, optimal_gens, optimal_pi):
    phi = initial_distribution(optimal_config, optimal_gens.layout)
    p = transient(optimal_gens, phi, [2000.0])[0]
    assert np.abs(p - optimal_pi).sum() < 1e-4


def test_integral_mass_equals_elapsed_time(optimal_config, optimal_gens):
    phi = initial_distribution(optimal_config, optimal_gens.layout)
    for t in (0.5, 37.0, 400.0):
        ip = transient_integral(optimal_gens, phi, t)
        assert ip.sum() == pytest.approx(t, rel=1e-8)
        assert ip.min() >= -1e-12


@pytest.mark.parametrize("n,R,pm", [(3, 2, True), (3, 3, False), (2, 1, False)])
def test_rows_and_integral_match_expm_multiply(n, R, pm):
    """[phi, 0] expm([[D, I], [0, 0]] t) = [p(t), int_0^t p], computed by a
    method that shares nothing with uniformization."""
    config = example_fleet_config(n, R, pm)
    gens = assemble_all(config, validate=False)
    phi = initial_distribution(config, gens.layout)
    size = gens.layout.total
    aug = sp.bmat([[gens.total, sp.identity(size)],
                   [None, sp.csr_matrix((size, size))]])
    for t in (10.0, 100.0):
        both = expm_multiply(aug.T.tocsr() * t,
                             np.concatenate([phi, np.zeros(size)]))
        row = transient(gens, phi, [t])[0]
        assert np.max(np.abs(row - both[:size])) < 1e-9
        integral = transient_integral(gens, phi, t)
        assert np.max(np.abs(integral - both[size:])) < 1e-9


def test_truncation_defect_is_reported(optimal_config, optimal_gens):
    """At a loose tolerance the truncated mass shows in the result instead
    of being rescaled away, and stays within the tolerance."""
    tol = 1e-4
    phi = initial_distribution(optimal_config, optimal_gens.layout)
    rows = solvers._uniformization(optimal_gens, phi, [1.0, 10.0, 100.0],
                                   tol, False)
    leak = 1.0 - rows.sum(axis=1)
    assert np.all((leak > 1e-12) & (leak <= tol))
    t = 100.0
    gap = t - solvers._uniformization(optimal_gens, phi, t, tol, True).sum()
    assert 1e-12 < gap <= tol * t


@pytest.mark.parametrize("t", [1e6, 1e7])
def test_long_horizons_reach_the_stationary_distribution(
        optimal_config, optimal_gens, optimal_pi, t):
    """Past the mixing time the sweep stops and adds a certified stationary
    tail: rows of mass 1, never a silent zero row."""
    tol = UNIFORMIZATION_TOL
    phi = initial_distribution(optimal_config, optimal_gens.layout)
    p = transient(optimal_gens, phi, [t])[0]
    assert np.abs(p - optimal_pi).sum() <= tol
    assert abs(p.sum() - 1.0) <= 1e-12
    mass = transient_integral(optimal_gens, phi, t).sum()
    assert abs(mass - t) <= tol * t


def test_tolerance_below_rounding_still_sums(optimal_config, optimal_gens):
    """The truncation point comes from the Poisson survival function, which
    stays valid where an inverse through 1 - q, as scipy.stats.poisson.isf,
    gives NaN (q below about 1e-16)."""
    phi = initial_distribution(optimal_config, optimal_gens.layout)
    grid = [10.0, 100.0]
    tight = solvers._uniformization(optimal_gens, phi, grid, 1e-17, False)
    assert np.max(np.abs(tight.sum(axis=1) - 1.0)) <= 1e-12
    assert np.max(np.abs(tight - transient(optimal_gens, phi, grid))) <= 1e-9


@pytest.mark.parametrize("m", [0.0, 1e-3, 1.0, 2.4e3, 1e6, 1e12])
def test_poisson_helpers_equal_scipy_stats(m):
    """Bit for bit scipy.stats.poisson, which the package does not import;
    the survival function is 1 below the support, as poisson.sf is."""
    k = np.arange(-3, 4000)
    sf = _poisson_sf(k, m)
    assert np.array_equal(sf, poisson.sf(k, m))
    assert np.all(sf[:3] == 1.0)
    assert np.array_equal(_poisson_pmf(k[3:], m), poisson.pmf(k[3:], m))
    # the sweep's broadcast: steps down a column, times along a row
    rows = np.array([0.0, m, 2.0 * m])
    steps = k[3:, None]
    assert np.array_equal(_poisson_sf(steps, rows), poisson.sf(steps, rows))
    assert np.array_equal(_poisson_pmf(steps, rows), poisson.pmf(steps, rows))


@pytest.mark.parametrize("q", [1e-10, 1e-17])
def test_truncation_is_the_smallest_point_past_q(q):
    """P(N >= k) <= q < P(N >= k - 1) for N ~ Poisson(lam t), checked with
    scipy.stats over lam t from 0 to 1e12."""
    lamt = np.concatenate([[0.0], np.logspace(-6, 12, 400)])
    qs = q / np.maximum(lamt, 1.0)
    k = _truncation(lamt, qs)
    assert np.all(poisson.sf(k - 1, lamt) <= qs)
    assert np.all(poisson.sf(k - 2, lamt) > qs)


@pytest.mark.parametrize("tol", [0.0, 1.0, -1e-3, 2.0, np.nan])
def test_tolerance_outside_the_unit_interval_is_an_error(
        optimal_config, optimal_gens, tol):
    phi = initial_distribution(optimal_config, optimal_gens.layout)
    for integral in (False, True):
        with pytest.raises(SolverError, match="0 < tol < 1"):
            solvers._uniformization(optimal_gens, phi, [10.0], tol, integral)


EPS = 1e-11


@pytest.mark.parametrize("D", [
    np.array([[-1.0, 1.0, 0.0, 0.0],
              [0.5, -0.5 - EPS, EPS, 0.0],
              [0.0, 0.0, -1.0, 1.0],
              [EPS, 0.0, 0.5, -0.5 - EPS]]),
    np.array([[-1.5, 1.0, 0.5],
              [0.0, 0.0, 0.0],
              [0.0, 0.0, 0.0]])],
    ids=["nearly-decomposable", "two-absorbing-states"])
def test_settled_iterates_are_not_taken_for_stationary(D):
    """Iterates that settle before the chain mixes: two 2-state blocks
    coupled at 1e-11, where successive iterates agree to tol while
    ||v_k - pi||_1 is still about 1 (a tail taken on that trigger alone
    misses p(t) by about 0.3), and two absorbing states, where pi is not
    unique and the bordered solve fails.  The sweep must go on and sum
    exactly."""
    gens = SimpleNamespace(total=sp.csr_matrix(D))
    phi = np.eye(len(D))[0]
    for t in (100.0, 1000.0):
        exact = expm_multiply(D.T * t, phi)
        row = transient(gens, phi, [t])[0]
        assert np.max(np.abs(row - exact)) <= 1e-9


def test_failed_stationary_solve_is_not_kept(solves):
    """Two absorbing states: pi is not unique, the sweep's trigger fires,
    its solve fails, and the sweep sums exactly; the next solve fails
    again, as nothing of the failure was kept."""
    D = np.array([[-1.5, 1.0, 0.5], [0.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
    gens = MmapGenerators(None, sp.csr_matrix(D),
                          np.zeros((3, len(ARRIVAL_LABELS))))
    phi = np.eye(3)[0]
    row = transient(gens, phi, [1000.0])[0]
    assert np.max(np.abs(row - expm_multiply(D.T * 1000.0, phi))) <= 1e-9
    assert len(solves) == 1
    with pytest.raises(RuntimeError):
        stationary_direct(gens)
    assert len(solves) == 2


def test_stationary_direct_keeps_one_read_only_pi(solves):
    gens = assemble_all(example_fleet_config(3, 2, True))
    pi = stationary_direct(gens)
    assert stationary_direct(gens) is pi and len(solves) == 1
    with pytest.raises(ValueError):
        pi[0] = 0.5
    # a scaled generator has the same pi, but a copy made with it solves anew
    scaled = replace(gens, total=2.0 * gens.total)
    again = stationary_direct(scaled)
    assert again is not pi and len(solves) == 2
    np.testing.assert_allclose(again, pi, rtol=1e-9, atol=1e-15)


def test_one_solve_serves_a_transient_curve(solves):
    """The transient-curve sequence on one assembled model: p(t) and A(t)
    on one grid, the profit accumulated to two times, then pi itself."""
    config = example_fleet_config()
    gens = assemble_all(config)
    phi = initial_distribution(config, gens.layout)
    times = [1.0, 10.0, 100.0, 1000.0, 5000.0]
    transient(gens, phi, times)
    availability_transient(gens, phi, times)
    for t in (100.0, 1000.0):
        profit_transient(gens, phi, t, config)
    stationary_direct(gens)
    assert len(solves) == 1


@pytest.mark.parametrize("n,R,pm", [(4, 3, True), (2, 1, False), (3, 2, True)])
def test_grid_rows_equal_single_calls_across_the_tail(n, R, pm):
    """Whether a t takes the stationary tail depends on t alone, so one
    sweep gives each row bit for bit as the call for that t does, on both
    sides of the detection step; so do the availability and the profit
    read from the rows."""
    config = example_fleet_config(n, R, pm)
    gens = assemble_all(config, validate=False)
    phi = initial_distribution(config, gens.layout)
    grid = [1000.0, 5000.0, 1e4, 50.0, 2000.0, 3000.0, 1e6]
    rows = transient(gens, phi, grid)
    availabilities = availability_transient(gens, phi, grid)
    integrals = transient_integral(gens, phi, grid)
    profits = profit_transient(gens, phi, grid, config)
    for i, t in enumerate(grid):
        np.testing.assert_array_equal(rows[i], transient(gens, phi, [t])[0])
        assert availabilities[i] == availability_transient(gens, phi, [t])[0]
        np.testing.assert_array_equal(integrals[i],
                                      transient_integral(gens, phi, t))
        assert profits[i] == profit_transient(gens, phi, t, config)


def counted_products(monkeypatch, budget=np.inf):
    """A one-entry list that counts the sweep's products from now on; a
    product past the budget fails the test there."""
    products = [0]
    product = solvers._Products.__call__

    def counted(self, x, out):
        products[0] += 1
        assert products[0] <= budget, f"over the budget of {budget} products"
        return product(self, x, out)
    monkeypatch.setattr(solvers._Products, "__call__", counted)
    return products


def kmax_at(gens, t, tol=UNIFORMIZATION_TOL):
    """The sweep's truncation point kmax(t)."""
    lamt = 1.01 * np.max(np.abs(gens.total.diagonal())) * t
    return _truncation(np.array([lamt]), np.array([tol / max(lamt, 1.0)]))[0]


def test_a_time_short_of_twice_the_tail_step_takes_the_tail(
        optimal_config, optimal_gens, monkeypatch):
    """t = 1000 on the bundled fleet sums to kmax = 2,802, short of twice
    the certified step K = 2,130, and still stops at K: fewer than
    kmax + 1 products, at least kmax / 2, and rows within tol of the sums
    at tol = 1e-17, which never take the tail."""
    tol, t = UNIFORMIZATION_TOL, 1000.0
    phi = initial_distribution(optimal_config, optimal_gens.layout)
    kmax = kmax_at(optimal_gens, t)
    products = counted_products(monkeypatch)
    p = transient(optimal_gens, phi, [t])[0]
    assert kmax / 2 <= products[0] < kmax + 1
    monkeypatch.undo()
    p_ref = solvers._uniformization(optimal_gens, phi, [t], 1e-17, False)[0]
    assert np.abs(p - p_ref).sum() <= 2 * tol
    integral = transient_integral(optimal_gens, phi, t)
    integral_ref = solvers._uniformization(optimal_gens, phi, t, 1e-17,
                                           True)[0]
    assert np.abs(integral - integral_ref).sum() <= tol * t


def long_horizon_within_budget(gens, phi, monkeypatch):
    """p(1e6), formed with at most kmax(1e6) / 100 products."""
    counted_products(monkeypatch, budget=kmax_at(gens, 1e6) // 100)
    p = transient(gens, phi, [1e6])[0]
    monkeypatch.undo()
    return p


@pytest.mark.parametrize("n,R,pm", [(4, 3, True), (4, 3, False),
                                    (3, 2, True), (6, 3, True),
                                    (6, 3, False), (2, 1, False)])
def test_the_package_tolerance_certifies_the_tail(n, R, pm, monkeypatch):
    """Why the sweep runs at one tolerance: at UNIFORMIZATION_TOL it
    certifies its stationary tail on the chains the CLI and the benchmark
    serve, so t = 1e6 forms at most 1% of its kmax (1.76M to 2.44M
    steps), and its row is pi to within the tolerance with mass 1.  Below
    about 1e-11, pi's own accuracy in l1, no tail could be certified."""
    config = example_fleet_config(n, R, pm)
    gens = assemble_all(config, validate=False)
    phi = initial_distribution(config, gens.layout)
    p = long_horizon_within_budget(gens, phi, monkeypatch)
    assert np.abs(p - stationary_direct(gens)).sum() <= UNIFORMIZATION_TOL
    assert abs(p.sum() - 1.0) <= 1e-12


def test_an_uncertified_tail_breaks_the_product_budget(monkeypatch):
    """With the trigger's solve made to raise, the sweep takes no tail:
    t = 1e4 sums all its kmax steps, and t = 1e6 stops at the budget
    above, not two million steps later."""
    config = example_fleet_config(2, 1, False)
    gens = assemble_all(config, validate=False)
    phi = initial_distribution(config, gens.layout)

    def unsolved(gens):
        raise SolverError("no stationary solve")
    monkeypatch.setattr(solvers, "stationary_direct", unsolved)
    products = counted_products(monkeypatch)
    transient(gens, phi, [1e4])
    assert products[0] == kmax_at(gens, 1e4)
    monkeypatch.undo()
    monkeypatch.setattr(solvers, "stationary_direct", unsolved)
    with pytest.raises(AssertionError, match="over the budget"):
        long_horizon_within_budget(gens, phi, monkeypatch)


def test_an_exact_sum_forms_no_iterate_past_its_last_step(
        optimal_config, optimal_gens, monkeypatch):
    """t = 100 on the bundled fleet sums steps 0..kmax = 363 exactly: 363
    products, none after the last step."""
    phi = initial_distribution(optimal_config, optimal_gens.layout)
    products = counted_products(monkeypatch)
    transient(optimal_gens, phi, [100.0])
    assert products[0] == 363


@pytest.mark.parametrize("n", [4, 6])
def test_sweep_products_equal_the_sparse_product(n):
    """The sweep's products run scipy's private CSR kernel; they must stay
    PT @ v bit for bit, whatever scipy's version."""
    gens = assemble_all(example_fleet_config(n, 3, True), validate=False)
    D = gens.total
    PT = (sp.identity(D.shape[0], format="csr")
          + D / (1.01 * np.max(np.abs(D.diagonal())))).T.tocsr()
    product = solvers._Products(PT)
    rng = np.random.default_rng(n)
    v, out = rng.random(D.shape[0]), np.full(D.shape[0], np.nan)
    for _ in range(4):
        expected = PT @ v
        v, out = product(v, out), v
        np.testing.assert_array_equal(v, expected)
    with pytest.raises(ValueError, match="CSR"):
        solvers._Products(PT.tocsc())
    phi = np.full(D.shape[0] - 1, 1.0 / (D.shape[0] - 1))
    with pytest.raises(SolverError, match="states"):
        transient(gens, phi, [1.0])


def assert_sweep_equals_the_reference(gens, phi, grid, tol, monkeypatch):
    """p(t) and int_0^t p from the sweep equal the reference loop's bit for
    bit, and the sweep forms the loop's products less the one the loop
    forms after its last step, if it sums to the end: kmax products for an
    exact sum, K for a tail taken at step K."""
    kmax = kmax_at(gens, np.max(grid), tol)
    for integral in (False, True):
        expected, loop_products = reference_sweep(gens, phi, grid, tol,
                                                  integral)
        products = counted_products(monkeypatch)
        rows = solvers._uniformization(gens, phi, grid, tol, integral)
        monkeypatch.undo()
        np.testing.assert_array_equal(rows, expected)
        assert products[0] == min(loop_products, kmax)


REFERENCE_GRIDS = [[0.0], [0.0, 1.0, 10.0, 100.0], [100.0], [650.0, 10.0],
                   [1000.0], [1000.0, 5000.0, 50.0], [1e6, 0.0]]


@pytest.mark.parametrize("n,R,pm", [(4, 3, True), (4, 3, False), (3, 2, True),
                                    (5, 3, True), (2, 1, False)])
def test_sweep_equals_the_reference_loop(n, R, pm, monkeypatch):
    """On t = 0, exact sums, a grid ending between the trigger and K (t =
    650 on the bundled fleet: trigger 1,776, kmax 1,880, K 2,130), a time
    in (K, 2K] (t = 1000), tail times up to 1e6, and at tol = 1e-14, where
    no tail is taken."""
    config = example_fleet_config(n, R, pm)
    gens = assemble_all(config, validate=False)
    phi = initial_distribution(config, gens.layout)
    for grid in REFERENCE_GRIDS:
        assert_sweep_equals_the_reference(gens, phi, grid, UNIFORMIZATION_TOL,
                                          monkeypatch)
    assert_sweep_equals_the_reference(gens, phi, [1000.0, 100.0], 1e-14,
                                      monkeypatch)


def test_tail_step_of_six_units_equals_the_reference_loop(monkeypatch):
    """K = 4,400 at n = 6, R = 3, PM on."""
    config = example_fleet_config(6, 3, True)
    gens = assemble_all(config, validate=False)
    phi = initial_distribution(config, gens.layout)
    products = counted_products(monkeypatch)
    rows = transient(gens, phi, [1e6])
    monkeypatch.undo()
    assert products[0] == 4400
    np.testing.assert_array_equal(
        rows, reference_sweep(gens, phi, [1e6], UNIFORMIZATION_TOL, False)[0])


@settings(max_examples=3, deadline=None,
          suppress_health_check=[HealthCheck.too_slow,
                                 HealthCheck.function_scoped_fixture])
@given(small_models())
def test_sweep_equals_the_reference_loop_on_random_models(monkeypatch,
                                                          config):
    gens = assemble_all(config, validate=False)
    phi = initial_distribution(config, gens.layout)
    for grid in ([0.0, 1.0, 10.0], [100.0, 1000.0, 5.0]):
        assert_sweep_equals_the_reference(gens, phi, grid, UNIFORMIZATION_TOL,
                                          monkeypatch)


def test_long_sweep_memory_does_not_grow_with_the_horizon():
    """Poisson weights are formed block by block: at lam t = 2.4e7 the full
    weight column alone would take about 190 MB."""
    config = example_fleet_config(2, 1, False)
    gens = assemble_all(config, validate=False)
    phi = initial_distribution(config, gens.layout)
    tracemalloc.start()
    try:
        row = transient(gens, phi, [1e7])[0]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert abs(row.sum() - 1.0) <= 1e-12
    assert peak < 20e6


@pytest.mark.parametrize("t", [-1.0, np.nan, np.inf])
def test_bad_time_is_an_error(optimal_config, optimal_gens, t):
    phi = initial_distribution(optimal_config, optimal_gens.layout)
    with pytest.raises(SolverError, match="finite times"):
        transient(optimal_gens, phi, [10.0, t])


def test_time_beyond_the_step_counter_is_an_error(optimal_config,
                                                  optimal_gens):
    phi = initial_distribution(optimal_config, optimal_gens.layout)
    with pytest.raises(SolverError, match="lam t < 2"):
        transient(optimal_gens, phi, [10.0, 1e300])


def test_empty_time_grid_is_an_error(optimal_config, optimal_gens):
    phi = initial_distribution(optimal_config, optimal_gens.layout)
    for solve in (transient, transient_integral):
        with pytest.raises(SolverError, match="nonempty grid"):
            solve(optimal_gens, phi, [])


def test_availability_settles_monotonically(optimal_config, optimal_gens, optimal_pi):
    """|A(t) - A| shrinks along a geometric grid past the burn-in."""
    phi = initial_distribution(optimal_config, optimal_gens.layout)
    grid = 50.0 * 2.0 ** np.arange(6)
    a_t = availability_transient(optimal_gens, phi, grid)
    gaps = np.abs(a_t - availability_stationary(optimal_pi, optimal_gens.layout))
    assert np.all(np.diff(gaps) < 1e-12)
