"""Solvers: uniformized transients and the two stationary routes."""

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.sparse.linalg import expm_multiply

from standbymmap.assembler import assemble_all
from standbymmap.config import example_fleet_config
from standbymmap.measures import availability_stationary, availability_transient
from standbymmap.solvers import (SolverError, initial_distribution,
                                 stationary_block, stationary_direct,
                                 transient, transient_integral)


def test_initial_distribution_lives_in_the_fresh_block(optimal_config, optimal_gens):
    phi = initial_distribution(optimal_config, optimal_gens.layout)
    assert phi.sum() == pytest.approx(1.0)
    lo, hi = optimal_gens.layout.span(optimal_gens.layout.n, 0, "v")
    assert np.all(phi[:lo] == 0) and np.all(phi[hi:] == 0)
    assert np.all(phi >= 0)


@pytest.mark.parametrize("n,R,pm", [(4, 3, True), (4, 1, True), (2, 2, False)])
def test_stationary_routes_agree(n, R, pm):
    gens = assemble_all(example_fleet_config(n, R, pm), validate=False)
    direct = stationary_direct(gens)
    block = stationary_block(gens)
    assert np.abs(direct - block).sum() < 1e-8


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
    rows = transient(optimal_gens, phi, [1.0, 10.0, 100.0], tol=tol)
    leak = 1.0 - rows.sum(axis=1)
    assert np.all((leak > 1e-12) & (leak <= tol))
    t = 100.0
    gap = t - transient_integral(optimal_gens, phi, t, tol=tol).sum()
    assert 1e-12 < gap <= tol * t


@pytest.mark.parametrize("t", [-1.0, np.nan, np.inf])
def test_bad_time_is_an_error(optimal_config, optimal_gens, t):
    phi = initial_distribution(optimal_config, optimal_gens.layout)
    with pytest.raises(SolverError, match="finite times"):
        transient(optimal_gens, phi, [10.0, t])


def test_availability_settles_monotonically(optimal_config, optimal_gens, optimal_pi):
    """|A(t) - A| shrinks along a geometric grid past the burn-in."""
    phi = initial_distribution(optimal_config, optimal_gens.layout)
    grid = 50.0 * 2.0 ** np.arange(6)
    a_t = availability_transient(optimal_gens, phi, grid)
    gaps = np.abs(a_t - availability_stationary(optimal_pi, optimal_gens.layout))
    assert np.all(np.diff(gaps) < 1e-12)
