"""PH distribution helpers: moments, Kronecker algebra, renewal vectors."""

from functools import reduce

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from standbymmap.ph import (PhDistribution, kron, kron_sum, ph_mean,
                            renewal_stationary)

from example_model import example_fleet_config
from ph_sampling import sample_ph_mean


def random_subgen(draw, order):
    rates = draw(st.lists(st.floats(0.1, 5.0), min_size=order, max_size=order))
    off = draw(st.lists(st.floats(0.0, 1.0),
                        min_size=order * order, max_size=order * order))
    M = np.array(off).reshape(order, order)
    np.fill_diagonal(M, 0.0)
    row = M.sum(axis=1)
    return M - np.diag(row + np.array(rates))


@st.composite
def ph_dists(draw, max_order=4):
    order = draw(st.integers(1, max_order))
    subgen = random_subgen(draw, order)
    init = np.zeros(order)
    init[draw(st.integers(0, order - 1))] = 1.0
    return PhDistribution(init, subgen)


def test_exponential_mean():
    ph = PhDistribution(np.array([1.0]), np.array([[-2.0]]))
    assert ph_mean(ph) == pytest.approx(0.5)


def test_erlang_mean_adds_stage_means():
    ph = PhDistribution(np.array([1.0, 0.0]),
                        np.array([[-3.0, 3.0], [0.0, -5.0]]))
    assert ph_mean(ph) == pytest.approx(1 / 3 + 1 / 5)


def test_bundled_means_match_reference_table():
    config = example_fleet_config()
    expected = {
        "internal": 45.3333,
        "shock": 11.2,
        "inspection": 16.6667,
        "corrective": 7.7640,
        "preventive": 1.7487,
    }
    for name, val in expected.items():
        assert round(ph_mean(getattr(config, name)), 4) == val


@pytest.mark.parametrize("name", ["internal", "shock", "corrective"])
def test_means_agree_with_monte_carlo(name):
    config = example_fleet_config()
    ph = getattr(config, name)
    est = sample_ph_mean(ph, samples=10 ** 6, seed=42)
    assert est.covers(ph_mean(ph), width=3.0)


# matrices of 1 to 3 rows and columns: 1 x 1, rows, columns and full ones
matrices = st.tuples(st.integers(1, 3), st.integers(1, 3)).flatmap(
    lambda shape: arrays(np.float64, shape, elements=st.floats(
        -1e3, 1e3, allow_subnormal=True) | st.just(0.0)))


@given(st.lists(matrices, min_size=2, max_size=3))
@example([np.ones((1, 1)), np.arange(3.0)[None, :], np.arange(3.0)[:, None]])
@example([np.arange(3.0)[:, None], np.full((1, 1), -0.0),
          np.arange(4.0)[None, :]])
@example([np.arange(1.0, 4.0), np.eye(2), np.array([0.5, -0.0]),
          np.array([2.0])])
@settings(max_examples=100, deadline=None)
def test_kron_is_bit_identical_to_numpy(mats):
    """Products of two to four factors, a vector taken as a row (as theta's
    are), entry for entry and bit for bit."""
    ours, theirs = kron(*mats), reduce(np.kron, mats)
    assert ours.shape == theirs.shape and ours.dtype == theirs.dtype
    assert ours.tobytes() == theirs.tobytes()


@given(ph_dists(), ph_dists())
@settings(max_examples=30, deadline=None)
def test_kron_sum_is_a_subgenerator(a, b):
    ks = kron_sum(a.subgen, b.subgen)
    assert ks.shape == (a.order * b.order,) * 2
    off = ks - np.diag(np.diag(ks))
    assert np.all(off >= -1e-12)
    assert np.all(ks.sum(axis=1) <= 1e-9)


@given(ph_dists(), ph_dists())
@settings(max_examples=30, deadline=None)
def test_kron_sum_mean_of_minimum_bound(a, b):
    # the minimum of two PH variables is PH with the Kronecker sum
    joint = PhDistribution(np.kron(a.init, b.init),
                           kron_sum(a.subgen, b.subgen))
    assert ph_mean(joint) <= min(ph_mean(a), ph_mean(b)) + 1e-9


@given(ph_dists())
@settings(max_examples=30, deadline=None)
def test_renewal_stationary_is_a_distribution(ph):
    pi = renewal_stationary(ph)
    assert pi.shape == (ph.order,)
    assert pi.sum() == pytest.approx(1.0)
    assert np.all(pi >= -1e-12)


def test_renewal_stationary_balances_the_renewal_generator():
    ph = example_fleet_config().shock
    gen = ph.subgen + np.outer(ph.exit_vector, ph.init)
    pi = renewal_stationary(ph)
    assert np.max(np.abs(pi @ gen)) < 1e-12


def test_exit_vector_complements_row_sums():
    ph = example_fleet_config().inspection
    np.testing.assert_allclose(ph.exit_vector,
                               -ph.subgen.sum(axis=1), atol=1e-12)
