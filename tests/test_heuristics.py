"""Fractional allocation identities."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from cfpower.config import NetworkConfig
from cfpower.heuristics import (equal_power, fractional_coefficients,
                                heuristic_allocation, side_info_ratios)

V = NetworkConfig().v_exponent

finite_gains = st.lists(
    st.floats(1e-15, 1e-3), min_size=6, max_size=6).map(
        lambda v: np.asarray(v).reshape(3, 2))


@given(finite_gains)
def test_normalization_identities(beta):
    p_max = 1.0
    rho1 = fractional_coefficients(beta, V, p_max)
    rho2 = side_info_ratios(beta, V, p_max)
    assert np.allclose(rho1.sum(axis=0), np.sqrt(p_max), rtol=1e-12)
    assert np.allclose(rho2.sum(axis=1), np.sqrt(p_max), rtol=1e-12)
    assert np.all(rho1 > 0.0) and np.all(rho2 > 0.0)


@given(finite_gains, st.floats(1e-3, 1e3))
def test_scale_invariance(beta, factor):
    # both schemes depend on beta only through ratios
    assert np.allclose(fractional_coefficients(beta, V, 1.0),
                       fractional_coefficients(factor * beta, V, 1.0),
                       rtol=1e-9)
    assert np.allclose(side_info_ratios(beta, V, 1.0),
                       side_info_ratios(factor * beta, V, 1.0), rtol=1e-9)


def test_equal_gains_split_evenly():
    beta = np.full((4, 3), 2.5e-9)
    rho1 = fractional_coefficients(beta, V, 4.0)
    assert np.allclose(rho1, 2.0 / 4.0)
    rho2 = side_info_ratios(beta, V, 4.0)
    assert np.allclose(rho2, 2.0 / 3.0)


def test_single_ue_takes_the_full_budget():
    beta = np.array([[3e-8, 5e-11]])
    rho1 = fractional_coefficients(beta, V, 2.0)
    assert np.allclose(rho1, np.sqrt(2.0))


def test_exponent_changes_the_split():
    beta = np.array([[1e-6], [1e-9]])
    soft = fractional_coefficients(beta, 0.2, 1.0)
    hard = fractional_coefficients(beta, 1.0, 1.0)
    # larger v leans harder toward the strong UE
    assert hard[0, 0] > soft[0, 0]
    assert hard[1, 0] < soft[1, 0]


def test_heuristic_allocation_saturates_budgets(assert_budget):
    rng = np.random.default_rng(0)
    beta = rng.lognormal(mean=-20.0, size=(5, 4))
    alloc = heuristic_allocation(beta, V, 0.8)
    per_ap = (alloc.mu ** 2).sum(axis=0)
    assert np.allclose(per_ap, 0.8, rtol=1e-12)
    assert_budget(alloc.mu, 0.8)


def test_equal_power_allocation(assert_budget):
    alloc = equal_power(K=5, L=3, p_max=0.2)
    assert alloc.mu.shape == (5, 3)
    assert np.allclose(alloc.mu, np.sqrt(0.2 / 5))
    assert np.allclose((alloc.mu ** 2).sum(axis=0), 0.2, rtol=1e-12)
    assert_budget(alloc.mu, 0.2)


def test_nonpositive_gains_rejected():
    with pytest.raises(ValueError):
        fractional_coefficients(np.array([[1.0, 0.0]]), V, 1.0)
    with pytest.raises(ValueError):
        side_info_ratios(np.array([[1.0, -2.0]]), V, 1.0)
