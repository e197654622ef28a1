"""Small dense OLS kernel: exact examples, sandwich algebra, rank handling."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from randtest import DimensionMismatch, RankDeficient, ZeroRegressor, fit_ols, univariate_ols
from conftest import gen


def test_two_by_two_normal_equations():
    # X = [(1,0),(1,0),(1,1),(1,1)], y = (0,2,1,3): beta = (1, 1)
    x = np.array([[1.0, 0.0], [1.0, 0.0], [1.0, 1.0], [1.0, 1.0]])
    y = np.array([0.0, 2.0, 1.0, 3.0])
    fit = fit_ols(x, y)
    np.testing.assert_allclose(fit.coefficients, [1.0, 1.0], atol=1e-12)
    assert fit.dof == 2


def test_hc0_two_group_entry_is_one():
    # Y ~ (1, Z) with Z=(1,1,0,0), Y=(0,2,1,3):
    # (2,2) entry = (N1-1)/N1^2 * S1^2 + (N0-1)/N0^2 * S0^2 = 1/4*2 + 1/4*2 = 1
    z = np.array([1.0, 1.0, 0.0, 0.0])
    x = np.column_stack([np.ones(4), z])
    y = np.array([0.0, 2.0, 1.0, 3.0])
    fit = fit_ols(x, y)
    np.testing.assert_allclose(fit.robust_cov[1, 1], 1.0, atol=1e-12)


def test_univariate_hand_example():
    # u = (1,-1), v = (1,1): tau0 = 0, classic se^2 = 1, robust se^2 = 0.5
    tau0, se_c, se_r = univariate_ols(np.array([1.0, -1.0]), np.array([1.0, 1.0]))
    assert tau0 == 0.0
    np.testing.assert_allclose(se_c**2, 1.0, atol=1e-14)
    np.testing.assert_allclose(se_r**2, 0.5, atol=1e-14)


def test_univariate_agrees_with_fit_ols():
    rng = gen(7)
    for _ in range(20):
        v = rng.normal(size=12)
        u = 0.3 * v + rng.normal(size=12)
        tau0, se_c, se_r = univariate_ols(u, v)
        fit = fit_ols(v[:, None], u)
        assert abs(tau0 - fit.coefficients[0]) < 1e-12
        assert abs(se_c - np.sqrt(fit.classic_cov[0, 0])) < 1e-12
        assert abs(se_r - np.sqrt(fit.robust_cov[0, 0])) < 1e-12


def test_residuals_orthogonal_to_design():
    rng = gen(11)
    x = np.column_stack([np.ones(30), rng.normal(size=(30, 3))])
    y = rng.normal(size=30)
    fit = fit_ols(x, y)
    scale = max(1.0, float(np.abs(x.T @ y).max()))
    assert np.abs(x.T @ fit.residuals).max() / scale < 1e-8


def test_hc0_with_constant_squared_residuals_matches_classic():
    # Replacing each eps_i^2 by their mean turns the sandwich into
    # mean(eps^2) * (X'X)^-1, which is classic_cov scaled by (N-p)/N.
    rng = gen(13)
    n, p = 25, 3
    x = np.column_stack([np.ones(n), rng.normal(size=(n, p - 1))])
    y = rng.normal(size=n)
    fit = fit_ols(x, y)
    flat = fit.residuals.copy()
    flat[:] = np.sqrt(np.mean(fit.residuals**2))
    sandwich = fit.gram_inverse @ (x.T * flat**2) @ x @ fit.gram_inverse
    np.testing.assert_allclose(sandwich, fit.classic_cov * (n - p) / n, rtol=1e-10)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10**6))
def test_fitted_values_invariant_to_reparameterization(seed):
    rng = gen((9001, seed))
    n = 20
    x = np.column_stack([np.ones(n), rng.normal(size=(n, 2))])
    y = rng.normal(size=n)
    a = rng.normal(size=(3, 3)) + 3.0 * np.eye(3)
    fit1 = fit_ols(x, y)
    fit2 = fit_ols(x @ a, y)
    np.testing.assert_allclose(x @ fit1.coefficients, (x @ a) @ fit2.coefficients, atol=1e-8)


def test_rank_deficient_raises():
    x = np.array([[1.0, 2.0], [2.0, 4.0], [3.0, 6.0]])
    with pytest.raises(RankDeficient):
        fit_ols(x, np.array([1.0, 2.0, 3.0]))


def test_univariate_errors():
    with pytest.raises(ZeroRegressor):
        univariate_ols(np.array([1.0, 2.0]), np.zeros(2))
    with pytest.raises(DimensionMismatch):
        univariate_ols(np.ones(3), np.ones(4))
