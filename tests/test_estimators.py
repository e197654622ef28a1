"""Estimator triples: hand examples, the three adjustment identities, and
invariances shared by the whole family."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from randtest import (
    Dataset,
    DegenerateArm,
    EmptyStratum,
    EstimateTriple,
    InvalidConfig,
    InvariantViolation,
    MixedClusterTreatment,
    StatisticSpec,
    center_covariates,
    cluster_collapse,
    estimate,
    estimate_stratified,
    statistic,
    stratified_combine,
    studentize,
    tau_fisher,
    tau_lin,
    tau_neyman,
    tau_rosenbaum,
)
from conftest import gen, random_dataset


def _arm_means(x, z):
    return x[z == 1].mean(axis=0), x[z == 0].mean(axis=0)


# -- centering ----------------------------------------------------------------


def test_center_covariates():
    x = np.array([[1.0], [2.0], [3.0]])
    xc = center_covariates(x)
    np.testing.assert_allclose(xc[:, 0], [-1.0, 0.0, 1.0], atol=1e-12)
    np.testing.assert_allclose(center_covariates(xc), xc, atol=1e-12)
    assert x[0, 0] == 1.0  # input untouched


def test_lin_ignores_precentering():
    data = random_dataset(3, n=30, j=2)
    shifted = Dataset(data.y, data.z, data.x + np.array([5.0, -2.0]))
    t1 = tau_lin(data)
    t2 = tau_lin(shifted)
    assert abs(t1.tau_hat - t2.tau_hat) < 1e-10
    assert abs(t1.se_robust - t2.se_robust) < 1e-10


# -- difference in means ------------------------------------------------------


def test_neyman_constant_outcome():
    data = Dataset(np.full(6, 2.5), np.array([1, 1, 1, 0, 0, 0]), np.zeros((6, 1)))
    t = tau_neyman(data)
    assert t.tau_hat == 0.0 and t.se_classic == 0.0 and t.se_robust == 0.0


def test_neyman_hand_values(small_data):
    t = tau_neyman(Dataset(np.array([1.0, 2.0, 3.0, 4.0]), small_data.z, small_data.x))
    np.testing.assert_allclose(t.tau_hat, -2.0, atol=1e-14)
    t = tau_neyman(small_data)
    np.testing.assert_allclose(t.se_robust, 1.0, atol=1e-14)


def test_neyman_matches_ols_route():
    from randtest import fit_ols

    data = random_dataset(17, n=24, j=1)
    t = tau_neyman(data)
    design = np.column_stack([np.ones(data.n), data.z])
    fit = fit_ols(design, data.y)
    assert abs(t.tau_hat - fit.coefficients[1]) < 1e-12
    assert abs(t.se_classic - np.sqrt(fit.classic_cov[1, 1])) < 1e-12
    assert abs(t.se_robust - np.sqrt(fit.robust_cov[1, 1])) < 1e-12


def test_dataset_rejects_tiny_arms():
    from randtest import InvariantViolation

    with pytest.raises(InvariantViolation):
        Dataset(np.arange(4.0), np.array([1, 0, 0, 0]), np.zeros((4, 1)))


# -- residual and ANCOVA adjustments ------------------------------------------


def test_rosenbaum_orthogonal_covariate_is_neyman():
    rng = gen(23)
    n = 20
    z = np.repeat([1, 0], n // 2)
    y = rng.normal(size=n)
    x = rng.normal(size=(n, 1))
    x[:, 0] -= (x[:, 0] @ y) / (y @ y) * y  # force gamma_R ~ 0 is not enough;
    # orthogonalize against (1, y) so the pooled fit has exactly zero slope
    x[:, 0] -= x[:, 0].mean()
    x[:, 0] -= (x[:, 0] @ (y - y.mean())) / ((y - y.mean()) @ (y - y.mean())) * (y - y.mean())
    data = Dataset(y, z, x)
    r = tau_rosenbaum(data)
    assert abs(float(r.gamma_hat[0])) < 1e-10
    assert abs(r.tau_hat - tau_neyman(data).tau_hat) < 1e-10


def test_rosenbaum_noiseless_linear_outcome():
    rng = gen(29)
    x = rng.normal(size=(16, 2))
    y = x @ np.array([2.0, -1.0]) + 0.5
    z = np.repeat([1, 0], 8)
    t = tau_rosenbaum(Dataset(y, z, x))
    assert abs(t.tau_hat) < 1e-10
    assert t.se_classic < 1e-10 and t.se_robust < 1e-10


def test_rosenbaum_is_neyman_minus_pooled_slope_shift():
    for seed in range(10):
        data = random_dataset((31, seed))
        t_n = tau_neyman(data).tau_hat
        t_r = tau_rosenbaum(data)
        m1, m0 = _arm_means(data.x, data.z)
        rhs = t_n - (m1 - m0) @ t_r.gamma_hat
        assert abs(t_r.tau_hat - rhs) < 1e-10


def test_fisher_is_neyman_minus_ancova_slope_shift():
    # gamma_F = gamma_R - (1 - 1/N)^-1 p1 p0 tau_F (S2_x)^-1 tau_x
    for seed in range(10):
        data = random_dataset((37, seed))
        n = data.n
        p1 = data.n1 / n
        p0 = 1.0 - p1
        t_n = tau_neyman(data).tau_hat
        t_f = tau_fisher(data)
        g_r = tau_rosenbaum(data).gamma_hat
        m1, m0 = _arm_means(data.x, data.z)
        tau_x = m1 - m0
        s2x = np.cov(data.x, rowvar=False, ddof=1)
        g_f = g_r - (1.0 / (1.0 - 1.0 / n)) * p1 * p0 * t_f.tau_hat * np.linalg.solve(s2x, tau_x)
        rhs = t_n - tau_x @ g_f
        assert abs(t_f.tau_hat - rhs) < 1e-10
        # the formula gamma must match the ANCOVA covariate coefficients
        np.testing.assert_allclose(g_f, t_f.gamma_hat, atol=1e-10)


def test_fisher_equals_rosenbaum_when_balanced():
    # mirror the covariates across arms so tau_x = 0 exactly
    rng = gen(41)
    half = rng.normal(size=(10, 2))
    x = np.vstack([half, half])
    z = np.repeat([1, 0], 10)
    y = x @ np.array([1.0, 2.0]) + rng.normal(size=20)
    data = Dataset(y, z, x)
    assert abs(tau_fisher(data).tau_hat - tau_rosenbaum(data).tau_hat) < 1e-10


def test_fisher_fwl_univariate_route():
    from randtest import fit_ols

    data = random_dataset(43, n=26, j=2)
    ones_x = np.column_stack([np.ones(data.n), data.x])
    h = ones_x @ np.linalg.solve(ones_x.T @ ones_x, ones_x.T)
    resid = np.eye(data.n) - h
    fit = fit_ols((resid @ data.z.astype(np.float64))[:, None], resid @ data.y)
    assert abs(fit.coefficients[0] - tau_fisher(data).tau_hat) < 1e-12


# -- interacted adjustment ----------------------------------------------------


def test_lin_equals_fisher_when_slopes_shared_and_balanced():
    rng = gen(47)
    half = rng.normal(size=(12, 1))
    x = np.vstack([half, half])
    z = np.repeat([1, 0], 12)
    y = 2.0 * z + x[:, 0] * 3.0 + np.tile(rng.normal(size=12), 2)
    data = Dataset(y, z, x)
    # identical covariates and outcomes-by-arm force equal arm slopes
    assert abs(tau_lin(data).tau_hat - tau_fisher(data).tau_hat) < 1e-8


def test_lin_is_neyman_minus_weighted_arm_slope_shift():
    for seed in range(10):
        data = random_dataset((53, seed))
        t_n = tau_neyman(data).tau_hat
        t_l = tau_lin(data)
        m1, m0 = _arm_means(data.x, data.z)
        assert abs(t_l.tau_hat - (t_n - (m1 - m0) @ t_l.gamma_hat)) < 1e-10


def test_lin_armwise_noiseless():
    # y_i = z + x_i' gamma_z with exactly centered x: arm fits are exact,
    # tau = intercept difference = 1, both SEs 0
    rng = gen(59)
    x = rng.normal(size=(20, 2))
    x -= x.mean(axis=0)
    z = np.repeat([1, 0], 10)
    g1, g0 = np.array([1.0, -2.0]), np.array([0.5, 3.0])
    y = np.where(z == 1, 1.0 + x @ g1, x @ g0)
    # per-arm centering differs from pooled centering; re-center each arm's
    # block so both arm regressions interpolate exactly
    x[z == 1] -= x[z == 1].mean(axis=0)
    x[z == 0] -= x[z == 0].mean(axis=0)
    y = np.where(z == 1, 1.0 + x @ g1, x @ g0)
    t = tau_lin(Dataset(y, z, x))
    np.testing.assert_allclose(t.tau_hat, 1.0, atol=1e-10)
    assert t.se_classic < 1e-8 and t.se_robust < 1e-8
    np.testing.assert_allclose(t.gamma_arms[0], g1, atol=1e-8)
    np.testing.assert_allclose(t.gamma_arms[1], g0, atol=1e-8)


def test_lin_degenerate_arm():
    data = random_dataset(61, n=10, j=3)
    z = np.zeros(10, dtype=np.int64)
    z[:4] = 1  # 4 treated < J+2 = 5
    with pytest.raises(DegenerateArm):
        tau_lin(Dataset(data.y, z, data.x))


# -- family invariances -------------------------------------------------------


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 10**6))
def test_affine_covariate_invariance(seed):
    rng = gen((67, seed))
    data = random_dataset((71, seed), n=24, j=2)
    a = rng.normal(size=(2, 2)) + 2.0 * np.eye(2)
    b = rng.normal(size=2)
    mapped = Dataset(data.y, data.z, data.x @ a + b)
    for f in (tau_rosenbaum, tau_fisher, tau_lin):
        t1, t2 = f(data), f(mapped)
        assert abs(t1.tau_hat - t2.tau_hat) < 1e-8
        assert abs(t1.se_robust - t2.se_robust) < 1e-8


def test_location_shift_invariance():
    data = random_dataset(73)
    shifted = Dataset(data.y + 17.5, data.z, data.x)
    for adj in "nrfl":
        t1, t2 = estimate(data, adj), estimate(shifted, adj)
        assert abs(t1.tau_hat - t2.tau_hat) < 1e-10
        assert abs(t1.se_classic - t2.se_classic) < 1e-10
        assert abs(t1.se_robust - t2.se_robust) < 1e-10


@pytest.mark.parametrize("move", ["scale-1e10", "scale-1e11", "shift-1e6"])
def test_covariate_units_do_not_trip_the_rank_test(move):
    # the fits' rank test sees unit-scaled, centered columns
    data = random_dataset(83, n=40, j=2)
    kind, size = move.split("-")
    moved = Dataset(data.y, data.z, data.x * float(size) if kind == "scale" else data.x + float(size))
    for adj in "rfl":
        t1, t2 = estimate(data, adj), estimate(moved, adj)
        assert abs(t1.tau_hat - t2.tau_hat) < 1e-8
        assert abs(t1.se_classic - t2.se_classic) < 1e-8
        assert abs(t1.se_robust - t2.se_robust) < 1e-8


def test_arm_relabel_negates_tau():
    data = random_dataset(79, n=30, j=2)
    flipped = Dataset(data.y, 1 - data.z, data.x)
    for adj in "nrfl":
        t1, t2 = estimate(data, adj), estimate(flipped, adj)
        assert abs(t1.tau_hat + t2.tau_hat) < 1e-10
        assert abs(t1.se_classic - t2.se_classic) < 1e-10
        assert abs(t1.se_robust - t2.se_robust) < 1e-10


# -- statistic dispatch -------------------------------------------------------


def test_statistic_hand_values(small_data):
    d1 = Dataset(np.array([1.0, 2.0, 3.0, 4.0]), small_data.z, small_data.x)
    assert statistic(d1, StatisticSpec("n", "none")) == -2.0
    assert statistic(small_data, StatisticSpec("n", "robust")) == -1.0
    const = Dataset(np.zeros(4), small_data.z, small_data.x)
    for adj in "nr":
        for stud in ("none", "classic", "robust"):
            assert statistic(const, StatisticSpec(adj, stud)) == 0.0


def test_statistic_spec_rejects_bad_labels():
    for bad in (("q", "robust"), ("n", "huber")):
        with pytest.raises(InvalidConfig) as err:
            StatisticSpec(*bad)
        assert isinstance(err.value, ValueError)


def test_studentize_zero_se_sentinel():
    t = EstimateTriple(2.0, 0.0, 0.0)
    assert studentize(t, "robust") == np.inf
    assert studentize(EstimateTriple(-2.0, 0.0, 0.0), "classic") == -np.inf
    assert studentize(EstimateTriple(0.0, 0.0, 0.0), "robust") == 0.0


# -- cluster collapse ---------------------------------------------------------


def test_cluster_collapse_singletons():
    data = Dataset(
        np.array([1.0, 2.0, 3.0, 4.0]),
        np.array([1, 0, 1, 0]),
        np.array([[1.0], [2.0], [3.0], [4.0]]),
        clusters=np.array(["a", "b", "c", "d"]),
    )
    out = cluster_collapse(data)
    np.testing.assert_allclose(np.sort(out.y), np.sort(data.y), atol=1e-12)
    assert out.clusters is None


def test_cluster_collapse_hand_example():
    # clusters of size 2 with nbar = 2: Y = (1,2) and (3,4) collapse to the
    # scaled totals 1.5 and 3.5 (doubled to satisfy the two-per-arm minimum)
    data = Dataset(
        np.array([1.0, 2.0, 3.0, 4.0, 1.0, 2.0, 3.0, 4.0]),
        np.array([1, 1, 0, 0, 1, 1, 0, 0]),
        np.ones((8, 1)),
        clusters=np.array([0, 0, 1, 1, 2, 2, 3, 3]),
    )
    out = cluster_collapse(data)
    np.testing.assert_allclose(np.sort(out.y), [1.5, 1.5, 3.5, 3.5], atol=1e-12)
    assert out.n == 4


def test_cluster_collapse_equal_sizes_matches_unit_level():
    rng = gen(83)
    m, size = 8, 3
    clusters = np.repeat(np.arange(m), size)
    z_c = np.repeat([1, 0], m // 2)
    z = z_c[clusters]
    y = rng.normal(size=m * size)
    x = rng.normal(size=(m * size, 1))
    data = Dataset(y, z, x, clusters=clusters)
    out = cluster_collapse(data)
    # nbar equals the common size, so collapsed tau_N = unit-level tau_N
    assert abs(tau_neyman(out).tau_hat - tau_neyman(data).tau_hat) < 1e-10


def test_split_cluster_treatment_rejected_at_construction():
    with pytest.raises(MixedClusterTreatment):
        Dataset(
            np.arange(4.0),
            np.array([1, 0, 1, 0]),
            np.zeros((4, 1)),
            clusters=np.array([0, 0, 1, 1]),
        )


def test_construction_names_the_first_bad_cluster_and_stratum():
    y, x = np.arange(12.0), np.zeros((12, 1))
    # clusters 2 and 5 mix treatment; cluster codes follow first appearance
    z = np.array([1, 1, 0, 0, 1, 0, 0, 0, 1, 1, 0, 1])
    with pytest.raises(MixedClusterTreatment, match=r"^treatment varies within cluster 2$"):
        Dataset(y, z, x, clusters=np.repeat(np.arange(6), 2))
    # strata 1 and 3 have a single unit in one arm
    y, x = np.arange(20.0), np.zeros((20, 1))
    z = np.array([1, 1, 0, 0, 0, 1, 0, 0, 0, 0, 1, 1, 1, 0, 0, 1, 1, 1, 1, 0])
    with pytest.raises(
        InvariantViolation, match=r"^stratum 1 needs >= 2 units per arm, got N1=1, N0=4$"
    ):
        Dataset(y, z, x, strata=np.repeat(np.arange(4), 5))


# -- stratified combination ---------------------------------------------------


def test_stratified_combine_hand_example():
    a = EstimateTriple(1.0, 1.0, 1.0)
    b = EstimateTriple(3.0, 1.0, 1.0)
    out = stratified_combine([a, b], np.array([0.5, 0.5]))
    np.testing.assert_allclose(out.tau_hat, 2.0, atol=1e-14)
    np.testing.assert_allclose(out.se_robust**2, 0.5, atol=1e-14)
    np.testing.assert_allclose(out.se_classic**2, 0.5, atol=1e-14)


def test_stratified_combine_single_stratum_identity():
    t = EstimateTriple(1.25, 0.5, 0.75)
    out = stratified_combine([t], np.array([1.0]))
    assert out.tau_hat == t.tau_hat
    assert abs(out.se_robust - t.se_robust) < 1e-14


def test_estimate_stratified_matches_manual_combination():
    rng = gen(89)
    n = 36
    strata = np.repeat([0, 1, 2], 12)
    z = np.zeros(n, dtype=np.int64)
    for k in range(3):
        idx = np.where(strata == k)[0]
        z[rng.permutation(idx)[:5]] = 1
    x = rng.normal(size=(n, 1))
    y = x[:, 0] + rng.normal(size=n)
    data = Dataset(y, z, x, strata=strata)
    combined = estimate_stratified(data, "n")
    parts = []
    for k in range(3):
        idx = strata == k
        parts.append(tau_neyman(Dataset(y[idx], z[idx], x[idx])))
    manual = stratified_combine(parts, np.array([1 / 3, 1 / 3, 1 / 3]))
    assert abs(combined.tau_hat - manual.tau_hat) < 1e-12
    assert abs(combined.se_robust - manual.se_robust) < 1e-12


def test_estimate_stratified_requires_strata():
    with pytest.raises(EmptyStratum):
        estimate_stratified(random_dataset(97), "n")
