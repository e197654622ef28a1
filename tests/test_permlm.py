"""Linear-model permutation schemes: closed forms vs refits, the
Frisch-Waugh coefficient identity, and distributional sanity checks."""

import itertools
import tracemalloc

import numpy as np
import pytest
import scipy.stats

from randtest import (
    CompleteDesign,
    Dataset,
    InvalidConfig,
    PermLmSpec,
    StatisticSpec,
    ZeroDenominator,
    closed_form_replicates,
    exhaustive_assignments,
    frt_p_value,
    perm_lm_p_value,
    refit_replicates,
    tau_fisher,
)
from randtest.permlm import _Projection
from conftest import gen, random_dataset

SCHEMES = ("fl", "kennedy", "terbraak", "manly")


def _perms(rng, r, n):
    return np.stack([rng.permutation(n) for _ in range(r)])


def test_spec_normalization_and_label():
    assert PermLmSpec("Manly", "Robust").label == "manly:robust"
    # only the canonical scheme names are accepted, in any case
    for alias in ("freedman-lane", "freedmanlane", "ter-braak", "ter_braak", "tb", "TB"):
        with pytest.raises(InvalidConfig):
            PermLmSpec(alias)
    for bad in (("bootstrap",), ("fl", "huber")):
        with pytest.raises(InvalidConfig) as err:
            PermLmSpec(*bad)
        assert isinstance(err.value, ValueError)


def test_kennedy_equals_freedman_lane_coefficients():
    data = random_dataset(311, n=30, j=2)
    perms = _perms(gen(313), 60, 30)
    coef_fl, _, _ = closed_form_replicates(data, perms, "fl")
    coef_k, _, _ = closed_form_replicates(data, perms, "kennedy")
    assert np.max(np.abs(coef_fl - coef_k)) < 1e-10


def test_terbraak_identity_permutation_is_zero():
    # the centered coefficient is C * delta'eps_F, an exactly-orthogonal
    # inner product, so only roundoff of that cancellation can remain
    data = random_dataset(317, n=20, j=1)
    identity = np.arange(20)[None, :]
    spec = PermLmSpec("terbraak", "none")
    stats = _Projection(data).replicate_stats(identity, spec)
    assert abs(stats[0]) < 1e-12


def test_closed_forms_match_refits():
    data = random_dataset(331, n=30, j=2)
    perms = _perms(gen(337), 40, 30)
    for scheme in SCHEMES:
        fast = closed_form_replicates(data, perms, scheme)
        slow = refit_replicates(data, perms, scheme)
        for a, b in zip(fast, slow):
            assert np.max(np.abs(a - b)) < 1e-8, scheme


def test_projection_identities():
    data = random_dataset(347, n=24, j=2)
    proj = _Projection(data)
    ones_x = np.column_stack([np.ones(data.n), data.x])
    h = ones_x @ np.linalg.solve(ones_x.T @ ones_x, ones_x.T)
    # H delta = 0: delta lives in the orthogonal complement of (1, X)
    assert np.max(np.abs(h @ proj.delta)) < 1e-10
    # observed coefficient is the ANCOVA estimate
    assert abs(proj.tau_f - tau_fisher(data).tau_hat) < 1e-10


def test_delta_norm_identity_standardized():
    # with whitened covariates (exact identity covariance, (N-1) denominator)
    # ||delta||^2 = N (p1 p0 - (1 - 1/N)^-1 p1^2 p0^2 tau_x' tau_x)
    rng = gen(349)
    n = 40
    x = rng.normal(size=(n, 3))
    x = x - x.mean(axis=0)
    chol = np.linalg.cholesky(np.cov(x, rowvar=False, ddof=1))
    x = np.linalg.solve(chol, x.T).T
    np.testing.assert_allclose(np.cov(x, rowvar=False, ddof=1), np.eye(3), atol=1e-12)
    z = np.zeros(n, dtype=np.int64)
    z[rng.permutation(n)[:15]] = 1
    y = x @ np.array([1.0, 0.5, -0.5]) + rng.normal(size=n)
    data = Dataset(y, z, x)
    proj = _Projection(data)
    p1 = 15 / n
    p0 = 1 - p1
    tau_x = x[z == 1].mean(axis=0) - x[z == 0].mean(axis=0)
    lam = 1.0 - 1.0 / n
    expected = n * (p1 * p0 - p1**2 * p0**2 * float(tau_x @ tau_x) / lam)
    assert abs(proj.ss_delta - expected) < 1e-8


def test_schemes_are_not_finite_sample_exact():
    # fixed outcomes at N=8: the FRT reference set has 70 points while the
    # permutation schemes range over all 8! label shuffles, and on at least
    # one dataset the resulting p-values must differ
    all_perms = np.array(list(itertools.permutations(range(8))), dtype=np.int64)
    design = CompleteDesign(8, 4)
    found = {scheme: False for scheme in SCHEMES}
    for seed in range(4):
        rng = gen((353, seed))
        y = rng.normal(size=8)
        x = rng.normal(size=(8, 1))
        z = np.repeat([1, 0], 4)
        data = Dataset(y, z, x)
        frt_p = frt_p_value(data, StatisticSpec("f", "none"), design, exact=True).p_value
        proj = _Projection(data)
        t_obs = float(proj.observed_triple()[0, 0])
        for scheme in SCHEMES:
            stats = proj.replicate_stats(all_perms, PermLmSpec(scheme, "none"))
            perm_p = float(np.mean(~(np.abs(stats) < abs(t_obs))))
            if abs(perm_p - frt_p) > 1e-12:
                found[scheme] = True
    assert all(found.values()), found


def test_replicates_look_normal_at_large_n():
    # robust-studentized replicate distributions should be close to N(0,1)
    data = random_dataset(359, n=500, j=2)
    design = CompleteDesign(500, 250)
    frt = frt_p_value(data, StatisticSpec("f", "robust"), design, r=2000, seed=8)
    dist = scipy.stats.kstest(frt.replicates, "norm").statistic
    assert dist < 0.05
    for scheme in SCHEMES:
        res = perm_lm_p_value(data, PermLmSpec(scheme, "robust"), r=2000, seed=8)
        dist = scipy.stats.kstest(res.replicates, "norm").statistic
        assert dist < 0.05, scheme


def test_perm_lm_p_value_contract(small_blocks):
    data = random_dataset(367, n=26, j=2)
    spec = PermLmSpec("fl", "robust")
    res = perm_lm_p_value(data, spec, r=99, seed=3)
    assert res.mode == "monte_carlo"
    assert res.design is None
    assert res.spec == spec
    assert res.p_value >= 1.0 / 100.0
    small_blocks(26 * 10)  # ten evaluation blocks
    again = perm_lm_p_value(data, spec, r=99, seed=3)
    assert again.p_value == res.p_value
    np.testing.assert_allclose(res.replicates, again.replicates, rtol=1e-12, atol=1e-12)


def test_kennedy_fl_identical_p_values_on_shared_stream():
    data = random_dataset(373, n=30, j=1)
    p_fl = perm_lm_p_value(data, PermLmSpec("fl", "none"), r=200, seed=5).p_value
    p_k = perm_lm_p_value(data, PermLmSpec("kennedy", "none"), r=200, seed=5).p_value
    assert p_fl == p_k


def test_zero_denominator_when_z_spanned():
    # make the covariate equal to z so the residualized treatment vanishes
    rng = gen(379)
    z = np.repeat([1, 0], 6)
    y = rng.normal(size=12)
    data = Dataset(y, z, z.astype(np.float64)[:, None])
    with pytest.raises(ZeroDenominator):
        _Projection(data)


def test_perm_lm_p_value_peak_memory_is_bounded_by_its_permutations():
    # replicates are evaluated in blocks, so the (rows, N) float64 temporaries
    # never span the whole set: the peak stays below twice the int64
    # permutation matrix
    data = random_dataset(389, n=1000, j=3)
    tracemalloc.start()
    try:
        perm_lm_p_value(data, PermLmSpec("fl", "robust"), r=2000, seed=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2000 * 1000 * 8, peak / 2**20
