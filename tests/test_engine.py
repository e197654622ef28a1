"""Randomization-test engine: exact enumeration, Monte Carlo p-values,
chunked-evaluation determinism, and interval inversion."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import randtest.designs as designs
import randtest.engine as engine
from randtest import (
    ALL_SPECS,
    ClusterDesign,
    CompleteDesign,
    Dataset,
    EmptyAcceptanceRegion,
    EstimateTriple,
    InvariantViolation,
    RerandomizedDesign,
    StatisticSpec,
    StratifiedDesign,
    TooLarge,
    ZeroSe,
    chi2_quantile,
    exhaustive_assignments,
    frt_p_value,
    frt_p_values,
    invert_ci,
    mahalanobis_many,
    wald_ci,
)
from conftest import gen, random_dataset

N_ROBUST = StatisticSpec("n", "robust")
N_NONE = StatisticSpec("n", "none")


# -- enumeration ---------------------------------------------------------------


def test_complete_enumeration_counts():
    zmat = exhaustive_assignments(CompleteDesign(4, 2))
    assert zmat.shape == (6, 4)
    assert np.all(zmat.sum(axis=1) == 2)
    assert len({tuple(r) for r in zmat}) == 6


def test_complete_enumeration_is_lexicographic():
    for n in range(11):
        for n1 in range(n + 1):
            want = np.zeros((math.comb(n, n1), n), dtype=np.uint8)
            for i, treated in enumerate(itertools.combinations(range(n), n1)):
                want[i, list(treated)] = 1
            got = designs._enumerate_complete(n, n1)
            assert got.dtype == np.uint8
            np.testing.assert_array_equal(got, want, err_msg=f"n={n} n1={n1}")


def test_stratified_enumeration_counts():
    strata = np.repeat([0, 1], [4, 4])
    design = StratifiedDesign(strata, ((4, 2), (4, 2)))
    zmat = exhaustive_assignments(design)
    assert zmat.shape == (36, 8)
    assert np.all(zmat[:, :4].sum(axis=1) == 2)
    assert np.all(zmat[:, 4:].sum(axis=1) == 2)
    assert len({tuple(r) for r in zmat}) == 36


def test_rem_enumeration_is_filtered_subset():
    rng = gen(211)
    x = rng.normal(size=(8, 1))
    a = chi2_quantile(0.6, 1)
    design = RerandomizedDesign(CompleteDesign(8, 4), a, x)
    base = exhaustive_assignments(design.base)
    filtered = exhaustive_assignments(design)
    assert 0 < filtered.shape[0] < base.shape[0]
    assert np.all(mahalanobis_many(filtered, x) < a)
    base_rows = {tuple(r) for r in base}
    assert all(tuple(r) in base_rows for r in filtered)


def test_enumeration_cap():
    with pytest.raises(TooLarge):
        exhaustive_assignments(CompleteDesign(40, 20))


# -- exact mode ----------------------------------------------------------------


def test_exact_hand_example():
    # Y=(10,9,1,0), Z=(1,1,0,0): |tau| = 9 is maximal, tied only with its
    # mirror assignment, so 2 of 6 assignments are at least as extreme
    data = Dataset(
        np.array([10.0, 9.0, 1.0, 0.0]),
        np.array([1, 1, 0, 0]),
        np.array([[0.0], [1.0], [2.0], [3.0]]),
    )
    res = frt_p_value(data, N_NONE, CompleteDesign(4, 2), exact=True)
    assert res.mode == "exact"
    assert res.replicates.shape == (6,)
    assert res.p_value == pytest.approx(2.0 / 6.0, abs=0)
    assert res.mc_se == 0.0
    assert res.t_obs == pytest.approx(9.0)


def test_exact_constant_outcome_p_is_one():
    data = Dataset(np.full(8, 1.25), np.repeat([1, 0], 4), gen(223).normal(size=(8, 1)))
    for spec in ALL_SPECS:
        res = frt_p_value(data, spec, CompleteDesign(8, 4), exact=True)
        assert res.p_value == 1.0
        assert res.t_obs == 0.0


def test_exact_p_has_enumeration_resolution():
    data = random_dataset(227, n=8, j=1)
    res = frt_p_value(data, N_ROBUST, CompleteDesign(8, 4), exact=True)
    assert res.p_value >= 1.0 / 70.0
    # p is a multiple of 1/70
    assert abs(res.p_value * 70 - round(res.p_value * 70)) < 1e-12


# -- Monte Carlo mode ------------------------------------------------------------


def test_mc_p_value_bounds_and_se():
    data = random_dataset(229, n=20, j=2)
    res = frt_p_value(data, N_ROBUST, CompleteDesign(20, 10), r=99, seed=5)
    assert res.mode == "monte_carlo"
    assert res.replicates.shape == (99,)
    assert res.p_value >= 1.0 / 100.0
    k = round(res.p_value * 100) - 1
    assert res.p_value == (1 + k) / 100.0
    assert res.mc_se == pytest.approx(math.sqrt(res.p_value * (1 - res.p_value) / 99))


def test_mc_deterministic_across_chunk_counts(small_blocks):
    data = random_dataset(233, n=50, j=2)
    design = CompleteDesign(50, 25)
    base = frt_p_value(data, N_ROBUST, design, r=400, seed=11)
    # force several evaluation blocks; bounds depend on shape only, so a rerun
    # is bitwise identical and agrees with the one-block run to rounding
    small_blocks(50 * 37)
    chunked = frt_p_value(data, N_ROBUST, design, r=400, seed=11)
    rerun = frt_p_value(data, N_ROBUST, design, r=400, seed=11)
    np.testing.assert_array_equal(chunked.replicates, rerun.replicates)
    np.testing.assert_allclose(chunked.replicates, base.replicates, rtol=1e-12, atol=1e-12)
    assert chunked.p_value == rerun.p_value == base.p_value


def test_mc_seed_changes_replicates():
    data = random_dataset(239, n=16, j=1)
    a = frt_p_value(data, N_ROBUST, CompleteDesign(16, 8), r=50, seed=0)
    b = frt_p_value(data, N_ROBUST, CompleteDesign(16, 8), r=50, seed=1)
    assert not np.array_equal(a.replicates, b.replicates)


def test_one_sided_vs_two_sided():
    data = random_dataset(241, n=20, j=1, tau=2.0)
    common = dict(r=200, seed=3)
    design = CompleteDesign(20, 10)
    two = frt_p_value(data, N_ROBUST, design, sided="two", **common)
    one = frt_p_value(data, N_ROBUST, design, sided="one", **common)
    assert two.sided == "two" and one.sided == "one"
    if one.t_obs > 0:
        # right tail is a subset of the two-sided extreme set
        assert one.p_value <= two.p_value + 1e-12


def test_designer_analyzer_mismatch_allowed():
    # data generated under ReM, analyzed with complete-randomization FRT
    rng = gen(251)
    n = 24
    x = rng.normal(size=(n, 1))
    design = RerandomizedDesign(CompleteDesign(n, 12), chi2_quantile(0.3, 1), x)
    from randtest import draw

    z = draw(design, rng)
    y = x[:, 0] + rng.normal(size=n)
    data = Dataset(y, z, x)
    res = frt_p_value(data, N_ROBUST, CompleteDesign(n, 12), r=100, seed=0)
    assert 0 < res.p_value <= 1


def _design_case(kind):
    """(data, design) with 24 analyzed units (12 for clusters), J = 2."""
    data = random_dataset(257, n=24, j=2)
    if kind == "complete":
        return data, CompleteDesign(24, 12)
    if kind == "cluster":
        clusters = np.repeat(np.arange(12), 2)
        z = np.repeat(np.tile([1, 0], 6), 2)
        return Dataset(data.y, z, data.x, clusters=clusters), ClusterDesign(12, 6)
    if kind == "stratified":
        strata = np.repeat([0, 1], 12)
        z = np.tile(np.repeat([1, 0], 6), 2)
        data = Dataset(data.y, z, data.x, strata=strata)
        return data, StratifiedDesign.from_observed(strata, z)
    return data, RerandomizedDesign(CompleteDesign(24, 12), chi2_quantile(0.5, 2), data.x)


@pytest.mark.parametrize("kind", ["complete", "cluster", "stratified", "rem"])
def test_frt_p_values_matches_single_calls(kind, small_blocks):
    data, design = _design_case(kind)
    small_blocks(24 * 37)  # several evaluation blocks
    specs = list(ALL_SPECS)
    t_obs, p = frt_p_values(data, specs, design, r=150, seed=9)
    for i, spec in enumerate(specs):
        single = frt_p_value(data, spec, design, r=150, seed=9)
        assert t_obs[i] == single.t_obs
        assert p[i] == single.p_value


def _count_passes(monkeypatch):
    """The row count of each pass that an engine-built evaluator makes over
    a reference set, one entry per `triples_each` call."""
    passes, build = [], engine.make_evaluator

    def make_evaluator(*args):
        evaluator = build(*args)
        read = evaluator.triples_each

        def triples_each(zmat, adjustments):
            passes.append(zmat.shape[0])
            return read(zmat, adjustments)

        evaluator.triples_each = triples_each
        return evaluator

    monkeypatch.setattr(engine, "make_evaluator", make_evaluator)
    return passes


@pytest.mark.parametrize("kind", ["complete", "cluster", "stratified", "rem"])
def test_one_evaluator_pass_per_monte_carlo_test(kind, monkeypatch):
    # the observed assignment is row 0 of the reference set: R + 1 rows, one
    # pass; invert_ci first scores the observed row alone for its Wald interval
    data, design = _design_case(kind)
    passes = _count_passes(monkeypatch)
    frt_p_value(data, N_ROBUST, design, r=50, seed=1)
    frt_p_values(data, list(ALL_SPECS), design, r=60, seed=1)
    invert_ci(data, N_ROBUST, 0.05, design, r=70, seed=1)
    assert passes == [51, 61, 1, 71]


@pytest.mark.parametrize("kind", ["complete", "rem"])
def test_one_evaluator_pass_per_exact_test(kind, monkeypatch):
    data = random_dataset(263, n=10, j=1)
    design = CompleteDesign(10, 5)
    if kind == "rem":
        design = RerandomizedDesign(design, chi2_quantile(0.9, 1), data.x)
    rows = 1 + exhaustive_assignments(design).shape[0]
    passes = _count_passes(monkeypatch)
    res = frt_p_value(data, N_ROBUST, design, exact=True)
    invert_ci(data, N_ROBUST, 0.05, design, exact=True)
    assert passes == [rows, 1, rows]
    assert res.replicates.shape == (rows - 1,)


def test_mc_super_uniformity_by_enumeration():
    # add-one validity computed exactly: each of the 70 assignments plays
    # "observed" with probability 1/70 and its Monte Carlo extreme count is
    # Binomial(R, q_i) with q_i the exact tail weight, so P(p <= k/(1+R))
    # is a finite sum with no sampling noise in the bound itself
    import scipy.stats

    rng = gen(263)
    n = 8
    y = rng.normal(size=n)
    x = rng.normal(size=(n, 1))
    design = CompleteDesign(n, 4)
    zmat = exhaustive_assignments(design)
    from randtest._batch import CompleteEvaluator, stat_matrix

    t = stat_matrix(CompleteEvaluator(y, x), zmat, [N_ROBUST])[0][:, 0]
    q = np.array([np.mean(np.abs(t) >= abs(ti)) for ti in t])
    r = 19
    for k in range(1, r + 2):
        alpha = k / (r + 1)
        # p <= alpha iff the extreme count X <= k - 1
        prob = float(np.mean(scipy.stats.binom.cdf(k - 1, r, q)))
        assert prob <= alpha + 1e-9, (alpha, prob)
    # and the engine's Monte Carlo p matches the add-one rule on a spot check
    data = Dataset(y, zmat[3].astype(np.int64), x)
    res = frt_p_value(data, N_ROBUST, design, r=r, seed=0)
    x_cnt = int(np.sum(~(np.abs(res.replicates) < abs(res.t_obs))))
    assert res.p_value == (1 + x_cnt) / (1 + r)


# -- extremity counting ----------------------------------------------------------


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10**6))
def test_p_monotone_in_observed_magnitude(seed):
    rng = gen((269, seed))
    vals = rng.normal(size=40)
    t_small, t_big = sorted(rng.normal(size=2) ** 2)
    hi = engine._count_extreme(vals, t_small, "two")
    lo = engine._count_extreme(vals, t_big, "two")
    assert lo <= hi


def test_nan_replicates_count_as_extreme():
    vals = np.array([np.nan, 0.5, 3.0])
    assert engine._count_extreme(vals, 1.0, "two") == 2
    assert engine._count_extreme(vals, 1.0, "one") == 2


def test_infinite_sentinel_ordering():
    vals = np.array([np.inf, -np.inf, 1.0])
    assert engine._count_extreme(vals, 2.0, "two") == 2
    assert engine._count_extreme(vals, np.inf, "two") == 2


# -- Wald and inversion ----------------------------------------------------------


def test_wald_quantile_example():
    lo, hi = wald_ci(EstimateTriple(0.0, 1.0, 1.0), 0.05)
    assert lo == pytest.approx(-1.959964, abs=1e-5)
    assert hi == pytest.approx(1.959964, abs=1e-5)


def test_wald_quantile_is_scipys_within_8_ulps():
    import scipy.special

    for alpha in [0.001, 0.01, 0.05, 0.1, 0.2, 0.5, 1 - 1e-12]:
        q = float(scipy.special.ndtri(1 - alpha / 2))
        lo, hi = wald_ci(EstimateTriple(0.0, 2.0, 1.0), alpha)
        assert lo == -hi and abs(hi - q) <= 8 * math.ulp(q), alpha
    # 1 - alpha/2 rounds to 1, where the quantile is infinite
    for alpha in (1e-17, 5e-324):
        assert wald_ci(EstimateTriple(0.3, 2.0, 1.5), alpha) == (-math.inf, math.inf)


def test_wald_alpha_to_one_collapses():
    lo, hi = wald_ci(EstimateTriple(2.5, 1.0, 1.0), 1 - 1e-12)
    assert abs(hi - lo) < 1e-5
    assert lo <= 2.5 <= hi or abs(lo - 2.5) < 1e-5


def test_wald_contains_estimate_and_zero_se_raises():
    rng = gen(271)
    for _ in range(10):
        tau, se = rng.normal(), abs(rng.normal()) + 0.1
        lo, hi = wald_ci(EstimateTriple(tau, se, se), 0.05)
        assert lo < tau < hi
    with pytest.raises(ZeroSe):
        wald_ci(EstimateTriple(1.0, 0.0, 0.0), 0.05)


def test_invert_ci_constant_effect_exact():
    # constant base outcome plus effect c0 on the treated: subtracting c0
    # restores a constant vector, the sharpest possible null
    c0 = 1.5
    z = np.repeat([1, 0], 4)
    y = np.full(8, 2.0) + c0 * z
    data = Dataset(y, z, gen(277).normal(size=(8, 1)))
    design = CompleteDesign(8, 4)
    shifted = Dataset(y - c0 * z, z, data.x)
    assert frt_p_value(shifted, N_ROBUST, design, exact=True).p_value == 1.0
    res = invert_ci(data, N_ROBUST, 0.05, design, exact=True, grid=(c0 - 1.0, c0 + 1.0, 41))
    assert res.lower <= c0 <= res.upper


def test_invert_ci_nestedness():
    data = random_dataset(281, n=30, j=1, tau=1.0)
    design = CompleteDesign(30, 15)
    tight = invert_ci(data, N_ROBUST, 0.5, design, r=300, seed=2)
    wide = invert_ci(data, N_ROBUST, 0.05, design, r=300, seed=2)
    assert wide.lower <= tight.lower <= tight.upper <= wide.upper


def test_invert_ci_fields_and_grid_bounds():
    data = random_dataset(283, n=30, j=1, tau=0.5)
    res = invert_ci(data, N_ROBUST, 0.05, CompleteDesign(30, 15), r=200, seed=4)
    lo, hi, step = res.grid
    assert res.alpha == 0.05
    assert lo <= res.lower <= res.upper <= hi
    assert step > 0
    wlo, whi = res.wald_init
    assert wlo < whi
    # default grid spans the Wald interval with margin on both sides
    assert lo < wlo and hi > whi


def test_invert_ci_warns_on_unstudentized_spec():
    data = random_dataset(293, n=20, j=1)
    with pytest.warns(UserWarning):
        invert_ci(data, N_NONE, 0.05, CompleteDesign(20, 10), r=50, seed=0)


@pytest.mark.parametrize("exact", [False, True])
def test_invert_ci_zero_se_needs_an_explicit_grid(exact):
    # y = 2z has a zero robust SE: the default grid, built around the Wald
    # interval, re-raises ZeroSe; an explicit grid accepts only the shift 2
    z = np.repeat([1, 0], 4)
    data = Dataset(2.0 * z, z, np.arange(8.0)[:, None])
    design = CompleteDesign(8, 4)
    with pytest.raises(ZeroSe):
        invert_ci(data, N_ROBUST, 0.05, design, r=99, seed=1, exact=exact)
    res = invert_ci(data, N_ROBUST, 0.05, design, r=99, seed=1, exact=exact, grid=(0, 4, 9))
    assert [res.lower, res.upper] == [2.0, 2.0]
    assert math.isnan(res.wald_init[0]) and math.isnan(res.wald_init[1])


def test_invert_ci_empty_region():
    data = random_dataset(307, n=30, j=1, tau=0.0)
    design = CompleteDesign(30, 15)
    with pytest.raises(EmptyAcceptanceRegion) as exc:
        # a grid far away from the estimate rejects everywhere
        invert_ci(data, N_ROBUST, 0.05, design, r=400, seed=1, grid=(50.0, 60.0, 11))
    assert exc.value.nearest == pytest.approx(50.0)
    assert 0 < exc.value.max_p <= 0.05

