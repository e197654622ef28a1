"""The vectorized replicate evaluator must agree with the per-dataset
estimator path on every statistic; this is the load-bearing dual-route
check for the whole engine."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from randtest import (
    ALL_SPECS,
    ClusterDesign,
    CompleteDesign,
    Dataset,
    DegenerateArm,
    InvalidSizes,
    PermLmSpec,
    RankDeficient,
    RerandomizedDesign,
    StatisticSpec,
    StratifiedDesign,
    cluster_collapse,
    estimate,
    estimate_stratified,
    fit_ols,
    frt_p_value,
    perm_lm_p_value,
    statistic,
)
from randtest._batch import CompleteEvaluator, StratifiedEvaluator, make_evaluator, stat_matrix
from conftest import gen, random_dataset


def _random_zmat(rng, b, n, n1):
    template = np.zeros(n, dtype=np.uint8)
    template[:n1] = 1
    return rng.permuted(np.tile(template, (b, 1)), axis=1)


def test_complete_evaluator_matches_statistic_path():
    data = random_dataset(101, n=30, j=2)
    rng = gen(103)
    zmat = _random_zmat(rng, 40, 30, data.n1)
    ev = CompleteEvaluator(data.y, data.x)
    mat = stat_matrix(ev, zmat, ALL_SPECS)
    assert mat.shape == (40, 12)
    for i in range(0, 40, 7):
        z = zmat[i].astype(np.int64)
        d = Dataset(data.y, z, data.x)
        for s, spec in enumerate(ALL_SPECS):
            ref = statistic(d, spec)
            assert abs(mat[i, s] - ref) < 1e-10, (spec, i)


def test_stratified_evaluator_matches_statistic_path():
    rng = gen(107)
    n = 36
    strata = np.repeat([0, 1, 2], 12)
    x = rng.normal(size=(n, 2))
    y = x @ np.array([1.0, -0.5]) + rng.normal(size=n)
    zmat = np.zeros((25, n), dtype=np.uint8)
    for i in range(25):
        for k in range(3):
            idx = np.where(strata == k)[0]
            zmat[i, rng.permutation(idx)[:5]] = 1
    ev = StratifiedEvaluator(y, x, strata)
    mat = stat_matrix(ev, zmat, ALL_SPECS)
    for i in range(0, 25, 6):
        d = Dataset(y, zmat[i].astype(np.int64), x, strata=strata)
        for s, spec in enumerate(ALL_SPECS):
            assert abs(mat[i, s] - statistic(d, spec)) < 1e-10, (spec, i)


def test_make_evaluator_dispatch():
    data = random_dataset(109, n=20, j=1)
    assert isinstance(make_evaluator(data.y, data.x), CompleteEvaluator)
    strata = np.repeat([0, 1], 10)
    assert isinstance(make_evaluator(data.y, data.x, strata), StratifiedEvaluator)


def test_constant_outcome_gives_zero_everywhere():
    n = 16
    y = np.full(n, 3.0)
    x = gen(113).normal(size=(n, 1))
    zmat = _random_zmat(gen(127), 10, n, 8)
    mat = stat_matrix(CompleteEvaluator(y, x), zmat, ALL_SPECS)
    assert np.all(mat == 0.0)


def test_zero_se_sentinel_is_signed_infinity():
    # noiseless covariate-free signal: y determined by z up to a constant
    # shift makes the residual variance 0 for the N statistic on the
    # assignment that separates the two outcome levels
    y = np.array([1.0, 1.0, 1.0, 0.0, 0.0, 0.0])
    x = np.array([[0.1], [0.2], [0.3], [0.4], [0.5], [0.6]])
    z = np.array([1, 1, 1, 0, 0, 0], dtype=np.uint8)
    ev = CompleteEvaluator(y, x)
    mat = stat_matrix(ev, z[None, :], [StatisticSpec("n", "robust"), StatisticSpec("n", "none")])
    assert mat[0, 0] == np.inf  # tau = 1, se = 0
    assert mat[0, 1] == 1.0


def test_degenerate_arm_rejected():
    data = random_dataset(131, n=12, j=1)
    ev = CompleteEvaluator(data.y, data.x)
    bad = np.zeros((1, 12), dtype=np.uint8)
    bad[0, 0] = 1
    with pytest.raises(DegenerateArm):
        ev.triples(bad, "n")


def test_triples_values_match_estimate():
    from randtest import estimate

    data = random_dataset(137, n=28, j=2)
    ev = CompleteEvaluator(data.y, data.x)
    zmat = data.z.astype(np.uint8)[None, :]
    for adj in "nrfl":
        tau, se2_c, se2_r = ev.triples(zmat, adj)
        ref = estimate(data, adj)
        assert abs(tau[0] - ref.tau_hat) < 1e-11
        assert abs(se2_c[0] - ref.se_classic**2) < 1e-11
        assert abs(se2_r[0] - ref.se_robust**2) < 1e-11


@pytest.mark.parametrize("adjustment", "nrfl")
def test_mixed_arm_sizes_rejected(adjustment):
    data = random_dataset(131, n=20, j=1)
    zmat = _random_zmat(gen(137), 6, 20, 10)
    zmat[4, np.flatnonzero(zmat[4] == 0)[0]] = 1  # row 4 treats 11 units
    with pytest.raises(InvalidSizes):
        CompleteEvaluator(data.y, data.x).triples(zmat, adjustment)


@pytest.mark.parametrize("adjustment", "nrfl")
def test_mixed_arm_sizes_rejected_across_blocks(adjustment, small_blocks):
    # rows 4 and 5 treat 11 units and fill the last evaluation block alone
    small_blocks(20 * 2)
    data = random_dataset(131, n=20, j=1)
    zmat = _random_zmat(gen(137), 6, 20, 10)
    for row in (4, 5):
        zmat[row, np.flatnonzero(zmat[row] == 0)[0]] = 1
    with pytest.raises(InvalidSizes):
        CompleteEvaluator(data.y, data.x).triples(zmat, adjustment)


# -- differential fuzz: batch triples against the reference refits ----------------

# Smallest singular value of the covariate mixing matrix, as a power of ten:
# near-collinear covariates X = W A share W's column span, so the refit on
# the well-conditioned W is the reference for the evaluator on X.
_MIX_DECADES = 5


def _mixed_covariates(rng, w, decades):
    j = w.shape[1]
    rot = np.linalg.qr(rng.normal(size=(j, j)))[0]
    scales = np.logspace(0, -decades, j) if j > 1 else np.ones(1)
    return w @ (rot * scales) @ rot.T


@st.composite
def fuzz_cases(draw):
    """(design, data, reference data, assignment rows, the rows per unit).

    Every arm of the analysis form has at least J + 2 units, the fewest the
    interacted fit needs; strata go down to exactly that, clusters to size 1.
    """
    kind = draw(st.sampled_from(["complete", "stratified", "cluster", "rem"]))
    j = draw(st.integers(1, 5))
    rng = gen(draw(st.integers(0, 2**32 - 1)))
    decades = draw(st.integers(0, _MIX_DECADES))
    if kind == "stratified":
        sizes = [(draw(st.integers(2 * j + 4, 2 * j + 8)),) for _ in range(draw(st.integers(1, 3)))]
        sizes = [(n, draw(st.integers(j + 2, n - j - 2))) for (n,) in sizes]
        strata = np.repeat(np.arange(len(sizes)), [n for n, _ in sizes])
        n = strata.size
    else:
        m = draw(st.integers(2 * j + 4, 2 * j + 16))
        m1 = draw(st.integers(j + 2, m - j - 2))
        strata = None
    clusters = None
    if kind == "cluster":
        clusters = np.repeat(np.arange(m), rng.integers(1, 4, size=m))
        n = clusters.size
    elif kind != "stratified":
        n = m
    w = rng.normal(size=(n, j))
    x = _mixed_covariates(rng, w, decades)
    y = w @ rng.normal(size=j) + rng.normal(size=n) * (1 + np.abs(w[:, 0]))
    if kind == "stratified":
        design = StratifiedDesign(strata, tuple(sizes))
    elif kind == "cluster":
        design = ClusterDesign(m, m1)
    elif kind == "complete":
        design = CompleteDesign(m, m1)
    else:
        design = RerandomizedDesign(CompleteDesign(m, m1), 2.0 * j, w)
    rows = design.draw_batch(rng, 4)
    units = rows[:, clusters] if clusters is not None else rows
    z_obs = units[0].astype(np.int64)
    data = Dataset(y, z_obs, x, strata=strata, clusters=clusters)
    ref = Dataset(y, z_obs, w, strata=strata, clusters=clusters)
    return design, data, ref, rows, units


def _reference_triple(ref, z, adjustment):
    d = Dataset(ref.y, z.astype(np.int64), ref.x, strata=ref.strata, clusters=ref.clusters)
    if d.clusters is not None:
        return estimate(cluster_collapse(d), adjustment)
    return (estimate if d.strata is None else estimate_stratified)(d, adjustment)


@settings(max_examples=80, deadline=None)
@given(fuzz_cases())
def test_fuzz_triples_match_reference_refits(case):
    design, data, ref, rows, units = case
    adata, adesign = design.analysis_form(data)
    evaluator = make_evaluator(adata.y, adata.x, adesign.strata)
    for adjustment in "fl":
        tau, se2_c, se2_r = evaluator.triples(rows, adjustment)
        for i, z in enumerate(units):
            want = _reference_triple(ref, z, adjustment)
            scale = abs(want.tau_hat) + want.se_robust
            assert abs(tau[i] - want.tau_hat) <= 1e-8 * scale, (adjustment, i)
            assert abs(se2_c[i] - want.se_classic**2) <= 1e-8 * want.se_classic**2, (adjustment, i)
            assert abs(se2_r[i] - want.se_robust**2) <= 1e-8 * want.se_robust**2, (adjustment, i)


def test_constant_covariate_in_an_arm_gives_nan_counted_extreme():
    # x1 is binary: a row treating four units that share x1 leaves x1
    # constant in the treated arm, whose interacted fit is then singular
    rng = gen(139)
    x = np.column_stack([np.repeat([1.0, 0.0], 6), rng.normal(size=12)])
    y = x @ [1.0, 0.5] + rng.normal(size=12)
    z = np.zeros(12, dtype=np.int64)
    z[[0, 1, 6, 7]] = 1
    design = CompleteDesign(12, 4)
    zmat = design.enumerate()
    singular = np.all(zmat[:, :6] == 0, axis=1) | np.all(zmat[:, 6:] == 0, axis=1)
    assert singular.sum() == 30
    spec = StatisticSpec("l", "robust")
    res = frt_p_value(Dataset(y, z, x), spec, design, exact=True)
    assert np.array_equal(np.isnan(res.replicates), singular)
    # NaN replicates count as extreme: the p-value is the conservative one
    extreme = np.count_nonzero(np.abs(res.replicates[~singular]) >= abs(res.t_obs))
    assert res.p_value == (extreme + singular.sum()) / zmat.shape[0]


@pytest.mark.parametrize("adjustment", "rfl")
def test_unequal_covariate_units_do_not_trip_the_batch_rank_test(adjustment):
    # x2 on 1e11 times x1's scale: the evaluator's rank test, like the
    # reference fits', sees each centered column scaled to unit size
    data = random_dataset(83, n=40, j=2)
    moved = Dataset(data.y, data.z, data.x * [1.0, 1e11])
    zmat = _random_zmat(gen(5), 50, 40, 20)
    want = make_evaluator(data.y, data.x).triples(zmat, adjustment)
    got = make_evaluator(moved.y, moved.x).triples(zmat, adjustment)
    np.testing.assert_allclose(got, want, rtol=1e-8)
    spec = StatisticSpec(adjustment, "robust")
    design = CompleteDesign(40, 20)
    res = frt_p_value(moved, spec, design, r=200, seed=3)
    assert res.p_value == frt_p_value(data, spec, design, r=200, seed=3).p_value
    assert abs(res.t_obs - statistic(data, spec)) < 1e-8


@pytest.mark.parametrize("j", [1, 2])
def test_constant_covariate_with_inexact_mean_is_rank_deficient(j):
    # a column of 0.1s centers to rounding residue, not to zeros; in the
    # raw column's units that residue is collinear with the intercept
    data = random_dataset(89, n=30, j=j)
    x = data.x.copy()
    x[:, -1] = 0.1
    assert x[:, -1].mean() != 0.1
    constant = Dataset(data.y, data.z, x)
    with pytest.raises(RankDeficient):
        fit_ols(np.column_stack([np.ones(30), x]), data.y)
    with pytest.raises(RankDeficient):
        make_evaluator(constant.y, constant.x)
    with pytest.raises(RankDeficient):
        frt_p_value(constant, StatisticSpec("l", "robust"), CompleteDesign(30, 15), r=50)
    with pytest.raises(RankDeficient):
        perm_lm_p_value(constant, PermLmSpec("fl", "robust"), r=50)


@pytest.mark.parametrize(
    "n, j, rows, peak_mib",
    # traced peaks of the residual-pass evaluator these replace, per adjustment
    [(18, 2, 48_620, {"f": 29.3, "l": 51.7}), (1000, 3, 2000, {"f": 61.2, "l": 77.5})],
)
def test_f_and_l_peak_memory_stays_below_residual_passes(n, j, rows, peak_mib):
    rng = gen(149)
    ev = CompleteEvaluator(rng.normal(size=n), rng.normal(size=(n, j)))
    zmat = _random_zmat(rng, rows, n, n // 2).astype(np.float64)
    for adjustment, bound in peak_mib.items():
        tracemalloc.start()
        try:
            ev.triples(zmat, adjustment)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < bound * 2**20, (adjustment, peak / 2**20)


def test_stratified_stat_matrix_never_copies_the_reference_set_to_float64():
    # 40 strata of 50 units, J = 2: uint8 rows are cast to float64 a block at
    # a time, so the peak stays below one float64 copy of the whole set
    rng = gen(151)
    strata = np.repeat(np.arange(40), 50)
    design = StratifiedDesign(strata, ((50, 20),) * 40)
    zmat = design.draw_batch(rng, 2000)
    assert zmat.dtype == np.uint8
    ev = StratifiedEvaluator(rng.normal(size=2000), rng.normal(size=(2000, 2)), strata)
    tracemalloc.start()
    try:
        stat_matrix(ev, zmat, list(ALL_SPECS))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < zmat.size * 8, peak / 2**20
