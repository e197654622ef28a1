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
    DimensionMismatch,
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
from randtest import _batch
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
    mat, observed = stat_matrix(ev, zmat, ALL_SPECS)
    assert mat.shape == (40, 12)
    # with each adjustment's triple of row 0, from the same pass
    assert list(observed) == ["n", "r", "f", "l"]
    for adjustment, triple in observed.items():
        np.testing.assert_array_equal(triple, ev.triples(zmat, adjustment)[:, 0])
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
    mat = stat_matrix(ev, zmat, ALL_SPECS)[0]
    for i in range(0, 25, 6):
        d = Dataset(y, zmat[i].astype(np.int64), x, strata=strata)
        for s, spec in enumerate(ALL_SPECS):
            assert abs(mat[i, s] - statistic(d, spec)) < 1e-10, (spec, i)


def test_make_evaluator_dispatch():
    data = random_dataset(109, n=20, j=1)
    assert isinstance(make_evaluator(data.y, data.x), CompleteEvaluator)
    strata = np.repeat([0, 1], 10)
    assert isinstance(make_evaluator(data.y, data.x, strata), StratifiedEvaluator)


@pytest.mark.parametrize("strata", [None, np.repeat([0, 1], 10)])
def test_outcomes_share_one_evaluator(strata):
    # K outcomes give (K, 3, B) triples; a bad outcome shape is rejected
    data = random_dataset(109, n=20, j=1)
    zmat = _random_zmat(gen(110), 30, 20, 10) if strata is None else np.column_stack(
        [_random_zmat(gen(110), 30, 10, 5), _random_zmat(gen(111), 30, 10, 5)])
    ys = np.stack([data.y, 2.0 * data.y + data.x[:, 0]])
    got = make_evaluator(ys, data.x, strata).triples_each(zmat, "nrfl")
    for adjustment in "nrfl":
        assert got[adjustment].shape == (2, 3, 30)
        for k, y in enumerate(ys):
            want = make_evaluator(y, data.x, strata).triples(zmat, adjustment)
            np.testing.assert_allclose(got[adjustment][k], want, rtol=1e-12)
    for bad in (ys[:, :19], ys[None]):
        with pytest.raises(DimensionMismatch):
            make_evaluator(bad, data.x, strata)


def test_constant_outcome_gives_zero_everywhere():
    n = 16
    y = np.full(n, 3.0)
    x = gen(113).normal(size=(n, 1))
    zmat = _random_zmat(gen(127), 10, n, 8)
    mat = stat_matrix(CompleteEvaluator(y, x), zmat, ALL_SPECS)[0]
    assert np.all(mat == 0.0)


def test_zero_se_sentinel_is_signed_infinity():
    # noiseless covariate-free signal: y determined by z up to a constant
    # shift makes the residual variance 0 for the N statistic on the
    # assignment that separates the two outcome levels
    y = np.array([1.0, 1.0, 1.0, 0.0, 0.0, 0.0])
    x = np.array([[0.1], [0.2], [0.3], [0.4], [0.5], [0.6]])
    z = np.array([1, 1, 1, 0, 0, 0], dtype=np.uint8)
    ev = CompleteEvaluator(y, x)
    specs = [StatisticSpec("n", "robust"), StatisticSpec("n", "none")]
    mat = stat_matrix(ev, z[None, :], specs)[0]
    assert mat[0, 0] == np.inf  # tau = 1, se = 0
    assert mat[0, 1] == 1.0


def test_degenerate_arm_rejected():
    data = random_dataset(131, n=12, j=1)
    ev = CompleteEvaluator(data.y, data.x)
    bad = np.zeros((1, 12), dtype=np.uint8)
    bad[0, 0] = 1
    with pytest.raises(DegenerateArm):
        ev.triples(bad, "n")


@pytest.mark.parametrize("strata", [None, np.repeat([0, 1], 10)])
def test_zmat_of_the_wrong_width_rejected(strata):
    # 25 columns for 20 units: reading only the strata's columns would drop
    # the other five silently
    data = random_dataset(131, n=20, j=1)
    zmat = _random_zmat(gen(132), 4, 25, 10)
    with pytest.raises(DimensionMismatch):
        make_evaluator(data.y, data.x, strata).triples(zmat, "n")


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



def _stratified_rows(bad: dict, interleaved: bool):
    """An evaluator over 4 strata of 8 units and 5 rows treating 4 of each
    stratum, except that `bad` maps a stratum to the treated count of its
    row 3 ("mixed": one more than the others) or of every row (an int)."""
    rng = gen(139)
    strata = np.repeat(np.arange(4), 8)
    if interleaved:
        strata = rng.permutation(strata)
    zmat = np.zeros((5, 32), dtype=np.uint8)
    for k in range(4):
        units = np.flatnonzero(strata == k)
        treated = bad.get(k, 4)
        for row in range(5):
            count = 4 + (row == 3) if treated == "mixed" else treated
            zmat[row, rng.permutation(units)[:count]] = 1
    data = random_dataset(131, n=32, j=1)
    return StratifiedEvaluator(data.y, data.x, strata), zmat


@pytest.mark.parametrize("interleaved", (False, True))
@pytest.mark.parametrize("small", (False, True))
@pytest.mark.parametrize("adjustment", "nl")
@pytest.mark.parametrize(
    "bad, error, message",
    [
        ({2: "mixed"}, InvalidSizes, "different numbers"),
        ({1: 1, 2: "mixed"}, DegenerateArm, "got N1=1"),
        ({2: "mixed", 3: 1}, InvalidSizes, "different numbers"),
        ({3: 7}, DegenerateArm, "got N1=7"),
    ],
)
def test_treated_counts_name_the_first_bad_stratum(
    bad, error, message, adjustment, small, interleaved, monkeypatch
):
    # a bad stratum after the first raises, and the first bad one decides
    # how, also when the counts span several blocks of rows and groups of
    # strata, with a bad stratum in a later group than a good one
    ev, zmat = _stratified_rows(bad, interleaved)
    if small:
        # blocks of 2 rows, counted and scored, and 2 strata to a group (a
        # row of a pass at J = 1 is 30 elements wide)
        monkeypatch.setattr(_batch, "_ROW_ELEMENTS", 16)
        monkeypatch.setattr(_batch, "_PASS_ELEMENTS", 2 * 2 * 30)
        assert [(len(parts), step) for parts, step in ev._groups(len(zmat))] == [(2, 2)] * 2
    with pytest.raises(error, match=message):
        ev.triples(zmat, adjustment)


def test_each_group_of_strata_is_read_once(monkeypatch):
    # the strat-null shape, 3 interleaved strata of 169/153/178 units and
    # 501 rows in one group: one take of the reference set serves the
    # treated counts and every row block, and consecutive strata take none
    rng = gen(163)
    consecutive = np.repeat(np.arange(3), [169, 153, 178])
    y, x = rng.normal(size=500), rng.normal(size=(500, 2))
    takes, take = [], np.take

    def counted(a, *args, **kwargs):
        takes.append(a.shape)
        return take(a, *args, **kwargs)

    for strata, want in ((_interleaved(rng, consecutive), 1), (consecutive, 0)):
        arms = tuple((n, n // 5) for n in np.bincount(strata).tolist())
        zmat = StratifiedDesign(strata, arms).draw_batch(rng, 501)
        ev = StratifiedEvaluator(y, x, strata)
        assert len(ev._groups(len(zmat))) == 1
        takes.clear()
        with monkeypatch.context() as patch:
            patch.setattr(np, "take", counted)
            ev.triples_each(zmat, "nrfl")
        assert takes == [zmat.shape] * want


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
    Strata are interleaved, not runs of consecutive units.
    """
    kind = draw(st.sampled_from(["complete", "stratified", "cluster", "rem"]))
    j = draw(st.integers(1, 5))
    rng = gen(draw(st.integers(0, 2**32 - 1)))
    decades = draw(st.integers(0, _MIX_DECADES))
    if kind == "stratified":
        sizes = [(draw(st.integers(2 * j + 4, 2 * j + 8)),) for _ in range(draw(st.integers(1, 3)))]
        sizes = [(n, draw(st.integers(j + 2, n - j - 2))) for (n,) in sizes]
        strata = rng.permutation(np.repeat(np.arange(len(sizes)), [n for n, _ in sizes]))
        # recode in order of first appearance, as `Dataset` does
        first = strata[np.sort(np.unique(strata, return_index=True)[1])]
        sizes, strata = [sizes[k] for k in first], np.argsort(first)[strata]
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


@pytest.mark.parametrize("j, adjustments, rows", [(1, "nrfl", 600), (0, "n", 3061)])
def test_many_outcomes_peak_memory_stays_within_a_few_pass_temporaries(j, adjustments, rows):
    # K = 100 outcomes at N = 18, N1 = 4: F's sums grow with every outcome's
    # e-bearing columns, and without covariates the (K, 3) triples grow with
    # K, so the row blocks shrink as K grows; blocks sized for one outcome
    # took 16.5 and 30.6 MiB beyond the outputs here
    rng = gen(157)
    ev = CompleteEvaluator(rng.normal(size=(100, 18)), rng.normal(size=(18, j)))
    zmat = _random_zmat(rng, rows, 18, 4)
    tracemalloc.start()
    try:
        out = ev.triples_each(zmat, tuple(adjustments))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    outputs = sum(a.nbytes for a in out.values())
    assert peak < outputs + 8 * _batch._MOMENT_ELEMENTS * 8, (peak - outputs) / 2**20


def test_exact_treated_counts_stay_below_an_int32_copy():
    # all 48,620 rows of N = 18, N1 = 9, J = 2: the counts' reduction casts
    # its rows to int32 a block at a time, so the traced peak beyond the
    # outputs stays below one int32 copy of the reference set
    rng = gen(167)
    zmat = CompleteDesign(18, 9).enumerate()
    ev = CompleteEvaluator(rng.normal(size=18), rng.normal(size=(18, 2)))
    tracemalloc.start()
    try:
        out = ev.triples_each(zmat, "n")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert zmat.shape == (48_620, 18) and zmat.dtype == np.uint8
    assert peak - out["n"].nbytes < zmat.size * 4, (peak - out["n"].nbytes) / 2**20


def _stat_matrix_peak(rng, sizes, interleaved, rows):
    """(traced peak bytes of all 12 statistics, reference set) on J = 2."""
    strata = np.repeat(np.arange(len(sizes)), sizes)
    if interleaved:
        strata = _interleaved(rng, strata)
    design = StratifiedDesign(strata, tuple((n, n // 5) for n in np.bincount(strata).tolist()))
    zmat = design.draw_batch(rng, rows)
    assert zmat.dtype == np.uint8
    n = strata.size
    ev = StratifiedEvaluator(rng.normal(size=n), rng.normal(size=(n, 2)), strata)
    tracemalloc.start()
    try:
        stat_matrix(ev, zmat, list(ALL_SPECS))
        return tracemalloc.get_traced_memory()[1], zmat
    finally:
        tracemalloc.stop()


def test_stratified_stat_matrix_never_copies_the_reference_set_to_float64():
    # 40 strata of 50 units, J = 2: uint8 rows are cast to float64 a block at
    # a time, so the peak stays below one float64 copy of the whole set
    rng = gen(151)
    peak, zmat = _stat_matrix_peak(rng, (50,) * 40, False, 2000)
    assert peak < zmat.size * 8, peak / 2**20
    # the strat-null shape, 3 interleaved strata and R = 500, scored in one
    # pass: its float64 copy is small, so the bound adds the two widest
    # temporaries a pass may hold; stacking every stratum's rows with no
    # budget takes 135 MB at 40 strata of 50
    peak, zmat = _stat_matrix_peak(rng, (169, 153, 178), True, 500)
    assert peak < (zmat.size + 2 * _batch._PASS_ELEMENTS) * 8, peak / 2**20


def _interleaved(rng, strata):
    """The units of `strata` shuffled, recoded in order of first appearance."""
    strata = rng.permutation(strata)
    first = strata[np.sort(np.unique(strata, return_index=True)[1])]
    return np.argsort(first)[strata]


def _per_stratum_loop(y, x, strata, zmat, adjustments):
    """The stratified triples as one complete evaluator per stratum, weighted
    w, w^2, w^2 and summed in stratum order; consecutive units are read
    through a view and others through a C-order copy, as the evaluator
    reads them."""
    out = dict.fromkeys(adjustments, 0.0)
    for k in range(strata.max() + 1):
        idx, w = np.flatnonzero(strata == k), np.mean(strata == k)
        if idx[-1] - idx[0] < idx.size:
            units = zmat[:, idx[0] : idx[-1] + 1]
        else:
            units = np.take(zmat, idx, axis=1)
        part = CompleteEvaluator(y[..., idx], x[idx]).triples_each(units, adjustments)
        for a in adjustments:
            out[a] = out[a] + np.multiply(part[a], [[w], [w**2], [w**2]])
    return out


def test_interleaved_strata_score_as_consecutive_ones():
    # 3 strata of 30 units, interleaved with each stratum's units kept in
    # order: every stratum reads the same values in the same layout, so every
    # triple is equal bit for bit to that of the consecutive layout
    rng = gen(1201)
    strata = np.repeat(np.arange(3), 30)
    zmat = StratifiedDesign(strata, ((30, 12), (30, 15), (30, 9))).draw_batch(rng, 400)
    x = rng.normal(size=(90, 2))
    y = x @ [1.0, 0.5] + rng.normal(size=90)
    mixed = _interleaved(rng, strata)
    order = np.argsort(mixed, kind="stable")  # the consecutive unit at each place
    y_mixed, x_mixed, zmat_mixed = np.empty_like(y), np.empty_like(x), np.empty_like(zmat)
    y_mixed[order], x_mixed[order], zmat_mixed[:, order] = y, x, zmat
    assert not np.array_equal(mixed, strata)
    want = StratifiedEvaluator(y, x, strata).triples_each(zmat, "nrfl")
    got = StratifiedEvaluator(y_mixed, x_mixed, mixed).triples_each(zmat_mixed, "nrfl")
    for a in "nrfl":
        np.testing.assert_array_equal(got[a], want[a], err_msg=a)


def _solve_by_fancy_rows(mats, rhs):
    """`_solve_batch` with each elimination step updating the other rows
    through one fancy-indexed copy: its bitwise oracle."""
    k = mats.shape[0]
    a = np.concatenate([mats, rhs], axis=1)
    for i in range(k):
        pivot = a[i, i].copy()
        a[i] /= np.where(pivot > _batch._PIVOT_TOL * mats[i, i], pivot, np.nan)
        rest = np.arange(k) != i
        a[rest] -= a[rest, i, None] * a[i]
    return a[:, k:]


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_solve_batch_matches_the_fancy_indexed_elimination(k):
    # random SPD systems, singular ones (a zero last row) and NaN pivots
    rng = gen(1211 + k)
    m = rng.normal(size=(k, k + 3, 600))
    m[-1, :, :20] = 0.0
    mats = np.einsum("iub,jub->ijb", m, m)
    mats[0, 0, 20:30] = np.nan
    rhs = rng.normal(size=(k, 3, 600))
    got = _batch._solve_batch(mats, rhs)
    np.testing.assert_array_equal(got, _solve_by_fancy_rows(mats, rhs))
    assert np.isnan(got[..., :30]).all() and np.isfinite(got[..., 30:]).all()
    want = np.linalg.solve(mats[..., 30:].transpose(2, 0, 1), rhs[..., 30:].transpose(2, 0, 1))
    np.testing.assert_allclose(got[..., 30:], want.transpose(1, 2, 0), rtol=1e-8, atol=1e-10)


@pytest.mark.parametrize("j", [0, 1, 2, 3])
@pytest.mark.parametrize("n_strata", [1, 2, 3, 4])
def test_grouped_passes_equal_the_per_stratum_loop(n_strata, j, monkeypatch):
    # bit for bit, at the default blocks and at blocks and passes so small
    # that strata of different sizes get different row blocks and groups
    rng = gen(1000 + 10 * n_strata + j)
    sizes = rng.integers(2 * j + 5, 2 * j + 30, size=n_strata)
    strata = _interleaved(rng, np.repeat(np.arange(n_strata), sizes))
    counts = np.bincount(strata).tolist()
    arms = tuple((c, int(rng.integers(j + 2, c - j - 1))) for c in counts)
    zmat = StratifiedDesign(strata, arms).draw_batch(rng, 300)
    x = rng.normal(size=(strata.size, j))
    adjustments = "nrfl" if j else "n"
    for k in (1, 3):
        y = rng.normal(size=(k, strata.size)) * (1 + np.abs(rng.normal(size=strata.size)))
        y = y[0] if k == 1 else y
        for row_elements, pass_elements in ((None, None), (2_000, 10_000)):
            if row_elements:
                monkeypatch.setattr(_batch, "_ROW_ELEMENTS", row_elements)
                monkeypatch.setattr(_batch, "_PASS_ELEMENTS", pass_elements)
            got = StratifiedEvaluator(y, x, strata).triples_each(zmat, adjustments)
            want = _per_stratum_loop(y, x, strata, zmat, adjustments)
            for a in adjustments:
                np.testing.assert_array_equal(got[a], want[a], err_msg=f"{a} K={k}")
            monkeypatch.undo()


def test_strat_null_strata_share_one_pass(monkeypatch):
    # 3 interleaved strata of 169/153/178 units, 501 rows: one pass scores
    # all three, for all 12 statistics
    rng = gen(153)
    strata = _interleaved(rng, np.repeat(np.arange(3), [169, 153, 178]))
    design = StratifiedDesign(strata, tuple((n, n // 5) for n in np.bincount(strata).tolist()))
    zmat = design.draw_batch(rng, 501)
    ev = StratifiedEvaluator(rng.normal(size=500), rng.normal(size=(500, 2)), strata)
    passes = []

    class CountedPass(_batch._Pass):
        def __init__(self, *args):
            super().__init__(*args)
            passes.append(self.cols)

    monkeypatch.setattr(_batch, "_Pass", CountedPass)
    stat_matrix(ev, zmat, list(ALL_SPECS))
    assert passes == [3 * 501]


@pytest.mark.parametrize("kind", ["complete", "stratified", "stratified-3-outcomes"])
def test_per_unit_hc0_sums_match_the_moment_form(kind, monkeypatch):
    # with _CANCEL at 0 every row's HC0 form is summed over the units of its
    # own stratum and arm; the moment form runs on every pass as a narrow one
    # (_HC0_ELEMENTS at 2**62) and as a wide one, one pair row at a time
    # (_HC0_ELEMENTS at 0)
    rng = gen(157)
    n = 45
    strata = np.repeat(np.arange(3), [12, 15, 18])
    strata = None if kind == "complete" else _interleaved(rng, strata)
    x = rng.normal(size=(n, 2))
    y = x @ [1.0, -0.5] + rng.normal(size=n) * (1 + np.abs(x[:, 0]))
    if kind == "stratified-3-outcomes":
        y = np.stack([y, y - 0.7 * x[:, 1], 2.0 * y])
    if strata is None:
        zmat = _random_zmat(rng, 40, n, 20)
    else:
        arms = tuple((c, c // 2) for c in np.bincount(strata).tolist())
        zmat = StratifiedDesign(strata, arms).draw_batch(rng, 40)
    wide_passes = []
    row_quad_sums = _batch._row_quad_sums

    def counted(*args):
        wide_passes.append(args[1].shape[1])
        return row_quad_sums(*args)

    monkeypatch.setattr(_batch, "_row_quad_sums", counted)

    def triples(hc0_elements, cancel=_batch._CANCEL):
        monkeypatch.setattr(_batch, "_HC0_ELEMENTS", hc0_elements)
        monkeypatch.setattr(_batch, "_CANCEL", cancel)
        return make_evaluator(y, x, strata).triples_each(zmat, "fl")

    narrow = triples(2**62)
    assert wide_passes == []
    wide = triples(0)
    assert wide_passes  # the wide branch ran
    got = triples(0, 0.0)
    # a wide pass whose cancelled columns, and only those, sum over units
    mixed = triples(0, 3.0)
    for a in "fl":
        for want in (narrow, wide):
            assert not np.array_equal(got[a], want[a]), a  # the per-unit sums ran
            np.testing.assert_allclose(got[a], want[a], rtol=1e-10, atol=0, err_msg=a)
        # both forms sum the same terms in another order; where the terms
        # cancel (their Cauchy-Schwarz bound exceeds the form up to 4e4 times
        # here) rounding moves the last digits, 1.2e-13 at most on this data
        np.testing.assert_allclose(wide[a], narrow[a], rtol=1e-12, atol=0, err_msg=a)
        np.testing.assert_allclose(mixed[a], got[a], rtol=1e-10, atol=0, err_msg=a)
        kept = mixed[a][..., 2, :] == wide[a][..., 2, :]
        assert kept.any() and not kept.all(), a
