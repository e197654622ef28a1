"""The vectorized replicate evaluator must agree with the per-dataset
estimator path on every statistic; this is the load-bearing dual-route
check for the whole engine."""

import numpy as np
import pytest

from randtest import ALL_SPECS, Dataset, DegenerateArm, InvalidSizes, StatisticSpec, statistic
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
