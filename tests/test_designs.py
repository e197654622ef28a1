"""Assignment designs: size constraints, uniformity, balance metric, ReM."""

import math

import numpy as np
import pytest

import randtest.designs
from randtest import (
    AcceptanceTimeout,
    ClusterDesign,
    CompleteDesign,
    Dataset,
    InvalidSizes,
    InvariantViolation,
    RerandomizedDesign,
    SingularCovariance,
    StratifiedDesign,
    chi2_cdf,
    chi2_quantile,
    draw,
    mahalanobis,
    mahalanobis_many,
)
from conftest import gen


def test_draws_respect_sizes():
    rng = gen(1)
    for _ in range(50):
        z = draw(CompleteDesign(9, 4), rng)
        assert z.sum() == 4 and z.shape == (9,)
        assert set(np.unique(z)) <= {0, 1}


def test_draw_determinism():
    a = [draw(CompleteDesign(10, 5), gen(42)) for _ in range(3)]
    b = [draw(CompleteDesign(10, 5), gen(42)) for _ in range(3)]
    # a fresh generator replays the same sequence
    np.testing.assert_array_equal(a[0], b[0])


def test_complete_uniform_over_six_assignments():
    # C(4,2) = 6; empirical frequencies within 4 sigma at 60000 draws
    rng = gen(5)
    draws = 60_000
    counts = {}
    for _ in range(draws):
        key = tuple(draw(CompleteDesign(4, 2), rng))
        counts[key] = counts.get(key, 0) + 1
    assert len(counts) == 6
    p = 1.0 / 6.0
    sigma = math.sqrt(draws * p * (1 - p))
    for c in counts.values():
        assert abs(c - draws * p) < 4 * sigma


def test_stratified_draws_per_stratum_sums():
    strata = np.repeat([0, 1], [6, 5])
    design = StratifiedDesign(strata, ((6, 2), (5, 3)))
    rng = gen(7)
    for _ in range(50):
        z = draw(design, rng)
        assert z[:6].sum() == 2 and z[6:].sum() == 3


def test_stratified_size_mismatch_rejected():
    with pytest.raises(InvalidSizes):
        StratifiedDesign(np.repeat([0, 1], [6, 4]), ((5, 2), (5, 2)))


def test_mirror_covariates_give_zero_distance():
    half = np.array([[1.0, 2.0], [-1.0, 0.5], [0.3, -1.0]])
    x = np.vstack([half, half])
    z = np.array([1, 1, 1, 0, 0, 0])
    rep = mahalanobis(z, x, threshold=0.5)
    assert rep.mahalanobis < 1e-12
    assert rep.accepted


def test_mahalanobis_hand_example():
    # four units, one covariate x = (2, 0, 1, 1), z = (1,1,0,0):
    # tau_x = 1 - 1 = 0 is too easy, shift one unit
    x = np.array([2.0, 0.0, 1.0, -1.0]).reshape(-1, 1)
    z = np.array([1, 1, 0, 0])
    # tau_x = 1 - 0 = 1; S2_x = var([2,0,1,-1], ddof=1) = 5/3 - wait, compute:
    # mean = 0.5, deviations (1.5, -0.5, 0.5, -1.5), ss = 5, S2 = 5/3
    # cov = (4/(2*2)) * 5/3 = 5/3; M = 1 / (5/3) = 0.6
    rep = mahalanobis(z, x)
    np.testing.assert_allclose(rep.tau_x_hat, [1.0], atol=1e-12)
    np.testing.assert_allclose(rep.mahalanobis, 0.6, atol=1e-12)


def test_mahalanobis_affine_invariance_and_relabeling():
    rng = gen(11)
    x = rng.normal(size=(30, 3))
    z = np.zeros(30, dtype=np.int64)
    z[rng.permutation(30)[:12]] = 1
    a = rng.normal(size=(3, 3)) + 2.0 * np.eye(3)
    b = rng.normal(size=3)
    d1 = mahalanobis(z, x).mahalanobis
    d2 = mahalanobis(z, x @ a + b).mahalanobis
    assert abs(d1 - d2) < 1e-10
    flipped = mahalanobis(1 - z, x)
    np.testing.assert_allclose(flipped.tau_x_hat, -mahalanobis(z, x).tau_x_hat, atol=1e-12)
    # unequal arms change the cov scale only through N/(N1 N0), symmetric in arms
    assert abs(flipped.mahalanobis - d1) < 1e-10


def test_mahalanobis_many_matches_single():
    rng = gen(13)
    x = rng.normal(size=(20, 2))
    zmat = np.stack([draw(CompleteDesign(20, 8), rng) for _ in range(25)])
    many = mahalanobis_many(zmat, x)
    for i in range(25):
        assert abs(many[i] - mahalanobis(zmat[i], x).mahalanobis) < 1e-10


def test_singular_covariance_detected():
    x = np.column_stack([np.arange(8.0), 2.0 * np.arange(8.0)])
    with pytest.raises(SingularCovariance):
        mahalanobis(np.array([1, 1, 1, 1, 0, 0, 0, 0]), x)


def test_rem_infinite_threshold_is_complete():
    rng = gen(17)
    x = rng.normal(size=(12, 1))
    z = draw(RerandomizedDesign(CompleteDesign(12, 6), 1e12, x), rng)
    assert z.sum() == 6


def test_rem_draws_always_satisfy_criterion():
    rng = gen(19)
    x = rng.normal(size=(40, 2))
    a = chi2_quantile(0.3, 2)
    for _ in range(30):
        z = draw(RerandomizedDesign(CompleteDesign(40, 20), a, x), rng)
        assert mahalanobis(z, x, a).accepted


def test_rem_acceptance_rate_near_nominal():
    # a at the chi2 median should accept about half of all candidates
    rng = gen(23)
    n, j = 200, 2
    x = rng.normal(size=(n, j))
    x = (x - x.mean(axis=0)) / x.std(axis=0, ddof=1)
    a = chi2_quantile(0.5, j)
    attempts = 10_000
    template = np.zeros(n, dtype=np.int64)
    template[: n // 2] = 1
    zmat = rng.permuted(np.tile(template, (attempts, 1)), axis=1)
    rate = float((mahalanobis_many(zmat, x) < a).mean())
    se = math.sqrt(0.25 / attempts)
    assert abs(rate - 0.5) < max(3 * se, 0.05)


def test_rem_timeout(monkeypatch):
    monkeypatch.setattr(randtest.designs, "_MAX_TRIES", 256)
    rng = gen(29)
    x = rng.normal(size=(10, 1))
    with pytest.raises(AcceptanceTimeout) as exc:
        draw(RerandomizedDesign(CompleteDesign(10, 5), 1e-12, x), rng)
    assert exc.value.tries == 256


def test_rem_timeout_reports_accepted_fraction(monkeypatch):
    # about half the candidates pass, but the budget allows two per row
    monkeypatch.setattr(randtest.designs, "_MAX_TRIES", 2)
    rng = gen(37)
    x = rng.normal(size=(30, 1))
    design = RerandomizedDesign(CompleteDesign(30, 15), chi2_quantile(0.5, 1), x)
    with pytest.raises(AcceptanceTimeout) as exc:
        design.draw_batch(rng, 100)
    tries, rate = exc.value.tries, exc.value.acceptance_rate
    accepted = round(rate * tries)
    assert 0 < accepted < 100
    assert rate == accepted / tries
    assert tries == 2 * (accepted + 1)


def test_mahalanobis_many_rejects_mixed_arm_sizes():
    x = gen(41).normal(size=(10, 2))
    zmat = np.array([[1] * 5 + [0] * 5, [1] * 4 + [0] * 6])
    with pytest.raises(InvalidSizes):
        mahalanobis_many(zmat, x)


def test_draw_dispatch_and_counts():
    rng = gen(31)
    design = CompleteDesign(6, 3)
    assert draw(design, rng).sum() == 3
    assert design.count() == 20
    strata = np.repeat([0, 1], [4, 4])
    sdesign = StratifiedDesign(strata, ((4, 2), (4, 2)))
    assert sdesign.count() == 36
    x = rng.normal(size=(6, 1))
    rdesign = RerandomizedDesign(CompleteDesign(6, 3), 5.0, x)
    assert rdesign.count() == 20  # pre-filter bound
    assert draw(rdesign, rng).sum() == 3


def _protocol_case(kind):
    """(design, valid data, data with other arm sizes, the parent CLI's
    design block) for one small design."""
    rng = gen(53)
    x = rng.normal(size=(9, 1))
    y = rng.normal(size=9)
    if kind == "complete":
        z = np.array([1, 1, 1, 0, 0, 0, 0, 0, 0])
        return (
            CompleteDesign(9, 3),
            Dataset(y, z, x),
            Dataset(y, np.roll(z, 1) | np.eye(9, dtype=np.int64)[8], x),
            {"kind": "complete", "n": 9, "n1": 3},
        )
    if kind == "cluster":
        clusters = np.array([0, 0, 1, 1, 2, 3, 3, 4, 5])
        zc = np.array([1, 1, 1, 0, 0, 0])
        return (
            ClusterDesign(6, 3),
            Dataset(y, zc[clusters], x, clusters=clusters),
            Dataset(y, np.roll(zc, 1)[clusters] | (clusters == 0), x, clusters=clusters),
            {"kind": "cluster", "clusters": 6, "treated_clusters": 3},
        )
    if kind == "stratified":
        strata = np.repeat([0, 1], [4, 5])
        z = np.array([1, 1, 0, 0, 1, 1, 0, 0, 0])
        return (
            StratifiedDesign(strata, ((4, 2), (5, 2))),
            Dataset(y, z, x, strata=strata),
            Dataset(y, np.array([1, 1, 0, 0, 1, 1, 1, 0, 0]), x, strata=strata),
            {"kind": "stratified", "sizes": [[4, 2], [5, 2]]},
        )
    a = chi2_quantile(0.5, 1)
    z = np.array([1, 1, 1, 1, 0, 0, 0, 0, 0])
    return (
        RerandomizedDesign(CompleteDesign(9, 4), a, x),
        Dataset(y, z, x),
        Dataset(y, np.array([1, 1, 1, 0, 0, 0, 0, 0, 0]), x),
        {"kind": "rem", "n": 9, "n1": 4, "threshold": a, "columns": None},
    )


@pytest.mark.parametrize("kind", ["complete", "cluster", "stratified", "rem"])
def test_design_protocol(kind):
    design, data, other_sizes, block = _protocol_case(kind)
    rows = design.enumerate()
    assert len({tuple(r) for r in rows}) == rows.shape[0]
    if kind == "rem":
        assert 0 < rows.shape[0] < design.count() == math.comb(9, 4)
        assert np.all(mahalanobis_many(rows, design.covariates) < design.threshold)
    else:
        assert design.count() == rows.shape[0]
    assert list(design.describe().items()) == list(block.items())

    adata, adesign = design.analysis_form(data)
    assert adesign.enumerate().shape[1] == adata.n
    with pytest.raises(InvalidSizes):
        design.analysis_form(other_sizes)
    if kind == "stratified":
        moved = np.array([0, 0, 0, 1, 1, 1, 1, 1, 0])
        relabeled = Dataset(data.y, data.z, data.x, strata=moved)
        with pytest.raises(InvariantViolation):
            design.analysis_form(relabeled)
        with pytest.raises(InvariantViolation):
            design.analysis_form(Dataset(data.y, data.z, data.x))


def test_chi2_cdf_values():
    assert chi2_cdf(0.0, 3) == 0.0
    assert chi2_cdf(1e9, 3) == pytest.approx(1.0, abs=1e-12)
    # closed form at k = 2: 1 - exp(-x/2)
    for x in (0.1, 0.5, 1.0, 2.0, 5.0):
        assert abs(chi2_cdf(x, 2) - (1.0 - math.exp(-x / 2))) < 1e-12
    # median quantile round trip
    assert abs(chi2_cdf(chi2_quantile(0.5, 2), 2) - 0.5) < 1e-12
    assert abs(chi2_quantile(0.5, 2) - (-2.0 * math.log(0.5))) < 1e-12
