"""Exact size of the randomization test under the weak null.

Under the weak null only the average effect is zero, so the observed
outcomes, and with them every replicate, change with the observed
assignment. Enumerating every observed assignment against the whole space
gives each one's exact p-value, and P(p <= alpha) over the design is a
number with no Monte Carlo noise.

Each population was fixed before its sizes were computed: one covariate and
heteroskedastic unit effects centred to a zero average, under
- a complete design, 14 units with 4 treated;
- a stratified design, two strata of 6 with 3 treated in each;
- a cluster design, 10 clusters of unequal sizes with 4 treated;
- rerandomization (ReM) of the complete design's population, keeping the
  assignments whose covariate imbalance lies below its chi-square median.

The paper's claim is that a robust-t statistic comes closer to alpha than
its unstudentized and classic counterparts. That ordering is asserted where
it holds at these configurations and no further:
- complete: it holds throughout, yet with 4 treated units only the
  unadjusted robust-t holds the level;
- stratified: balanced arms within strata make every statistic
  conservative, and the robust-t of `n`, `r` and `f` ties or trails a
  counterpart;
- cluster: the robust-t of `f` ties its unstudentized counterpart;
- ReM: it holds throughout, yet every statistic over-rejects at N = 14.
"""

import numpy as np
import pytest

from randtest import (
    ALL_SPECS,
    ClusterDesign,
    CompleteDesign,
    Dataset,
    RerandomizedDesign,
    StratifiedDesign,
    chi2_quantile,
    frt_p_value,
)
from randtest._batch import make_evaluator, stat_matrix
from randtest.engine import _count_extreme, _p_value, exhaustive_assignments
from conftest import gen

ALPHA = 0.05
LABELS = [s.label for s in ALL_SPECS]
# Per design: the size of the space, then per statistic, in ALL_SPECS order
# (n, r, f, l, each none / classic / robust), the assignments whose
# two-sided exact p-value is <= 0.05
REJECTIONS = {
    "complete": (1001, [133, 133, 50, 199, 199, 82, 171, 193, 107, 192, 257, 128]),
    "stratified": (400, [0, 2, 2, 2, 2, 2, 2, 3, 2, 3, 7, 14]),
    "cluster": (210, [15, 15, 11, 15, 15, 9, 10, 13, 10, 17, 17, 13]),
    "rem": (481, [93, 93, 53, 107, 107, 50, 108, 107, 53, 111, 137, 71]),
}
# Per design and counterpart: the adjustments whose robust-t size is
# strictly closer to alpha than the counterpart's
CLOSER = {
    "complete": {"none": "nrfl", "classic": "nrfl"},
    "stratified": {"none": "nl", "classic": "l"},
    "cluster": {"none": "nrl", "classic": "nrfl"},
    "rem": {"none": "nrfl", "classic": "nrfl"},
}


def _outcomes(rng, x, base):
    """(y1, y0): y0 is x plus `base` plus noise, y1 adds heteroskedastic
    unit effects centred to a zero average."""
    y0 = x[:, 0] + base + 0.5 * rng.normal(size=x.shape[0])
    effect = 2.0 * (1.0 + np.abs(x[:, 0])) * rng.normal(size=x.shape[0])
    return y0 + effect - effect.mean(), y0


def _case(name):
    """(design, data_at): `data_at(row)` is the observed Dataset when the
    design's assignment `row` is drawn."""
    if name in ("complete", "rem"):
        rng = gen(14)
        x = rng.normal(size=(14, 1))
        y1, y0 = _outcomes(rng, x, 0.0)
        design = CompleteDesign(14, 4)
        if name == "rem":
            design = RerandomizedDesign(design, chi2_quantile(0.5, 1), x)
        return design, lambda z: Dataset(np.where(z == 1, y1, y0), z.astype(np.int64), x)
    if name == "stratified":
        rng = gen(66)
        strata = np.repeat([0, 1], 6)
        x = rng.normal(size=(12, 1))
        y1, y0 = _outcomes(rng, x, strata)
        design = StratifiedDesign(strata, ((6, 3), (6, 3)))
        return design, lambda z: Dataset(
            np.where(z == 1, y1, y0), z.astype(np.int64), x, strata=strata
        )
    rng = gen(10)
    clusters = np.repeat(np.arange(10), (1, 1, 2, 2, 3, 3, 4, 4, 6, 8))
    x = rng.normal(size=(clusters.size, 1))
    y1, y0 = _outcomes(rng, x, rng.normal(size=10)[clusters])

    def data_at(row):
        z = row[clusters].astype(np.int64)
        return Dataset(np.where(z == 1, y1, y0), z, x, clusters=clusters)

    return ClusterDesign(10, 4), data_at


def _check_exact_size(name):
    design, data_at = _case(name)
    zmat = exhaustive_assignments(design)
    m = zmat.shape[0]
    # p[k, s]: the p-value of statistic s when assignment k is observed
    p = np.empty((m, len(ALL_SPECS)))
    for k in range(m):
        adata, adesign = design.analysis_form(data_at(zmat[k]))
        vals = stat_matrix(make_evaluator(adata.y, adata.x, adesign.strata), zmat, ALL_SPECS)[0]
        p[k] = _p_value(_count_extreme(vals, vals[k], "two"), m, True)
    size = dict(zip(LABELS, np.mean(p <= ALPHA, axis=0)))
    space, counts = REJECTIONS[name]
    assert m == space
    for label, count in zip(LABELS, counts):
        assert abs(size[label] - count / m) < 1e-12, label
    for counterpart, adjustments in CLOSER[name].items():
        for a in adjustments:
            assert abs(size[f"{a}:robust"] - ALPHA) < abs(size[f"{a}:{counterpart}"] - ALPHA)
    # the public exact test, which evaluates the observed assignment as a
    # row of its own, agrees on two observed assignments
    for k in (0, m // 2):
        data = data_at(zmat[k])
        results = [frt_p_value(data, spec, design, exact=True).p_value for spec in ALL_SPECS]
        np.testing.assert_array_equal(results, p[k])


def test_weak_null_exact_size_complete():
    _check_exact_size("complete")


@pytest.mark.parametrize("name", ["stratified", "cluster", "rem"])
def test_weak_null_exact_size_other_designs(name):
    _check_exact_size(name)
