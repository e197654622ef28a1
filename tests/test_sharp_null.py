"""Exact size of the randomization test under the sharp null.

Under the sharp null no unit's outcome depends on its assignment, so the
statistics of every admissible assignment are fixed before the draw.
Evaluating them once gives every assignment's exact p-value, and the
rejection probability P(p <= alpha) over the design is a number with no
Monte Carlo noise. It never exceeds alpha, for any design, statistic, side
and population: the test is exact.
"""

from dataclasses import replace

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from randtest import (
    ALL_SPECS,
    ClusterDesign,
    CompleteDesign,
    Dataset,
    RerandomizedDesign,
    StratifiedDesign,
    frt_p_value,
)
from randtest._batch import make_evaluator, stat_matrix
from randtest.engine import _count_extreme, _p_value, exhaustive_assignments
from conftest import gen

ALPHAS = (0.01, 0.05, 0.1, 0.2, 0.5)


def _treat(rng, n, n1):
    return rng.permutation(np.repeat([1, 0], [n1, n - n1]))


@st.composite
def populations(draw):
    """(data, design): N <= 12 units with J covariates and one admissible
    observed assignment, under a complete, stratified, cluster or ReM
    design, with J + 2 units (or clusters) per arm, the fewest the
    interacted fit takes; outcomes are continuous or take three values, so
    that ties occur."""
    kind = draw(st.sampled_from(["complete", "stratified", "cluster", "rem"]))
    rng = gen(draw(st.integers(0, 2**32 - 1)))
    j = 1 if kind == "stratified" else draw(st.integers(1, 2))
    strata = clusters = None
    if kind == "stratified":
        # two strata of 6, the most N <= 12 allows with 3 units per arm
        strata = rng.permutation(np.repeat([0, 1], 6))
        z = np.empty(12, dtype=np.int64)
        for k in (0, 1):
            z[strata == k] = _treat(rng, 6, 3)
    elif kind == "cluster":
        m = draw(st.integers(2 * j + 4, 8))
        m1 = draw(st.integers(j + 2, m - j - 2))
        sizes = 1 + rng.multinomial(draw(st.integers(0, 12 - m)), np.full(m, 1 / m))
        clusters = np.repeat(rng.permutation(m), sizes)
        z = _treat(rng, m, m1)[clusters]
    else:
        n = draw(st.integers(2 * j + 4, 12))
        z = _treat(rng, n, draw(st.integers(j + 2, n - j - 2)))
    n = z.shape[0]
    x = rng.normal(size=(n, j))
    y = rng.integers(0, 3, size=n) * 1.0 if draw(st.booleans()) else rng.normal(size=n) + x[:, 0]
    data = Dataset(y, z, x, strata=strata, clusters=clusters)
    if kind == "stratified":
        return data, StratifiedDesign.from_observed(data.strata, data.z)
    if kind == "cluster":
        return data, ClusterDesign(m, m1)
    complete = CompleteDesign(n, data.n1)
    if kind == "rem":
        return data, RerandomizedDesign(complete, draw(st.floats(1.0, 4.0)), x)
    return data, complete


@settings(max_examples=60, deadline=None)
@given(populations(), st.data())
def test_sharp_null_size_is_at_most_alpha(population, pick):
    data, design = population
    adata, adesign = design.analysis_form(data)
    zmat = exhaustive_assignments(adesign)
    vals = stat_matrix(make_evaluator(adata.y, adata.x, adesign.strata), zmat, ALL_SPECS)[0]
    rows = zmat.shape[0]
    checked = pick.draw(st.lists(st.integers(0, rows - 1), min_size=2, max_size=2))
    spec = pick.draw(st.integers(0, len(ALL_SPECS) - 1))
    for sided in ("one", "two"):
        # p[k, s]: the p-value of statistic s when assignment k is observed
        p = _p_value(_count_extreme(vals[:, None, :], vals[None, :, :], sided), rows, True)
        for alpha in ALPHAS:
            assert np.all(np.mean(p <= alpha, axis=0) <= alpha + 1e-12)
        for k in checked:
            z = zmat[k] if data.clusters is None else zmat[k][data.clusters]
            observed = replace(data, z=z.astype(np.int64))
            result = frt_p_value(observed, ALL_SPECS[spec], design, exact=True, sided=sided)
            assert result.p_value == p[k, spec]
