"""Exact-mode metamorphic relations of the randomization test.

Under the design-based theory the exact p-value is a function of the
population and the design only, so it must not move when the units are
relabelled, and designs that define the same assignment space must give the
same p-value. Nor may it move under the maps a statistic is invariant to:
an affine map of the outcome for the studentized statistics, and an affine
map of the covariates for the adjusted ones, under complete, stratified
and cluster designs. Every relation is checked on all the statistics it
covers and compared for equality.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from randtest import (
    ALL_SPECS,
    ClusterDesign,
    CompleteDesign,
    Dataset,
    StratifiedDesign,
    frt_p_value,
)
from conftest import gen


STUDENTIZED = [spec for spec in ALL_SPECS if spec.studentization != "none"]
ADJUSTED = [spec for spec in ALL_SPECS if spec.adjustment != "n"]
# one-sided, two-sided, and two-sided with b < 0 in the outcome relations
SIDES = ["one", "two", "flip"]


def exact_p(data, design, specs=ALL_SPECS, sided="two"):
    return [frt_p_value(data, spec, design, exact=True, sided=sided).p_value for spec in specs]


def relabel(data, order):
    """The same units listed in `order`, with their strata and cluster labels."""
    strata, clusters = (None if a is None else a[order] for a in (data.strata, data.clusters))
    return Dataset(data.y[order], data.z[order], data.x[order], strata, clusters)


@st.composite
def complete_cases(draw):
    """A complete-design dataset with N <= 10 and J + 2 units per arm, the
    fewest the interacted adjustment fits."""
    j = draw(st.integers(1, 2))
    n = draw(st.integers(2 * j + 4, 10))
    n1 = draw(st.integers(j + 2, n - j - 2))
    rng = gen(draw(st.integers(0, 2**32 - 1)))
    z = rng.permutation(np.repeat([1, 0], [n1, n - n1]))
    return Dataset(rng.normal(size=n), z, rng.normal(size=(n, j)))


@st.composite
def stratified_cases(draw, j=1):
    """Two strata of 2J + 4 units, J + 2 treated in each, in a random unit
    order, with J covariates."""
    rng = gen(draw(st.integers(0, 2**32 - 1)))
    size = 2 * j + 4
    strata = rng.permutation(np.repeat([0, 1], size))
    z = np.empty(2 * size, dtype=np.int64)
    for k in (0, 1):
        z[strata == k] = rng.permutation(np.repeat([1, 0], size // 2))
    return Dataset(rng.normal(size=2 * size), z, rng.normal(size=(2 * size, j)), strata=strata)


@st.composite
def cluster_cases(draw):
    """(data, equal): 8 clusters, 4 treated, of 2 units each if `equal` and
    of 1 to 3 otherwise, with J in {1, 2} covariates."""
    j = draw(st.integers(1, 2))
    equal = draw(st.booleans())
    rng = gen(draw(st.integers(0, 2**32 - 1)))
    sizes = np.full(8, 2) if equal else rng.integers(1, 4, size=8)
    clusters = rng.permutation(np.repeat(np.arange(8), sizes))
    z = rng.permutation(np.repeat([1, 0], 4))[clusters]
    n = clusters.size
    return Dataset(rng.normal(size=n), z, rng.normal(size=(n, j)), clusters=clusters), equal


def affine_map(rng, j):
    """(A, c): a random nonsingular J x J matrix and shift."""
    q = np.linalg.qr(rng.normal(size=(j, j)))[0]
    a = q * rng.uniform(0.5, 2.0, size=j) * rng.choice([-1.0, 1.0], size=j)
    return a, rng.normal(scale=5.0, size=j)


def stratified_design(data):
    return StratifiedDesign.from_observed(data.strata, data.z)


@settings(max_examples=60, deadline=None)
@given(complete_cases(), st.data())
def test_relabelling_units_keeps_complete_p(data, pick):
    order = np.array(pick.draw(st.permutations(range(data.n))))
    design = CompleteDesign(data.n, data.n1)
    assert exact_p(relabel(data, order), design) == exact_p(data, design)


@settings(max_examples=60, deadline=None)
@given(stratified_cases(), st.data())
def test_relabelling_units_keeps_stratified_p(data, pick):
    order = np.array(pick.draw(st.permutations(range(data.n))))
    moved = relabel(data, order)
    assert exact_p(moved, stratified_design(moved)) == exact_p(data, stratified_design(data))


@settings(max_examples=60, deadline=None)
@given(complete_cases())
def test_one_stratum_is_the_complete_design(data):
    one = Dataset(data.y, data.z, data.x, strata=np.zeros(data.n, dtype=np.int64))
    assert exact_p(one, stratified_design(one)) == exact_p(data, CompleteDesign(data.n, data.n1))


@settings(max_examples=60, deadline=None)
@given(complete_cases(), st.data())
def test_singleton_clusters_are_the_complete_design(data, pick):
    # with M = N the scaled cluster totals are the unit values themselves
    labels = np.array(pick.draw(st.permutations(range(data.n))))
    clustered = Dataset(data.y, data.z, data.x, clusters=labels)
    assert exact_p(clustered, ClusterDesign(data.n, data.n1)) == exact_p(
        data, CompleteDesign(data.n, data.n1)
    )


@settings(max_examples=60, deadline=None)
@given(complete_cases(), st.floats(-5, 5), st.floats(0.1, 10), st.sampled_from(SIDES))
def test_affine_outcome_keeps_studentized_p(data, a, b, case):
    # t(a + b y) = sign(b) t(y): b > 0 keeps either side's p, b < 0 the two-sided one
    sided, b = ("two", -b) if case == "flip" else (case, b)
    design = CompleteDesign(data.n, data.n1)
    moved = Dataset(a + b * data.y, data.z, data.x)
    assert exact_p(moved, design, STUDENTIZED, sided) == exact_p(data, design, STUDENTIZED, sided)


@settings(max_examples=60, deadline=None)
@given(complete_cases(), st.integers(0, 2**32 - 1))
def test_affine_covariates_keep_adjusted_p(data, seed):
    # (1, XA + c) spans what (1, X) does for nonsingular A
    a, c = affine_map(gen(seed), data.j)
    moved = Dataset(data.y, data.z, data.x @ a + c)
    design = CompleteDesign(data.n, data.n1)
    assert exact_p(moved, design, ADJUSTED) == exact_p(data, design, ADJUSTED)


@settings(max_examples=40, deadline=None)
@given(stratified_cases(), st.floats(-5, 5), st.floats(0.1, 10), st.sampled_from(SIDES))
def test_affine_outcome_keeps_stratified_studentized_p(data, a, b, case):
    # each stratum's estimate and SE move as the complete design's do
    sided, b = ("two", -b) if case == "flip" else (case, b)
    moved = Dataset(a + b * data.y, data.z, data.x, strata=data.strata)
    design = stratified_design(data)
    assert exact_p(moved, design, STUDENTIZED, sided) == exact_p(data, design, STUDENTIZED, sided)


@settings(max_examples=12, deadline=None)  # 4,900 assignments each
@given(stratified_cases(j=2), st.integers(0, 2**32 - 1))
def test_affine_covariates_keep_stratified_adjusted_p(data, seed):
    # the adjustment is per stratum, and (1, XA + c) spans what (1, X) does
    # in every stratum
    a, c = affine_map(gen(seed), data.j)
    moved = Dataset(data.y, data.z, data.x @ a + c, strata=data.strata)
    design = stratified_design(data)
    assert exact_p(moved, design, ADJUSTED) == exact_p(data, design, ADJUSTED)


@settings(max_examples=40, deadline=None)
@given(cluster_cases(), st.floats(-5, 5), st.floats(0.1, 10), st.sampled_from(SIDES))
def test_affine_outcome_keeps_cluster_studentized_p(case_data, a, b, case):
    # a shift of y adds a times the scaled cluster sizes to the cluster
    # totals, a constant only when the clusters are of equal size
    data, equal = case_data
    sided, b = ("two", -b) if case == "flip" else (case, b)
    moved = Dataset(a * equal + b * data.y, data.z, data.x, clusters=data.clusters)
    design = ClusterDesign(8, 4)
    assert exact_p(moved, design, STUDENTIZED, sided) == exact_p(data, design, STUDENTIZED, sided)


@settings(max_examples=40, deadline=None)
@given(cluster_cases(), st.integers(0, 2**32 - 1))
def test_affine_covariates_keep_cluster_adjusted_p(case_data, seed):
    # the scaled covariate totals map by XA, and the shift, as for y, only
    # when the clusters are of equal size
    data, equal = case_data
    a, c = affine_map(gen(seed), data.j)
    moved = Dataset(data.y, data.z, data.x @ a + c * equal, clusters=data.clusters)
    design = ClusterDesign(8, 4)
    assert exact_p(moved, design, ADJUSTED) == exact_p(data, design, ADJUSTED)
