"""Exact-mode metamorphic relations of the randomization test.

Under the design-based theory the exact p-value is a function of the
population and the design only, so it must not move when the units are
relabelled, and designs that define the same assignment space must give the
same p-value. Nor may it move under the maps a statistic is invariant to:
an affine map of the outcome for the studentized statistics, and an affine
map of the covariates for the adjusted ones. Every relation is checked on
all the statistics it covers and compared for equality.
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
def stratified_cases(draw):
    """Two strata of 6 units, 3 treated in each, in a random unit order."""
    rng = gen(draw(st.integers(0, 2**32 - 1)))
    strata = rng.permutation(np.repeat([0, 1], 6))
    z = np.empty(12, dtype=np.int64)
    for k in (0, 1):
        z[strata == k] = rng.permutation([1, 1, 1, 0, 0, 0])
    return Dataset(rng.normal(size=12), z, rng.normal(size=(12, 1)), strata=strata)


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
@given(
    complete_cases(), st.floats(-5, 5), st.floats(0.1, 10), st.sampled_from(["one", "two", "flip"])
)
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
    rng = gen(seed)
    q = np.linalg.qr(rng.normal(size=(data.j, data.j)))[0]
    a = q * rng.uniform(0.5, 2.0, size=data.j) * rng.choice([-1.0, 1.0], size=data.j)
    moved = Dataset(data.y, data.z, data.x @ a + rng.normal(scale=5.0, size=data.j))
    design = CompleteDesign(data.n, data.n1)
    assert exact_p(moved, design, ADJUSTED) == exact_p(data, design, ADJUSTED)
