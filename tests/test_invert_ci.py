"""Interval inversion against a grid-scan oracle built from the public API.

`invert_ci` evaluates the reference set at three shifts and interpolates;
the oracle runs `frt_p_value` on the shifted outcome Y - cZ at every grid
point, which draws the same reference rows. Every grid p-value must equal
the oracle's, and each endpoint must be where the oracle's acceptance ends.

The two paths round differently. A replicate whose statistic equals the
observed one in real arithmetic (the complement of the observed assignment
when N1 = N/2, always in the exact reference set) still counts the same on
both, because extreme counting treats a relative 1e-9 as a tie.
"""

import warnings

import numpy as np
import pytest

import randtest.engine as engine
from randtest import (
    ALL_SPECS,
    ClusterDesign,
    CompleteDesign,
    Dataset,
    EmptyAcceptanceRegion,
    InvariantViolation,
    RerandomizedDesign,
    StatisticSpec,
    StratifiedDesign,
    chi2_quantile,
    estimate,
    frt_p_value,
    frt_p_values,
    invert_ci,
    wald_ci,
)
from conftest import gen, random_dataset

ALPHA = 0.1
L_ROBUST = StatisticSpec("l", "robust")


def _complete(seed, n, n1, j=2):
    rng = gen(seed)
    x = rng.normal(size=(n, j))
    z = np.zeros(n, dtype=np.int64)
    z[rng.permutation(n)[:n1]] = 1
    y = x @ np.linspace(1.0, -0.5, j) + 0.7 * z + rng.normal(size=n) * (1.0 + z)
    return Dataset(y, z, x)


def _stratified(seed):
    rng = gen(seed)
    strata = np.repeat([0, 1, 2], [12, 10, 14])
    z = np.zeros(strata.size, dtype=np.int64)
    for k, n1 in enumerate((6, 4, 7)):
        idx = np.flatnonzero(strata == k)
        z[rng.permutation(idx)[:n1]] = 1
    x = rng.normal(size=(strata.size, 1))
    y = 0.8 * x[:, 0] + 0.5 * z + strata + rng.normal(size=strata.size)
    data = Dataset(y, z, x, strata=strata)
    return data, StratifiedDesign.from_observed(strata, z)


def _clustered(seed, sizes):
    rng = gen(seed)
    m = len(sizes)
    clusters = np.repeat(np.arange(m), sizes)
    treated = np.zeros(m, dtype=np.int64)
    treated[rng.permutation(m)[:7]] = 1
    z = treated[clusters]
    x = rng.normal(size=(clusters.size, 1))
    y = x[:, 0] + 0.6 * z + rng.normal(size=m)[clusters] + rng.normal(size=clusters.size)
    return Dataset(y, z, x, clusters=clusters), ClusterDesign(m, 7)


def _rem(seed):
    data = _complete(seed, 36, 18, j=2)
    design = RerandomizedDesign(CompleteDesign(36, 18), chi2_quantile(0.5, 2), data.x)
    return data, design


def _case(name):
    """(data, design, r, exact) for one design family."""
    if name == "complete-half":
        return _complete(401, 40, 20), CompleteDesign(40, 20), 99, False
    if name == "complete-unbalanced":
        return _complete(402, 41, 15), CompleteDesign(41, 15), 99, False
    if name == "stratified":
        return (*_stratified(403), 99, False)
    if name == "cluster":
        return (*_clustered(404, [3] * 16), 99, False)
    if name == "cluster-unequal":
        # the analysis form of Z is then the scaled sizes, not the cluster indicator
        return (*_clustered(410, 1 + np.arange(16) % 5), 99, False)
    if name == "rem":
        return (*_rem(405), 49, False)  # ReM draws are the slow part of the oracle
    if name == "exact-half":
        return _complete(406, 10, 5, j=1), CompleteDesign(10, 5), 0, True
    if name == "exact-unbalanced":
        return _complete(408, 11, 4, j=1), CompleteDesign(11, 4), 0, True
    raise ValueError(name)


CASES = (
    "complete-half",
    "complete-unbalanced",
    "stratified",
    "cluster",
    "cluster-unequal",
    "rem",
    "exact-half",
    "exact-unbalanced",
)


def _oracle(data, spec, design, points, r, exact):
    z = data.z.astype(np.float64)
    x = data.x if data.j else None
    return [
        frt_p_value(
            Dataset(data.y - c * z, data.z, x, strata=data.strata, clusters=data.clusters),
            spec,
            design,
            r=r,
            seed=17,
            exact=exact,
        )
        for c in points
    ]


def _grid(data, design):
    if isinstance(design, ClusterDesign):
        tau = estimate(engine.cluster_collapse(data), "n")
    else:
        tau = estimate(data, "n")
    lo, hi = wald_ci(tau, ALPHA)
    width = hi - lo
    return (lo - width, hi + width, 15)


@pytest.mark.parametrize("name", CASES)
def test_closed_form_matches_grid_scan(name):
    data, design, r, exact = _case(name)
    grid = _grid(data, design)
    points = np.linspace(*grid[:2], grid[2])
    for spec in ALL_SPECS:
        oracle = _oracle(data, spec, design, points, r, exact)
        p_oracle = np.array([o.p_value for o in oracle])
        accepted = p_oracle > ALPHA
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # non-robust specs warn
            if not accepted.any():
                with pytest.raises(EmptyAcceptanceRegion):
                    invert_ci(data, spec, ALPHA, design, r=r, seed=17, grid=grid, exact=exact)
                continue
            res = invert_ci(data, spec, ALPHA, design, r=r, seed=17, grid=grid, exact=exact)
        np.testing.assert_array_equal(res.points, points)
        np.testing.assert_array_equal(res.p_values, p_oracle, err_msg=spec.label)
        assert (res.lower_at_edge, res.upper_at_edge) == (bool(accepted[0]), bool(accepted[-1]))
        # each endpoint lies between the outermost accepted grid point and its
        # rejected neighbour, and the oracle accepts just inside it and
        # rejects just outside it
        first, last = np.flatnonzero(accepted)[[0, -1]]
        nudge = 1e-6 * (points[1] - points[0])
        if first == 0:
            assert res.lower == points[0]
        else:
            assert points[first - 1] < res.lower <= points[first]
            inside, outside = _oracle(
                data, spec, design, [res.lower + nudge, res.lower - nudge], r, exact
            )
            assert inside.p_value > ALPHA >= outside.p_value, spec.label
        if last == points.size - 1:
            assert res.upper == points[-1]
        else:
            assert points[last] <= res.upper < points[last + 1]
            inside, outside = _oracle(
                data, spec, design, [res.upper - nudge, res.upper + nudge], r, exact
            )
            assert inside.p_value > ALPHA >= outside.p_value, spec.label


def test_chunked_inversion_is_bitwise_stable(small_blocks):
    data = _complete(407, 60, 30)
    design = CompleteDesign(60, 30)
    base = invert_ci(data, L_ROBUST, 0.05, design, r=300, seed=5)
    small_blocks(60 * 37)
    chunked = invert_ci(data, L_ROBUST, 0.05, design, r=300, seed=5)
    small_blocks(60 * 7)
    finer = invert_ci(data, L_ROBUST, 0.05, design, r=300, seed=5)
    np.testing.assert_array_equal(chunked.p_values, finer.p_values)
    np.testing.assert_array_equal(chunked.p_values, base.p_values)
    assert (chunked.lower, chunked.upper) == (finer.lower, finer.upper) == (base.lower, base.upper)


def test_grid_edge_truncation_is_flagged():
    data = random_dataset(283, n=30, j=1, tau=0.5)
    design = CompleteDesign(30, 15)
    res = invert_ci(data, L_ROBUST, 0.05, design, r=200, seed=4, grid=(0.0, 5, 51))
    assert res.wald_init[0] < 0.0
    assert res.lower == 0.0 and res.lower_at_edge
    assert not res.upper_at_edge and res.upper < 5.0
    assert res.p_values[0] > 0.05 and res.p_values[-1] <= 0.05
    # on the default grid the same test reaches below zero
    full = invert_ci(data, L_ROBUST, 0.05, design, r=200, seed=4)
    assert full.lower < 0.0
    assert not (full.lower_at_edge or full.upper_at_edge)


def test_p_curve_matches_grid():
    data = random_dataset(283, n=30, j=1, tau=0.5)
    res = invert_ci(data, L_ROBUST, 0.05, CompleteDesign(30, 15), r=200, seed=4)
    lo, hi, step = res.grid
    assert res.points.shape == res.p_values.shape == (201,)
    assert res.points[0] == lo and res.points[-1] == hi
    np.testing.assert_allclose(np.diff(res.points), step)
    kept = res.points[res.p_values > 0.05]
    assert kept.min() - step < res.lower <= kept.min()
    assert kept.max() <= res.upper < kept.max() + step
    assert np.all((res.p_values >= 1 / 201) & (res.p_values <= 1))


@pytest.mark.parametrize("chunk_rows", [1, 2])
def test_zero_replicates_rejected(chunk_rows, small_blocks):
    # rejected before evaluation, however small the evaluation blocks are
    small_blocks(20 * chunk_rows)
    data = random_dataset(409, n=20, j=1)
    design = CompleteDesign(20, 10)
    with pytest.raises(InvariantViolation):
        frt_p_values(data, [L_ROBUST], design, r=0, seed=1)
    with pytest.raises(InvariantViolation):
        invert_ci(data, L_ROBUST, 0.05, design, r=0, seed=1)
    with pytest.raises(InvariantViolation):
        frt_p_value(data, L_ROBUST, design, r=0, seed=1)


def _sequential_boundary(p_at, alpha, inside, outside):
    # one midpoint per p_at call: the search the batched one must reproduce
    for _ in range(64):
        mid = inside + (outside - inside) / 2
        if mid in (inside, outside):
            break
        if p_at(np.array([mid]))[0] > alpha:
            inside = mid
        else:
            outside = mid
    return inside


@pytest.mark.parametrize("seed", range(8))
def test_batched_boundary_matches_sequential_bisection(seed):
    rng = gen(seed)
    # p-curves crossing alpha one to three times, searched both ways to float
    # resolution; the last search starts 1e300 wide, so it is still halving
    # at the 64-halving cap
    cuts = np.sort(rng.uniform(-1, 1, size=rng.integers(1, 4)))
    wide = np.array([1e290 * rng.uniform(1, 2)])
    calls = []
    for cut, inside, outside in [(cuts, -1.0, 1.0), (cuts, 1.0, -1.0), (wide, 0.0, 1e300)]:

        def p_at(shifts, cut=cut):
            calls.append(shifts.size)
            return np.where(np.searchsorted(cut, shifts) % 2 == 0, 0.5, 0.01)

        if p_at(np.array([inside]))[0] <= ALPHA:
            inside, outside = outside, inside
        want = _sequential_boundary(p_at, ALPHA, inside, outside)
        calls.clear()
        assert engine._boundary(p_at, ALPHA, inside, outside) == want
        assert len(calls) <= 64 // engine._BISECT_DEPTH + 1


@pytest.mark.parametrize("name", ["complete-half", "stratified", "exact-half"])
def test_batched_boundary_matches_sequential_in_invert_ci(name, monkeypatch):
    data, design, r, exact = _case(name)
    batched = invert_ci(data, L_ROBUST, ALPHA, design, r=r, seed=17, exact=exact)
    monkeypatch.setattr(engine, "_boundary", _sequential_boundary)
    sequential = invert_ci(data, L_ROBUST, ALPHA, design, r=r, seed=17, exact=exact)
    assert (batched.lower, batched.upper) == (sequential.lower, sequential.upper)
    np.testing.assert_array_equal(batched.p_values, sequential.p_values)
