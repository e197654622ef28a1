"""Batched reference draws: the determinism contract and the draws' law.

Reference assignments are drawn in chunks of `engine._STREAM_ROWS` rows,
chunk c from the stream seeded by (seed, c). Results must not depend on how
many chunks evaluation is split into, a run of R replicates must be the
prefix of a longer run with the same seed, and every drawn row must be a
valid, uniformly drawn member of its design.
"""

import numpy as np
import pytest
import scipy.stats

import randtest.designs as designs
import randtest.engine as engine
import randtest.permlm as permlm
from randtest import (
    ALL_SPECS,
    ClusterDesign,
    CompleteDesign,
    Dataset,
    PermLmSpec,
    RerandomizedDesign,
    StratifiedDesign,
    chi2_quantile,
    mahalanobis_many,
    perm_lm_p_value,
)
from conftest import gen, random_dataset

STRATA = np.repeat([0, 1, 2], [7, 12, 9])


def _design(kind):
    if kind == "complete":
        return CompleteDesign(28, 11)
    if kind == "cluster":
        return ClusterDesign(9, 4)
    if kind == "stratified":
        return StratifiedDesign(STRATA, ((7, 3), (12, 6), (9, 4)))
    x = gen(5).normal(size=(28, 2))
    return RerandomizedDesign(CompleteDesign(28, 14), chi2_quantile(0.25, 2), x)


KINDS = ("complete", "cluster", "stratified", "rem")


def _draw_matrix(design, r, seed):
    """The `r` drawn rows of the engine's reference set, which holds the
    observed assignment (here all zeros) as row 0."""
    # the engine draws a cluster design's reference set over its clusters
    if isinstance(design, ClusterDesign):
        design = CompleteDesign(design.n_clusters, design.n_treated_clusters)
    z = np.zeros(design.n_units, dtype=np.int64)
    zmat = engine._reference_set(design, z, r, seed, False)
    assert zmat.shape == (r + 1, design.n_units) and not zmat[0].any()
    return zmat[1:]


@pytest.mark.parametrize("kind", KINDS)
def test_prefix_property_across_chunks(kind, monkeypatch):
    monkeypatch.setattr(engine, "_STREAM_ROWS", 16)
    design = _design(kind)
    short = _draw_matrix(design, 37, seed=3)
    long = _draw_matrix(design, 3 * 37, seed=3)
    np.testing.assert_array_equal(long[:37], short)
    assert not np.array_equal(long[37:74], short)


def test_prefix_property_at_default_chunk_size():
    design = _design("stratified")
    short = _draw_matrix(design, 700, seed=8)
    long = _draw_matrix(design, 2100, seed=8)
    np.testing.assert_array_equal(long[:700], short)


def test_permutation_prefix_property(monkeypatch):
    monkeypatch.setattr(engine, "_STREAM_ROWS", 16)
    short = permlm._draw_permutations(13, 37, seed=4)
    long = permlm._draw_permutations(13, 3 * 37, seed=4)
    np.testing.assert_array_equal(long[:37], short)
    assert all(np.array_equal(np.sort(row), np.arange(13)) for row in long)


def test_seed_and_chunk_select_the_stream(monkeypatch):
    monkeypatch.setattr(engine, "_STREAM_ROWS", 16)
    design = _design("complete")
    a = _draw_matrix(design, 32, seed=1)
    b = _draw_matrix(design, 32, seed=2)
    assert not np.array_equal(a, b)
    assert not np.array_equal(a[:16], a[16:])


def _stratified_data(seed):
    rng = gen(seed)
    z = np.zeros(STRATA.size, dtype=np.int64)
    for k, n1 in enumerate((3, 6, 4)):
        z[rng.permutation(np.flatnonzero(STRATA == k))[:n1]] = 1
    x = rng.normal(size=(STRATA.size, 1))
    return Dataset(x[:, 0] + z + rng.normal(size=STRATA.size), z, x, strata=STRATA)


def _data_for(kind):
    if kind == "stratified":
        return _stratified_data(11)
    if kind == "cluster":
        rng = gen(12)
        clusters = np.repeat(np.arange(9), 3)
        z = np.isin(clusters, rng.permutation(9)[:4]).astype(np.int64)
        x = rng.normal(size=(27, 1))
        return Dataset(x[:, 0] + z + rng.normal(size=27), z, x, clusters=clusters)
    data = random_dataset(13, n=28, j=2)
    n1 = 11 if kind == "complete" else 14
    z = np.zeros(28, dtype=np.int64)
    z[:n1] = 1
    return Dataset(data.y, z, data.x)


def _chunked_runs(small_blocks, run, n):
    """`run()` with the reference set in one evaluation block, then in
    blocks of at most 50 and of 7 rows (`n` analyzed units per row)."""
    runs = [run()]
    for rows in (50, 7):
        small_blocks(n * rows)
        runs.append(run())
    return runs


@pytest.mark.parametrize("kind", KINDS)
def test_results_invariant_to_chunk_count(kind, monkeypatch, small_blocks):
    monkeypatch.setattr(engine, "_STREAM_ROWS", 64)
    data, design = _data_for(kind), _design(kind)
    runs = _chunked_runs(
        small_blocks,
        lambda: engine._frt(data, list(ALL_SPECS), design, 300, 9, False, "two"),
        design.analysis_form(data)[1].n_units,
    )
    for t_obs, vals, p in runs[1:]:
        np.testing.assert_array_equal(t_obs, runs[0][0])
        np.testing.assert_array_equal(p, runs[0][2])
        np.testing.assert_allclose(vals, runs[0][1], rtol=1e-12, atol=1e-12)


def test_permlm_invariant_to_chunk_count(monkeypatch, small_blocks):
    monkeypatch.setattr(engine, "_STREAM_ROWS", 64)
    data = random_dataset(14, n=30, j=2)
    spec = PermLmSpec("fl", "robust")
    runs = _chunked_runs(small_blocks, lambda: perm_lm_p_value(data, spec, r=300, seed=2), 30)
    for res in runs[1:]:
        assert res.p_value == runs[0].p_value
        np.testing.assert_allclose(res.replicates, runs[0].replicates, rtol=1e-12, atol=1e-12)


def _assert_arm_sizes(kind, design, zmat):
    if kind == "stratified":
        for k, (n_k, n_k1) in enumerate(design.sizes):
            assert np.all(zmat[:, STRATA == k].sum(axis=1) == n_k1)
    elif kind == "cluster":
        assert np.all(zmat.sum(axis=1) == design.n_treated_clusters)
    else:
        base = design if kind == "complete" else design.base
        assert np.all(zmat.sum(axis=1) == base.n_treated)


@pytest.mark.parametrize("kind", KINDS)
def test_drawn_rows_are_valid(kind):
    design = _design(kind)
    zmat = _draw_matrix(design, 1500, seed=6)
    assert zmat.shape[0] == 1500 and set(np.unique(zmat)) <= {0, 1}
    _assert_arm_sizes(kind, design, zmat)
    if kind == "rem":
        assert np.all(mahalanobis_many(zmat, design.covariates) < design.threshold)


def test_cluster_batches_assign_clusters():
    design = _design("cluster")
    rows = design.draw_batch(gen(2), 60)
    assert rows.shape == (60, 9) and np.all(rows.sum(axis=1) == 4)
    np.testing.assert_array_equal(design.draw_batch(gen(2), 20), rows[:20])


@pytest.mark.parametrize("kind", ("complete", "stratified"))
def test_each_unit_treated_at_its_design_rate(kind):
    design = _design(kind)
    r = 6000
    zmat = _draw_matrix(design, r, seed=7)
    if kind == "complete":
        rate = np.full(28, design.n_treated / design.n_units)
    else:
        rate = np.empty(STRATA.size)
        for k, (n_k, n_k1) in enumerate(design.sizes):
            rate[STRATA == k] = n_k1 / n_k
    se = np.sqrt(rate * (1 - rate) / r)
    assert np.all(np.abs(zmat.mean(axis=0) - rate) < 4 * se)


# Tiny designs whose whole space is enumerated: complete with either arm the
# smaller, clusters, strata interleaved with arm sizes on both sides of half,
# and ReM keeping part of a complete space.
UNIFORMITY_DESIGNS = {
    "complete": CompleteDesign(8, 3),
    "complete-big-arm": CompleteDesign(8, 5),
    "cluster": ClusterDesign(7, 3),
    "stratified": StratifiedDesign(np.array([0, 1, 0, 1, 1, 0, 1, 0, 1]), ((4, 2), (5, 3))),
    "rem": RerandomizedDesign(
        CompleteDesign(8, 4), chi2_quantile(0.5, 2), gen(3).normal(size=(8, 2))
    ),
}


@pytest.mark.parametrize("kind", sorted(UNIFORMITY_DESIGNS))
def test_draws_are_jointly_uniform_over_the_space(kind):
    # chi-square of Monte Carlo draws against the enumerated space: every
    # admissible assignment equally likely, nothing else ever drawn
    design = UNIFORMITY_DESIGNS[kind]
    space = design.enumerate()
    weights = 1 << np.arange(space.shape[1], dtype=np.int64)
    codes = np.sort(space @ weights)
    zmat = design.draw_batch(gen(17), 200 * codes.size)
    cell = np.searchsorted(codes, zmat @ weights)
    assert np.array_equal(codes[np.minimum(cell, codes.size - 1)], zmat @ weights)
    counts = np.bincount(cell, minlength=codes.size)
    assert scipy.stats.chisquare(counts).pvalue > 1e-3


def _single_candidate(rng, n, n1):
    # one candidate drawn the sampler's way: the n1 units with the smallest keys
    z = np.zeros(n, dtype=np.uint8)
    z[np.argsort(rng.random(n), kind="stable")[:n1]] = 1
    return z


def test_rem_draws_match_single_candidate_filter():
    # the batch keeps exactly the accepted candidates, in stream order
    design = _design("rem")
    rows = design.draw_batch(gen(21), 40)
    rng = gen(21)
    kept = []
    while len(kept) < 40:
        z = _single_candidate(rng, 28, 14)
        if mahalanobis_many(z[None, :], design.covariates)[0] < design.threshold:
            kept.append(z)
    np.testing.assert_array_equal(rows, np.array(kept))


class _TiedKeys:
    """A generator whose keys take four values, so most rows tie at their
    threshold and go through the repair."""

    def __init__(self, seed):
        self._rng = gen(seed)

    def random(self, size):
        return np.floor(self._rng.random(size) * 4) / 4


@pytest.mark.parametrize("kind", KINDS)
def test_tied_keys_are_repaired_from_their_own_row(kind, monkeypatch):
    monkeypatch.setattr(designs, "_BLOCK_ELEMENTS", 4 * 28 * 5)  # 5-row key blocks
    design = _design(kind)
    zmat = design.draw_batch(_TiedKeys(4), 60)
    np.testing.assert_array_equal(design.draw_batch(_TiedKeys(4), 23), zmat[:23])
    _assert_arm_sizes(kind, design, zmat)
    if kind == "complete":
        # every row, repaired or not, is its keys' stable-sort assignment
        keys = _TiedKeys(4).random((60, 28))
        assert np.sum(keys <= np.sort(keys, axis=1)[:, 10:11], axis=1).max() > 11
        stub = _TiedKeys(4)
        np.testing.assert_array_equal(zmat, [_single_candidate(stub, 28, 11) for _ in range(60)])
