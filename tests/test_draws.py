"""Batched reference draws: the determinism contract and the draws' law.

Reference assignments are drawn in chunks of `engine._STREAM_ROWS` rows,
chunk c from the stream seeded by (seed, c). Results must not depend on how
many chunks evaluation is split into, a run of R replicates must be the
prefix of a longer run with the same seed, and every drawn row must be a
valid, uniformly drawn member of its design.
"""

import hashlib

import numpy as np
import pytest
import scipy.stats
from hypothesis import given, settings
from hypothesis import strategies as st

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
    for t_obs, vals, p, observed in runs[1:]:
        np.testing.assert_array_equal(t_obs, runs[0][0])
        np.testing.assert_array_equal(p, runs[0][2])
        for adjustment, triple in observed.items():
            np.testing.assert_array_equal(triple, runs[0][3][adjustment])
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


class _PrefixTiedKeys:
    """A generator whose keys share their high 32-bit word with other keys
    and differ below it: all keys share one word, so every group-row ties
    at its threshold word and only the float64 keys can order it, or each
    takes one of `words` words, so some group-rows tie and others do not."""

    def __init__(self, seed, words=1):
        self._rng, self._words = gen(seed), words

    def random(self, size):
        # one uniform per key, so blocks of any size draw the same keys
        scaled = self._rng.random(size) * self._words
        word = np.floor(scaled)
        high = (0x3FE0_0000 + word).astype(np.uint64) << np.uint64(32)
        return (high | ((scaled - word) * 2**32).astype(np.uint64)).view(np.float64)


def _reference_rows(rng, sizes, rows, strata=None):
    """The sampler as it was before selection on high words: all keys at
    once, a float64 partition per group, and a stable sort of the keys of
    every group-row whose threshold is tied. `sizes` holds (N_k, N_k1) per
    group in key order; the keys of group k belong to the units of stratum
    k in unit order."""
    n = sum(n_k for n_k, _ in sizes)
    keys = rng.random((rows, n))
    marks = np.empty((rows, n), dtype=np.uint8)
    a = 0
    for n_k, n1 in sizes:
        part, mark = keys[:, a : a + n_k], marks[:, a : a + n_k]
        threshold = np.partition(part, n1 - 1, axis=1)[:, n1 - 1, None]
        np.less_equal(part, threshold, out=mark)
        for i in np.flatnonzero(mark.sum(axis=1) != n1):
            mark[i] = 0
            mark[i, np.argsort(part[i], kind="stable")[:n1]] = 1
        a += n_k
    if strata is None:
        return marks
    out = np.empty_like(marks)
    out[:, np.argsort(strata, kind="stable")] = marks
    return out


def _reference_draws(design, rng, rows):
    """`design.draw_batch(rng, rows)` by `_reference_rows`, a ReM
    candidate at a time."""
    if isinstance(design, StratifiedDesign):
        return _reference_rows(rng, design.sizes, rows, design.strata)
    if isinstance(design, ClusterDesign):
        return _reference_rows(rng, [(design.n_clusters, design.n_treated_clusters)], rows)
    if isinstance(design, CompleteDesign):
        return _reference_rows(rng, [(design.n_units, design.n_treated)], rows)
    kept = []
    while len(kept) < rows:
        z = _reference_draws(design.base, rng, 1)
        if mahalanobis_many(z, design.covariates)[0] < design.threshold:
            kept.append(z[0])
    return np.array(kept, dtype=np.uint8).reshape(rows, design.n_units)


_KEY_SOURCES = {
    "stream": gen,
    "tied": _TiedKeys,
    "prefix-tied": _PrefixTiedKeys,
    "some-prefix-tied": lambda seed: _PrefixTiedKeys(seed, words=40),
}


def _check_tied_draws(kind, stub, monkeypatch):
    monkeypatch.setattr(designs, "_KEY_ELEMENTS", 28 * 5)  # 5-row key blocks
    design = _design(kind)
    zmat = design.draw_batch(stub(4), 60)
    np.testing.assert_array_equal(design.draw_batch(stub(4), 23), zmat[:23])
    _assert_arm_sizes(kind, design, zmat)
    # every row, repaired or not, is its keys' stable-sort assignment
    np.testing.assert_array_equal(zmat, _reference_draws(design, stub(4), 60))


def _threshold_ties(keys, n1=11):
    return np.sum(keys <= np.sort(keys, axis=1)[:, n1 - 1 : n1], axis=1) > n1


@pytest.mark.parametrize("kind", KINDS)
def test_tied_keys_are_repaired_from_their_own_row(kind, monkeypatch):
    _check_tied_draws(kind, _TiedKeys, monkeypatch)
    assert _threshold_ties(_TiedKeys(4).random((60, 28))).any()


@pytest.mark.parametrize("kind", KINDS)
def test_tied_words_are_redone_from_their_float_keys(kind, monkeypatch):
    _check_tied_draws(kind, _PrefixTiedKeys, monkeypatch)
    keys = _PrefixTiedKeys(4).random((60, 28))
    assert _threshold_ties(keys.view(np.uint64) >> 32).all() and not _threshold_ties(keys).any()


def test_word_ties_are_found_anywhere_above_the_threshold():
    # a wide group, whose words above the partition's split are unordered
    design = CompleteDesign(1000, 400)
    zmat = design.draw_batch(_PrefixTiedKeys(8, words=1000), 200)
    np.testing.assert_array_equal(zmat, _reference_draws(design, _PrefixTiedKeys(8, words=1000), 200))


@st.composite
def _key_layouts(draw):
    """Strata in runs of equal size, each stratum with its own N_k1, the
    units in stratum order or shuffled."""
    sizes = []
    for _ in range(draw(st.integers(1, 4))):
        n_k = draw(st.integers(4, 24))
        run = draw(st.lists(st.integers(2, n_k - 2), min_size=1, max_size=4))
        sizes += [(n_k, n_k1) for n_k1 in run]
    strata = np.repeat(np.arange(len(sizes)), [n_k for n_k, _ in sizes])
    if draw(st.booleans()):
        strata = strata[draw(st.permutations(range(strata.size)))]
    return StratifiedDesign(strata, tuple(sizes))


@settings(max_examples=150, deadline=None)
@given(
    _key_layouts(),
    st.integers(0, 70),
    st.integers(1, 40),
    st.sampled_from(sorted(_KEY_SOURCES)),
    st.integers(0, 2**32 - 1),
)
def test_key_rows_equal_the_reference_sampler(design, rows, block_rows, source, seed):
    # any layout, row count and key-block size draws the reference rows bitwise
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(designs, "_KEY_ELEMENTS", block_rows * design.n_units)
        zmat = design.draw_batch(_KEY_SOURCES[source](seed), rows)
    np.testing.assert_array_equal(zmat, _reference_draws(design, _KEY_SOURCES[source](seed), rows))


# The stream pinned: SHA-256 of the reference set (R=1,500, two stream
# chunks, observed row of zeros first) at seeds 5 and 2024, then of seven
# successive `draw` rows from gen(9). Equal-size strata of differing N_k1
# sit side by side in "strat-runs"; unequal ones are interleaved in
# "strat-interleaved"; at each seed one row of "complete-wide" has another
# key in its threshold's high word. A change of the sampler that moves one
# draw fails here.
PINNED_DESIGNS = {
    "complete": CompleteDesign(200, 70),
    "complete-wide": CompleteDesign(2000, 700),
    "cluster": ClusterDesign(60, 25),
    "rem": RerandomizedDesign(
        CompleteDesign(100, 50), chi2_quantile(0.25, 2), gen(41).normal(size=(100, 2))
    ),
    "strat-runs": StratifiedDesign(
        np.repeat(np.arange(6), [20, 20, 20, 20, 20, 13]),
        ((20, 5), (20, 10), (20, 10), (20, 7), (20, 13), (13, 6)),
    ),
    "strat-interleaved": StratifiedDesign(
        gen(40).permutation(np.repeat(np.arange(5), [7, 12, 9, 12, 12])),
        ((7, 3), (12, 6), (9, 4), (12, 9), (12, 5)),
    ),
}
PINNED_DIGESTS = {
    "complete": (
        "45d7211acf389fb3112f80c888bc1b4731522c8f08bb93a35e5b88f8665494fc",
        "e7006f13d47dcdc3d87f4327ea93b84db6ddbd01ac80679d2b5ce0100eb2321e",
        "4f63eb582abd675201bdcd0f22d9c718b58dce77badf63955c7f88a22e52d489",
    ),
    "complete-wide": (
        "36f208b0a33af10f0af3e84c9c08a9fe9e5dd40eddc4f90d4e9658e77717294a",
        "4813dd7cb4aaf076cea21b9cf9550de6e1b5980b61f29ad1a1a3ef847d983aab",
        "99ad94ab0807f4258fc9cf92752eead94aef740bb4d3d4f04730918bb51fdcb2",
    ),
    "cluster": (
        "639cad71ce60c579d9ccb68643e872a85669cbb891dd9c3b6153b872cb6edbfb",
        "7018faba89cd0d6021e1a9a6820b01ac5eff000baccad7407c289dd76fe6390d",
        "35c9f448cb567818179040dd1085517398f85e605aef35ba96f5743ec8acfaed",
    ),
    "rem": (
        "050ee61778ec08ff163a73d8a274d00736862d15eda3e581719888473765a790",
        "d8e5670f1c2784379bd37e9da1baf28fb8fc1b6f5d65fd24acb6ac938fd601e1",
        "0936854af8968f862e745e28d6ae6b0460aa0a3ea0e00e9d00ca63c34223e725",
    ),
    "strat-runs": (
        "b8e524b226d502721e369120f823e940a1fc9cc6c7ae93d67918726df49a1868",
        "c0beef21eea55d4c5710990934b722eafaee1b23192e0f0c8a52b57e4657463e",
        "e0e0651bcaa868f727d48aa11e66fad893f2b47b5b9ae2ddba55eb7d53d9ba09",
    ),
    "strat-interleaved": (
        "3416e923e538784319b150daa42186dabb3076e799c980ce29b844334c3326f7",
        "5150def228e5fdd066425529512dc97f4c9e36a89a4e12320fb69058f15cc0cc",
        "b9f264907502291e5383766ba4840f6e68e69dd2ea6ce01a846ff76420e04965",
    ),
}


def _sha256(rows) -> str:
    return hashlib.sha256(np.ascontiguousarray(rows, dtype=np.uint8).tobytes()).hexdigest()


@pytest.mark.parametrize("kind", sorted(PINNED_DESIGNS))
def test_reference_sets_and_draws_are_pinned(kind):
    design = PINNED_DESIGNS[kind]
    seeds = []
    for seed in (5, 2024):
        zmat = _draw_matrix(design, 1500, seed)
        seeds.append(_sha256(np.vstack([np.zeros_like(zmat[:1]), zmat])))
    rng = gen(9)
    rows = _sha256([designs.draw(design, rng) for _ in range(7)])
    assert (*seeds, rows) == PINNED_DIGESTS[kind]
