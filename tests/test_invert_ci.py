"""Interval inversion against a grid-scan oracle built from the public API.

`invert_ci` evaluates the reference set at three shifts and interpolates;
the oracle runs `frt_p_value` on the shifted outcome Y - cZ at every grid
point, which draws the same reference rows. Every grid p-value must equal
the oracle's, and each endpoint must be where the oracle's acceptance ends.

The two paths round differently. A replicate whose statistic equals the
observed one in real arithmetic (the complement of the observed assignment
when N1 = N/2, always in the exact reference set) still counts the same on
both, because extreme counting treats a relative 1e-9 as a tie.

Each endpoint is refined between its grid bracket's ends over ever finer
uniform sub-grids, both endpoints in lockstep. On synthetic p-curves, the
lockstep refinement must equal each bracket refined alone, end on an
accepted shift whose next sub-grid shift out is rejected, and take the
rounds its stop rule sets.

The grid scan's blocks and the boundary refinements score only the
replicates that are not settled over their span. Differential tests hold
them to the scan and the refinement over every replicate, and a seeded fuzz
checks that no settled replicate changes its extreme status anywhere in its
bracket. A work count bounds the replicate values an interval forms.

One evaluator holds the three shifted outcomes and reads the reference set
once. Differential tests hold it to three single-outcome evaluators, and a
counting test to one build and one pass over the reference set, after the
one-row pass that gives the Wald interval its estimate.
"""

import math
import warnings
from dataclasses import replace

import numpy as np
import pytest

import randtest._batch as _batch
import randtest.engine as engine
import randtest.simulate as simulate
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
    if name == "nan-replicates":
        # x1 is binary: a row treating four units that share x1 leaves x1
        # constant in the treated arm, so `l` has NaN replicates
        rng = gen(139)
        x = np.column_stack([np.repeat([1.0, 0.0], 6), rng.normal(size=12)])
        z = np.zeros(12, dtype=np.int64)
        z[[0, 1, 6, 7]] = 1
        y = x @ [1.0, 0.5] + 0.7 * z + rng.normal(size=12)
        return Dataset(y, z, x), CompleteDesign(12, 4), 0, True
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


def _oracle(data, spec, design, points, r, exact, sided="two"):
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
            sided=sided,
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


@pytest.mark.parametrize(
    "name, sided",
    [pytest.param(name, "two", id=name) for name in CASES]
    + [pytest.param(name, "one", id=f"{name}-one-sided") for name in CASES],
)
def test_closed_form_matches_grid_scan(name, sided):
    data, design, r, exact = _case(name)
    grid = _grid(data, design)
    points = np.linspace(*grid[:2], grid[2])
    kwargs = dict(r=r, seed=17, grid=grid, exact=exact, sided=sided)
    for spec in ALL_SPECS:
        oracle = _oracle(data, spec, design, points, r, exact, sided)
        p_oracle = np.array([o.p_value for o in oracle])
        accepted = p_oracle > ALPHA
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # non-robust specs warn
            if not accepted.any():
                with pytest.raises(EmptyAcceptanceRegion):
                    invert_ci(data, spec, ALPHA, design, **kwargs)
                continue
            res = invert_ci(data, spec, ALPHA, design, **kwargs)
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
                data, spec, design, [res.lower + nudge, res.lower - nudge], r, exact, sided
            )
            assert inside.p_value > ALPHA >= outside.p_value, spec.label
        if last == points.size - 1:
            assert res.upper == points[-1]
        else:
            assert points[last] <= res.upper < points[last + 1]
            inside, outside = _oracle(
                data, spec, design, [res.upper - nudge, res.upper + nudge], r, exact, sided
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


@pytest.mark.parametrize("seed", range(400, 420))
def test_endpoints_do_not_depend_on_blocks_or_blas_threads(seed, small_blocks):
    # the boundary searches stop at a bracket of 2**-36 of the grid span, so
    # the last bits that row blocks and BLAS threads move in the node values
    # do not reach the endpoints (at float resolution most of these seeds
    # differ across the block sizes)
    data = _complete(seed, 60, 30)
    design = CompleteDesign(60, 30)

    def interval():
        res = invert_ci(data, L_ROBUST, 0.05, design, r=300, seed=5)
        return res.lower, res.upper, res.p_values.tobytes()

    base = interval()
    with simulate._one_blas_thread:
        assert interval() == base
    for elements in (60 * 37, 60 * 7):
        small_blocks(elements)
        assert interval() == base


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


def _sub_grid_curve(cut, parity):
    """A p-curve that crosses alpha at each of the sorted `cut` shifts and
    accepts where the number of cuts below the shift has the given parity."""
    return lambda shifts: np.where(np.searchsorted(cut, shifts) % 2 == parity, 0.5, 0.01)


@pytest.mark.parametrize("rtol", [engine._REFINE_RTOL, 3e-31])
@pytest.mark.parametrize("seed", range(8))
def test_lockstep_refinement_matches_each_bracket_alone(seed, rtol):
    rng = gen(seed)
    # p-curves crossing alpha once or three times, refined both ways to a
    # sub-grid step of rtol times the width, which at 3e-31 is below float
    # resolution; the last bracket is 1e300 wide and is refined to the same
    # relative step, in lockstep with a bracket 1e300 times narrower
    cuts = np.sort(rng.uniform(-1, 1, size=rng.choice([1, 3])))
    wide = np.array([1e290 * rng.uniform(1, 2)])
    brackets = [
        (_sub_grid_curve(cuts, 0), -1.0, 1.0),
        (_sub_grid_curve(cuts, 1), 1.0, -1.0),
        (_sub_grid_curve(wide, 0), 0.0, 1e300),
    ]
    for curve, inside, outside in brackets:
        assert curve(np.array([inside]))[0] > ALPHA >= curve(np.array([outside]))[0]
    for group in ([0], [1], [2], [0, 1], [0, 2], [2, 1]):
        curves = [brackets[i][0] for i in group]
        a, b = (np.array([brackets[i][k] for i in group]) for k in (1, 2))
        width = np.max(np.abs(b - a))
        tol = rtol * width
        scored = []

        def p_at(shifts):
            # each bracket's shifts on its own curve
            scored.append((shifts, np.stack([f(s) for f, s in zip(curves, shifts)])))
            return scored[-1][1]

        found = engine._boundaries(p_at, ALPHA, a, b, width, tol)
        assert len(scored) == math.ceil(math.log2(width / tol) / math.log2(engine._REFINE_STEPS))
        for shifts, _ in scored:  # each round's shifts are np.linspace's, bit for bit
            want = np.linspace(shifts[:, 0], shifts[:, -1], engine._REFINE_STEPS + 1, axis=1)
            np.testing.assert_array_equal(shifts, want)
        # the first round spans the bracket, and each later round's bracket
        # is the last round's first rejected shift and the accepted one before it
        np.testing.assert_array_equal(scored[0][0][:, [0, -1]], np.column_stack([a, b]))
        for (shifts, p), (after, _) in zip(scored, scored[1:]):
            k = np.argmax(p <= ALPHA, axis=1)
            assert (p[:, 0] > ALPHA).all() and (k > 0).all()
            rows = np.arange(k.size)
            np.testing.assert_array_equal(after[:, 0], shifts[rows, k - 1])
            np.testing.assert_array_equal(after[:, -1], shifts[rows, k])
        shifts, p = scored[-1]
        for j, (curve, end) in enumerate(zip(curves, found)):
            alone = engine._boundaries(curve, ALPHA, a[j : j + 1], b[j : j + 1], width, tol)
            assert alone.tolist() == [end]
            # the endpoint is the accepted sub-grid shift before the first
            # rejected one, and all of them lie between the bracket's ends
            k = np.flatnonzero(p[j] <= ALPHA)[0]
            assert shifts[j, k - 1] == end and p[j, k - 1] > ALPHA
            assert min(a[j], b[j]) <= shifts[j].min() <= shifts[j].max() <= max(a[j], b[j])


def _settle_nothing(rows, nodes, ends, *args):
    # every row kept and none counted, for every bracket
    brackets = np.shape(ends[0])
    return np.ones((rows.shape[0], *brackets), dtype=bool), np.zeros(brackets, dtype=np.int64)


def _interval(data, spec, design, r, exact, sided, grid):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # non-robust specs warn
        try:
            res = invert_ci(
                data, spec, ALPHA, design, r=r, seed=17, grid=grid, exact=exact, sided=sided
            )
        except EmptyAcceptanceRegion:
            return None
    return res.lower, res.upper, res.p_values.tobytes(), res.lower_at_edge, res.upper_at_edge


@pytest.mark.parametrize("sided", engine._SIDES)
@pytest.mark.parametrize("name", [*CASES, "nan-replicates"])
def test_pruned_search_matches_full_search(name, sided, monkeypatch):
    # the boundary searches skip the replicates settled in their bracket;
    # scoring every replicate must give the same interval bit for bit
    data, design, r, exact = _case(name)
    kept, nan_rows = [], []
    settle = engine._settle

    def recording(rows, *args):
        keep, extreme = settle(rows, *args)
        kept.append(keep.mean())
        nan_rows.append(np.all(keep[~np.isfinite(rows).all(axis=1)]))
        return keep, extreme

    for grid in (None, _grid(data, design)):
        for spec in ALL_SPECS:
            monkeypatch.setattr(engine, "_settle", recording)
            pruned = _interval(data, spec, design, r, exact, sided, grid)
            monkeypatch.setattr(engine, "_settle", _settle_nothing)
            full = _interval(data, spec, design, r, exact, sided, grid)
            assert pruned == full, (spec.label, grid)
    assert min(kept) < 0.5  # every case settles most replicates in some bracket
    assert all(nan_rows)


def _wide_grid(data, design, num):
    # `_grid`'s span, three Wald widths, widened to seven like the default's
    lo, hi, _ = _grid(data, design)
    width = (hi - lo) / 3
    return (lo - 2 * width, hi + 2 * width, num)


@pytest.mark.parametrize(
    "num, grid_rows", [(num, engine._GRID_ROWS) for num in (2, 15, 31, 32, 33, 201)] + [(201, 40)]
)
def test_blockwise_scan_matches_full_scan(num, grid_rows, monkeypatch):
    # a grid block in which no replicate can change its extreme status takes
    # the p-value of its settled count; scoring every block on every
    # replicate must give the same interval bit for bit, in one row chunk or
    # in several (the cases have 100 to 495 replicates)
    monkeypatch.setattr(engine, "_GRID_ROWS", grid_rows)
    settle = engine._settle
    scans = []

    def recording(rows, nodes, ends, *args):
        keep, extreme = settle(rows, nodes, ends, *args)
        scans.append(keep[1:].any(axis=0))  # per bracket, whether it scores any replicate
        return keep, extreme

    blocks = {True: 0, False: 0}
    for name in ["complete-unbalanced", "stratified", "exact-unbalanced", "nan-replicates"]:
        data, design, r, exact = _case(name)
        grid = _wide_grid(data, design, num)
        for spec in ALL_SPECS:
            for sided in engine._SIDES:
                scans.clear()
                monkeypatch.setattr(engine, "_settle", recording)
                blockwise = _interval(data, spec, design, r, exact, sided, grid)
                monkeypatch.setattr(engine, "_settle", _settle_nothing)
                full = _interval(data, spec, design, r, exact, sided, grid)
                assert blockwise == full, (name, spec.label, sided)
                scanned = scans[0]  # the grid scan settles first, a chunk at a time
                assert scanned.size == -(-num // engine._GRID_BLOCK)
                blocks[True] += np.count_nonzero(scanned)
                blocks[False] += np.count_nonzero(~scanned)
    assert blocks[True] > 0
    if num > engine._GRID_BLOCK:
        assert blocks[False] > 0


@pytest.mark.parametrize("end", ["lower", "upper"])
def test_one_search_across_a_block_boundary(end, monkeypatch):
    # one end of the accepted region reaches a grid edge, so one search
    # runs, and its bracket joins the last point of one grid block to the
    # first of the next
    data, design, r, exact = _case("complete-unbalanced")
    res = invert_ci(data, L_ROBUST, ALPHA, design, r=r, seed=17)
    block = engine._GRID_BLOCK
    if end == "lower":
        step = (res.upper - res.lower) / 20
        lo = res.lower - (block - 0.5) * step
        grid = (lo, lo + 49 * step, 50)
    else:
        step = (res.upper - res.lower) / 80
        lo = res.upper - (2 * block - 0.5) * step
        grid = (lo, lo + 69 * step, 70)
    searched = []
    boundaries = engine._boundaries

    def recording(p_at, alpha, a, b, width, tol):
        searched.append(a.size)
        return boundaries(p_at, alpha, a, b, width, tol)

    monkeypatch.setattr(engine, "_boundaries", recording)
    got = _interval(data, L_ROBUST, design, r, exact, "two", grid)
    monkeypatch.setattr(engine, "_settle", _settle_nothing)
    assert got == _interval(data, L_ROBUST, design, r, exact, "two", grid)
    assert searched == [1, 1]
    accepted = np.flatnonzero(np.frombuffer(got[2]) > ALPHA)
    lower, upper, _, lower_at_edge, upper_at_edge = got
    if end == "lower":
        assert accepted[0] == block and upper_at_edge and not lower_at_edge
        assert upper == grid[1]
    else:
        assert accepted[-1] == 2 * block - 1 and lower_at_edge and not upper_at_edge
        assert lower == grid[0]
    assert accepted.size == accepted[-1] - accepted[0] + 1


def _refinement_shifts(rng, inside, outside):
    """Every sub-grid shift of the first two refinement rounds and of one
    random 16-round walk, which reaches float resolution."""
    steps = engine._REFINE_STEPS
    first = np.linspace(inside, outside, steps + 1)
    shifts = [first, *(np.linspace(a, b, steps + 1) for a, b in zip(first[:-1], first[1:]))]
    for _ in range(16):
        shifts.append(np.linspace(inside, outside, steps + 1))
        k = rng.integers(steps)
        inside, outside = shifts[-1][k], shifts[-1][k + 1]
    return np.concatenate(shifts)


def _settle_trial(rng, studentization):
    """(rows, nodes, ends): an observed row and 64 replicates of node values
    around a bracket 1e-1 to 1e-8 as wide as the nodes' span. The replicates
    tie with the observed statistic, graze it (a double root of the
    quartic), nearly tie, cross zero, have a squared SE near 0, or a node
    value that is not finite."""
    lo = rng.normal(scale=10.0)
    hi = lo + 10.0 ** rng.uniform(-2, 2)
    mid = lo + (hi - lo) / 2
    width = (hi - lo) * 10.0 ** rng.uniform(-8, -1)
    a = rng.uniform(lo, hi - width)
    b = min(a + width, hi)
    star = rng.uniform(a, b)

    def row(tau, se2):
        return [tau(lo), tau(hi), se2(lo), se2(mid), se2(hi)]

    scale = 10.0 ** rng.uniform(-3, 3)
    t_star = rng.choice([1.7, -1.7, 2.5, 0.8, 1e-3, 0.0]) * 10.0 ** rng.uniform(-0.2, 0.2)
    slope = rng.normal() * rng.choice([0.0, 0.01, 0.1, 1.0]) * scale / width
    curve = 10.0 ** rng.uniform(-4, 1) * scale**2 / (hi - lo) ** 2
    floor = scale**2 * (10.0 ** rng.uniform(-14, -6) if rng.random() < 0.1 else 1.0)

    def tau_o(c):
        return t_star * scale + slope * (c - star)

    def se2_o(c):
        return floor + curve * (c - star) ** 2

    rows = [row(tau_o, se2_o)]
    for i in range(64):
        lam = 10.0 ** rng.uniform(-2, 2)
        kind = i % 8
        if kind == 0:  # the same statistic at every shift, or nearly
            rel = rng.choice([0.0, 1e-13, -1e-13, 1e-10, -1e-10, 1e-8, -1e-8, 1e-5])
            rows.append(row(lambda c: lam * tau_o(c), lambda c: lam**2 * (1 + rel) * se2_o(c)))
        elif kind == 1:  # grazes |t_obs| at `star`, from below or above, or
            # crosses it just inside both ends
            dip = 10.0 ** rng.uniform(-5, -2) * floor * (i % 16 == 1)
            k = rng.choice([1.0, -0.5]) * curve + 64 * dip / (b - a) ** 2
            rows.append(
                row(
                    lambda c: lam * tau_o(c),
                    lambda c: lam**2 * (se2_o(c) - dip + k * (c - star) ** 2),
                )
            )
        elif kind == 2:  # the observed statistic mirrored
            rows.append(row(lambda c: -lam * tau_o(c), lambda c: lam**2 * se2_o(c)))
        elif kind == 3:  # the estimate changes sign at `star`
            g = rng.normal() * scale / width
            rows.append(row(lambda c: g * (c - star), lambda c: lam * scale**2))
        elif kind == 4:  # a squared SE near 0 inside the bracket, its
            # estimate too at times, so that rounding decides
            eps = 10.0 ** rng.uniform(-30, -2)
            shrink = np.sqrt(eps) * (1 + rng.choice([-1, 1]) * 10.0 ** rng.uniform(-4, -1))
            shrink = shrink if i % 16 == 4 else 1.0
            rows.append(
                row(lambda c: shrink * tau_o(c), lambda c: scale**2 * eps + curve * (c - star) ** 2)
            )
        elif kind == 5:  # a NaN or infinite node value
            vals = row(lambda c: rng.normal() * tau_o(c), se2_o)
            vals[rng.integers(5)] = rng.choice([np.nan, np.inf, -np.inf])
            rows.append(vals)
        else:  # an ordinary replicate near the observed statistic
            t = t_star * (1 + rng.normal(scale=0.05)) if rng.random() < 0.5 else rng.normal(scale=2)
            g = rng.normal() * scale / width * 0.05
            rows.append(
                row(lambda c: scale * t + g * (c - star), lambda c: scale**2 + curve * (c - a) ** 2)
            )
    rows = np.array(rows)
    if studentization == "none":
        rows[:, 2:] = 1.0
    ends = (a, b) if rng.random() < 0.5 else (b, a)
    return rows, (lo, mid, hi), ends


@pytest.mark.parametrize("studentization", ["robust", "none"])
@pytest.mark.parametrize("sided", engine._SIDES)
def test_settled_replicates_keep_their_status_in_the_bracket(sided, studentization):
    # no settled replicate may change its extreme status, as `_stat_at_shift`
    # and `_count_extreme` decide it, anywhere a refinement can score it
    rng = gen(1607)
    settled_total = flipping_total = 0
    for _ in range(750):
        rows, nodes, ends = _settle_trial(rng, studentization)
        inside, outside = ends
        shifts = np.array([inside, outside, *_refinement_shifts(rng, inside, outside)])
        shifts = np.concatenate([shifts, rng.uniform(min(ends), max(ends), size=1000)])
        t = engine._stat_at_shift(rows, nodes, shifts, studentization)
        status = engine._count_extreme(t[None, 1:], t[0], sided)  # (replicates, shifts)
        keep, extreme = engine._settle(rows, nodes, ([inside], [outside]), studentization, sided)
        keep, extreme = keep[:, 0], extreme[0]
        assert keep[0]
        assert keep[1:][~np.isfinite(rows[1:]).all(axis=1)].all()
        settled = status[~keep[1:]]
        assert (settled == settled[:, :1]).all()
        assert extreme == settled[:, 0].sum() == settled[:, 1].sum()
        settled_total += settled.shape[0]
        flipping_total += np.count_nonzero(status.min(axis=1) != status.max(axis=1))
    # the rule settles most ordinary replicates, and the trials do flip others
    assert settled_total > 0.2 * 750 * 64
    assert flipping_total > 0.05 * 750 * 64


@pytest.mark.parametrize("studentization", ["robust", "none"])
@pytest.mark.parametrize("sided", engine._SIDES)
def test_settle_over_many_brackets_equals_one_call_each(sided, studentization):
    # the trial's bracket, brackets 1e-8 to 1 times the nodes' span anywhere
    # between them in either order, and a bracket of one shift
    rng = gen(1609)
    for _ in range(200):
        rows, nodes, ends = _settle_trial(rng, studentization)
        lo, _, hi = nodes
        a = rng.uniform(lo, hi, size=6)
        b = a + rng.choice([-1, 1], size=6) * (hi - lo) * 10.0 ** rng.uniform(-8, 0, size=6)
        shift = rng.uniform(lo, hi)
        a = np.array([ends[0], *a, shift])
        b = np.array([ends[1], *np.clip(b, lo, hi), shift])
        keep, extreme = engine._settle(rows, nodes, (a, b), studentization, sided)
        assert keep.shape == (rows.shape[0], a.size) and extreme.shape == (a.size,)
        for j in range(a.size):
            one = engine._settle(rows, nodes, (a[j : j + 1], b[j : j + 1]), studentization, sided)
            np.testing.assert_array_equal(keep[:, j], one[0][:, 0])
            assert extreme[j] == one[1][0]


def test_squared_se_lost_to_cancellation_is_not_settled():
    # the quadratic (c - 0.3)^2 through nodes 0.1, 0.55 and 1 reads about
    # 1e-18 just right of 0.3, below the rounding of its interpolation, so
    # rounding alone moves the replicate's statistic across the observed one
    nodes = (0.1, 0.55, 1.0)
    se2_nodes = [(c - 0.3) ** 2 for c in nodes]
    rng = gen(1608)
    flips = 0
    for _ in range(100):
        a = 0.3 + 1e-9 * (1 + rng.random())
        b = a + 1e-9 * rng.random()
        ends = np.array([a, b])
        _, se2 = engine._interpolated(np.array([[0, 0, *se2_nodes]]), nodes, ends, "robust")
        tau = 1.5 * np.sqrt(max(se2.min(), 0.0))  # |t| = 1.5 < 1.7 where the ends read most
        rows = np.array([[1.7, 1.7, 1.0, 1.0, 1.0], [tau, tau, *se2_nodes]])
        shifts = np.concatenate([[a, b], rng.uniform(a, b, size=1000)])
        t = engine._stat_at_shift(rows, nodes, shifts, "robust")
        status = engine._count_extreme(t[None, 1:], t[0], "two")[0]
        flips += status.min() != status.max()
        keep, _ = engine._settle(rows, nodes, ([a], [b]), "robust", "two")
        assert keep[1, 0] or status.min() == status.max()
    assert flips > 50


def test_interval_scores_a_fraction_of_the_replicate_values(monkeypatch):
    # a work count, not a timing: on a default-grid l:robust interval shaped
    # like the benchmark's (N=200, J=2, R=500), the grid scan and both
    # searches form few of the R x 201 replicate values a full scan would
    stat_at_shift = engine._stat_at_shift
    formed = []

    def counted(vals, nodes, c, studentization):
        formed.append((vals.shape[0] - 1) * c.size)  # the observed row is no replicate
        return stat_at_shift(vals, nodes, c, studentization)

    monkeypatch.setattr(engine, "_stat_at_shift", counted)
    for seed in range(3):
        formed.clear()
        res = invert_ci(_complete(2700 + seed, 200, 100), L_ROBUST, 0.05, CompleteDesign(200, 100),
                        r=500, seed=seed)
        assert not (res.lower_at_edge or res.upper_at_edge)
        assert sum(formed) <= 0.35 * 500 * 201, sum(formed)


# -- one pass over the reference set for the three nodes ----------------------


def _node_problem(name):
    """(adata, adesign, the outcomes Y - cZ at three shifts, reference rows)."""
    data, design, r, exact = _case(name)
    adata, adesign = design.analysis_form(data)
    z_form = design.analysis_form(replace(data, y=data.z.astype(np.float64)))[0].y
    lo, hi, _ = _grid(data, design)
    ys = np.stack([adata.y - c * z_form for c in (lo, lo + (hi - lo) / 2, hi)])
    zmat = engine._reference_set(adesign, adata.z, r, 17, exact)
    return adata, adesign, ys, zmat


@pytest.mark.parametrize("name", [*CASES, "nan-replicates"])
def test_one_pass_node_triples_match_single_outcome_evaluators(name):
    adata, adesign, ys, rows = _node_problem(name)
    adjustments = "nrfl" if adata.j else "nr"
    one_pass = _batch.make_evaluator(ys, adata.x, adesign.strata).triples_each(rows, adjustments)
    refit = estimate if adesign.strata is None else engine.estimate_stratified
    for node, y in enumerate(ys):
        single = _batch.make_evaluator(y, adata.x, adesign.strata).triples_each(rows, adjustments)
        for adjustment in adjustments:
            got, want = one_pass[adjustment][node], single[adjustment]
            assert got.shape == want.shape == (3, rows.shape[0])
            np.testing.assert_array_equal(np.isnan(got), np.isnan(want))
            scale = np.abs(want[0]) + np.sqrt(np.abs(want[2]))
            assert np.nanmax(np.abs(got[0] - want[0]) / scale) <= 1e-12, adjustment
            assert np.nanmax(np.abs(got[1:] - want[1:]) / np.abs(want[1:])) <= 1e-12, adjustment
            # the refits on the node's outcome, for the observed row (row 0),
            # the next two and the last
            for i in [0, 1, 2, rows.shape[0] - 1]:
                if np.isnan(got[0, i]):  # a singular arm, which the refit rejects
                    continue
                ref = refit(Dataset(y, rows[i].astype(np.int64), adata.x, strata=adata.strata),
                            adjustment)
                tol = 1e-8 * (abs(ref.tau_hat) + ref.se_robust)
                assert abs(got[0, i] - ref.tau_hat) <= tol, (adjustment, i)
                assert abs(got[1, i] - ref.se_classic**2) <= 1e-8 * ref.se_classic**2
                assert abs(got[2, i] - ref.se_robust**2) <= 1e-8 * ref.se_robust**2


class _SingleOutcomeEvaluators:
    """The three node outcomes as three single-outcome evaluators, each
    reading the reference rows on its own."""

    def __init__(self, ys, x, strata=None):
        self.parts = [_batch.make_evaluator(y, x, strata) for y in ys]

    def triples(self, rows, adjustment):
        return np.stack([part.triples(rows, adjustment) for part in self.parts])


def _single_outcome_evaluators(ys, x, strata=None):
    if np.ndim(ys) == 1:  # the observed row's pass for the Wald interval
        return _batch.make_evaluator(ys, x, strata)
    return _SingleOutcomeEvaluators(ys, x, strata)


@pytest.mark.parametrize("sided", engine._SIDES)
@pytest.mark.parametrize("name", [*CASES, "nan-replicates"])
def test_one_pass_interval_matches_single_outcome_evaluators(name, sided, monkeypatch):
    # the grid p-values equal those of separate evaluators bit for bit, and
    # the endpoints, which read the nodes' last bits, agree to 1e-12
    data, design, r, exact = _case(name)
    for grid in (None, _grid(data, design)):
        for spec in ALL_SPECS:
            monkeypatch.setattr(engine, "make_evaluator", _batch.make_evaluator)
            got = _interval(data, spec, design, r, exact, sided, grid)
            monkeypatch.setattr(engine, "make_evaluator", _single_outcome_evaluators)
            want = _interval(data, spec, design, r, exact, sided, grid)
            assert (got is None) == (want is None), (spec.label, grid)
            if got is None:
                continue
            assert got[2:] == want[2:], (spec.label, grid)
            for a, b in zip(got[:2], want[:2]):
                assert abs(a - b) <= 1e-12 * abs(b), (spec.label, grid, a, b)


@pytest.mark.parametrize("name", ["complete-half", "stratified", "cluster-unequal", "exact-half"])
def test_invert_ci_reads_the_reference_set_once(name, monkeypatch, small_blocks):
    # after a one-row pass over the observed assignment for the Wald
    # interval, one evaluator build and one pass over the reference rows,
    # observed row first, that casts each block to float64 once
    small_blocks(400)  # several blocks per pass
    data, design, r, exact = _case(name)
    builds, passes, blocks = [], [], []
    build = engine.make_evaluator

    def make_evaluator(*args):
        builds.append(build(*args))
        return builds[-1]

    kind = _batch.CompleteEvaluator if data.strata is None else _batch.StratifiedEvaluator
    triples_each, moments = kind.triples_each, _batch._Stratum.moments

    def counted_triples_each(self, zmat, adjustments):
        passes.append(zmat.shape)
        return triples_each(self, zmat, adjustments)

    def counted_moments(self, block):
        blocks.append((self, block.copy()))
        return moments(self, block)

    monkeypatch.setattr(engine, "make_evaluator", make_evaluator)
    monkeypatch.setattr(kind, "triples_each", counted_triples_each)
    monkeypatch.setattr(_batch._Stratum, "moments", counted_moments)
    invert_ci(data, L_ROBUST, ALPHA, design, r=r, seed=17, exact=exact)

    adata, adesign = design.analysis_form(data)
    rows = engine._reference_set(adesign, adata.z, r, 17, exact)
    np.testing.assert_array_equal(rows[0], adata.z)
    assert len(builds) == 2
    assert passes == [(1, adata.n), (1 + (adesign.count() if exact else r), adata.n)]
    for build, read, least in ((builds[0], rows[:1], 1), (builds[1], rows, 3)):
        for part in build.parts:
            mine = [block for owner, block in blocks if owner is part]
            assert len(mine) >= least
            np.testing.assert_array_equal(np.concatenate(mine), read[:, part.columns])
    assert {id(owner) for owner, _ in blocks} == {id(p) for b in builds for p in b.parts}
