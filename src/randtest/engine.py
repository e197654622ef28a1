"""Randomization-test engine.

Computes Fisher randomization test p-values, exactly (full enumeration of
the assignment space) or by Monte Carlo, for any statistic in `estimators`
under complete, cluster, stratified, and rerandomized designs, and inverts
the test over a grid of constant-effect nulls into a confidence interval,
from polynomial coefficients about the grid's midpoint (`invert_ci`).

`frt_p_value` and `frt_p_values` share one core: the design supplies the
analysis form (`analysis_form`) and the reference set (drawn, or enumerated
through `count`/`enumerate`) as uint8 rows, the batch evaluator is built
once and evaluates the whole reference set, and the extreme replicates of
every statistic are counted at once. `invert_ci` takes its reference set
and its analysis form from the same place. The observed assignment is row 0
of the reference set (`_reference_set`), so one evaluator pass forms the
observed statistic by the same rule as every replicate's, in exact and in
Monte Carlo mode, and its (tau, classic SE, robust SE) is the estimate the
result reports (`FrtResult.estimate`): no path refits. Extreme counts turn
into p-values by one rule (`_p_value`), which `perm_lm_p_value` shares.
The evaluator splits the rows into blocks, with bounds that depend on the
problem shape alone, so results are bitwise reproducible.

Monte Carlo replicates are drawn in fixed chunks of `_STREAM_ROWS` rows;
chunk c draws its rows as one batch from the stream seeded by (seed, c).
The chunk size depends on nothing else, so replicate i is a function of the
seed and i alone: results are reproducible, and a run of R replicates is the
prefix of any longer run with the same seed.
"""

from __future__ import annotations

import math
import numbers
import warnings
from concurrent.futures import (
    ThreadPoolExecutor,  # unused here; perfbench/spans.py wraps pool tasks at this name
)
from dataclasses import dataclass, replace

import numpy as np

from ._batch import _studentized, make_evaluator, stat_matrix
from .designs import (
    DesignSpec,
    draw,  # unused here; perfbench/spans.py traces design draws at this name
    mahalanobis_many,  # unused here; perfbench/spans.py traces balance checks at this name
)
from .errors import (
    EmptyAcceptanceRegion,
    InvariantViolation,
    RankDeficient,
    TooLarge,
    ZeroSe,
)
from .estimators import (
    Dataset,
    EstimateTriple,
    StatisticSpec,
    cluster_collapse,  # unused here; perfbench/spans.py traces cluster collapses at this name
    estimate,  # unused here; perfbench/spans.py traces reference fits at this name
    estimate_stratified,  # unused here; perfbench/spans.py traces reference fits at this name
)

EXHAUSTIVE_CAP = 1_000_000
# Replicates per random stream (see the module docstring).
_STREAM_ROWS = 1024
_SIDES = ("one", "two")
_TIE_RTOL = 1e-9
# Grid points per block of the CI grid scan; each block is settled at once
# (`_settle`), and only a block that keeps some replicate is scored.
_GRID_BLOCK = 32
# Replicates per chunk of the CI grid scan: a block's float64 temporaries
# stay near 256 KB however large the reference set.
_GRID_ROWS = 1024
# Steps of the uniform sub-grid that each CI boundary round scores.
_REFINE_STEPS = 16
# Sub-grid step, relative to the grid span, at which CI boundary refinement
# stops. Node values move in their last bits with the evaluator's row blocks
# and BLAS threads; at float resolution the endpoint would move with them,
# but at this step only a crossing within rounding of a shift can move it.
_REFINE_RTOL = 2.0**-36
# Gap, relative to max(1, |t_obs|), by which a replicate must clear the
# observed statistic over a bracket to skip its boundary search (`_settle`).
_SETTLE_RTOL = 1e-6


@dataclass(frozen=True)
class FrtResult:
    """Outcome of one randomization test.

    `replicates` holds every reference draw's statistic (length R for Monte
    Carlo, the whole assignment space for exact mode). `p_value` follows the
    add-one rule (1 + #extreme)/(1 + R) in Monte Carlo mode and the plain
    fraction #extreme/|Z| in exact mode; `mc_se` is 0 for exact results.
    `estimate` is the observed assignment's estimate with both SEs, from the
    same evaluation that scores the replicates.
    """

    t_obs: float
    estimate: EstimateTriple
    replicates: np.ndarray
    p_value: float
    mc_se: float
    mode: str
    seed: int
    design: DesignSpec | None
    spec: object
    sided: str = "two"


@dataclass(frozen=True)
class CiResult:
    """Confidence interval from test inversion over a fixed grid.

    `lower` / `upper` bound the accepted region, located between grid points
    by refinement over ever finer uniform sub-grids, to a sub-grid step of
    2**-36 of the grid span (hi - lo) or less. At that step they do not read
    the last bits of the evaluations behind the midpoint coefficients (see
    `invert_ci`), so they do not move with the row blocks or BLAS threads.
    `grid` is (lo, hi, step); `points` and `p_values` are the tested grid
    shifts, np.linspace(lo, hi, num), and their p-values. `lower_at_edge` /
    `upper_at_edge` flag an accepted region that reaches the first / last
    grid point, where the grid rather than the test may cut the interval.
    """

    lower: float
    upper: float
    alpha: float
    grid: tuple[float, float, float]
    wald_init: tuple[float, float]
    points: np.ndarray
    p_values: np.ndarray
    lower_at_edge: bool
    upper_at_edge: bool


def exhaustive_assignments(design: DesignSpec) -> np.ndarray:
    """All admissible assignments, one per row, each exactly once.

    For a rerandomized design the base space is enumerated and filtered by
    the balance criterion. `EXHAUSTIVE_CAP` applies to the pre-filter count.
    """
    total = design.count()
    if total > EXHAUSTIVE_CAP:
        raise TooLarge(f"assignment space has {total} members, cap is {EXHAUSTIVE_CAP}")
    return design.enumerate()


def _whole(value, least: int, what: str) -> int:
    """`value` as an int; InvariantViolation unless it is an integer >= `least`."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < least:
        raise InvariantViolation(f"{what} must be an integer >= {least}, got {value!r}")
    return int(value)


def _streams(r: int, seed):
    """(start, stop, generator) for each chunk of `_STREAM_ROWS` replicates;
    InvariantViolation unless `seed` is a non-negative integer."""
    seed = _whole(seed, 0, "seed")
    for c, start in enumerate(range(0, r, _STREAM_ROWS)):
        rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence((seed, c))))
        yield start, min(start + _STREAM_ROWS, r), rng


def _replicate_count(r) -> int:
    return _whole(r, 1, "R (replicates)")


def _check_sided(sided: str):
    if sided not in _SIDES:
        raise InvariantViolation(f"sided must be one of {_SIDES}, got {sided!r}")


def _reference_set(design: DesignSpec, z: np.ndarray, r, seed, exact: bool) -> np.ndarray:
    """The observed assignment `z` as row 0, then the reference rows: the
    whole assignment space, or `r` draws from the stream of `seed`, drawn
    chunk by chunk in place. InvariantViolation unless `seed` is a
    non-negative integer, in either mode."""
    if exact:
        _whole(seed, 0, "seed")  # no draw reads it, but a bad one is an error in every mode
        return np.concatenate([z[None, :].astype(np.uint8), exhaustive_assignments(design)])
    r = _replicate_count(r)
    out = np.empty((1 + r, design.n_units), dtype=np.uint8)
    out[0] = z
    for start, stop, rng in _streams(r, seed):
        design.draw_batch(rng, stop - start, out=out[1 + start : 1 + stop])
    return out


def _p_value(extreme, m: int, exact: bool):
    """The plain fraction #extreme/m in exact mode, the add-one rule
    (1 + #extreme)/(1 + m) in Monte Carlo mode."""
    return extreme / m if exact else (1 + extreme) / (1 + m)


def _count_extreme(vals: np.ndarray, t_obs, sided: str, keep=None):
    """Extreme replicates in each column of `vals`, against `t_obs` per column;
    where a `keep` mask of `vals`' shape is given, only its rows count."""
    # Replicates within a relative _TIE_RTOL of t_obs tie with it, so a tie
    # that is exact in real arithmetic counts whatever the rounding. Negated
    # strict comparisons count NaNs (errored replicates) as extreme.
    t_obs = np.asarray(t_obs, dtype=np.float64)
    finite = np.isfinite(t_obs)
    tol = _TIE_RTOL * np.maximum(1.0, np.abs(np.where(finite, t_obs, 0.0))) * finite
    if sided == "two":
        extreme = ~(np.abs(vals) < np.abs(t_obs) - tol)
    else:
        extreme = ~(vals < t_obs - tol)
    return np.count_nonzero(extreme if keep is None else extreme & keep, axis=0)


def _observed_estimate(triple, adjustment: str) -> EstimateTriple:
    """The estimate of the observed assignment's (tau, classic se^2, robust
    se^2) triple; RankDeficient where the evaluator found no fit (a NaN
    entry), where the reference refit rejects the fit too."""
    tau, se2_classic, se2_robust = map(float, triple)
    if not all(map(math.isfinite, (tau, se2_classic, se2_robust))):
        raise RankDeficient(f"the observed assignment has no {adjustment!r} fit: rank deficient")
    return EstimateTriple(tau, math.sqrt(max(se2_classic, 0.0)), math.sqrt(max(se2_robust, 0.0)))


def _frt(data, specs, design, r, seed, exact, sided):
    """(t_obs, replicates, p-values, observed triples) of `specs` over one
    reference set; replicates are (rows, len(specs)), and the observed row's
    (tau, classic se^2, robust se^2) are keyed by adjustment."""
    _check_sided(sided)
    adata, adesign = design.analysis_form(data)
    evaluator = make_evaluator(adata.y, adata.x, adesign.strata)
    vals, observed = stat_matrix(evaluator, _reference_set(adesign, adata.z, r, seed, exact), specs)
    t_obs, vals = vals[0], vals[1:]
    p = _p_value(_count_extreme(vals, t_obs, sided), vals.shape[0], exact)
    return t_obs, vals, p, observed


def frt_p_value(
    data: Dataset,
    spec: StatisticSpec,
    design: DesignSpec,
    r: int = 1000,
    seed: int = 0,
    *,
    exact: bool = False,
    sided: str = "two",
) -> FrtResult:
    """Randomization-test p-value for one statistic.

    Monte Carlo mode draws `r` fresh assignments from `design` (outcomes and
    covariates held fixed) and applies the add-one rule; exact mode sweeps
    the whole assignment space. Two-sided tests compare absolute values.
    The observed row's estimate is reported; RankDeficient where it has no
    fit.
    """
    t_obs, vals, p, observed = _frt(data, [spec], design, r, seed, exact, sided)
    triple = _observed_estimate(observed[spec.adjustment], spec.adjustment)
    p = float(p[0])
    mc_se = 0.0 if exact else math.sqrt(p * (1 - p) / vals.shape[0])
    mode = "exact" if exact else "monte_carlo"
    return FrtResult(
        float(t_obs[0]), triple, vals[:, 0], p, mc_se, mode, int(seed), design, spec, sided
    )


def frt_p_values(
    data: Dataset,
    specs: list[StatisticSpec],
    design: DesignSpec,
    r: int = 1000,
    seed: int = 0,
    *,
    sided: str = "two",
) -> tuple[np.ndarray, np.ndarray]:
    """(t_obs, p_value) arrays for several statistics sharing one set of draws.

    Reusing the same reference assignments across statistics removes
    between-statistic Monte Carlo noise when comparing them, and computes
    each adjustment's moments once per draw. RankDeficient where the
    observed row has no fit under some statistic's adjustment, as in
    `frt_p_value`.
    """
    t_obs, _, p, observed = _frt(data, specs, design, r, seed, False, sided)
    for adjustment, triple in observed.items():
        _observed_estimate(triple, adjustment)
    return t_obs, p


def wald_ci(triple: EstimateTriple, alpha: float) -> tuple[float, float]:
    """Normal-approximation interval around the estimate, robust SE."""
    if not (isinstance(alpha, numbers.Real) and 0 < alpha < 1):
        raise InvariantViolation(f"alpha must be a number in (0,1), got {alpha!r}")
    if not triple.se_robust > 0:
        raise ZeroSe("robust standard error must be positive for a Wald interval")
    from statistics import NormalDist  # lazily: only intervals need it

    p = 1 - alpha / 2
    # inv_cdf(1.0) raises; an alpha whose half vanishes against 1 gives (-inf, inf)
    q = math.inf if p == 1 else NormalDist().inv_cdf(p)
    return (triple.tau_hat - q * triple.se_robust, triple.tau_hat + q * triple.se_robust)


def _grid(grid) -> tuple[float, float, int]:
    """(lo, hi, num) of a CI grid: finite lo < hi with a finite span, and an
    integer num >= 2; InvariantViolation for anything else."""
    try:
        lo, hi, num = grid
        lo, hi, num = float(lo), float(hi), _whole(num, 2, "num")
        if hi > lo and math.isfinite(hi - lo):
            return lo, hi, num
    except (TypeError, ValueError, InvariantViolation):
        pass
    raise InvariantViolation(f"grid must be (lo, hi, num), finite lo < hi, int num >= 2: {grid!r}")


def _interpolated(poly: np.ndarray, v: np.ndarray, studentization: str):
    """(tau, se2) under Y - cZ by Horner's rule on each row's coefficients
    about the grid midpoint (see `invert_ci`), one column per shift in `v`,
    in grid units; se2 is None for an unstudentized statistic.
    """
    with np.errstate(invalid="ignore"):
        tau = poly[:, 0:1] + v * poly[:, 1:2]
        if studentization == "none":
            return tau, None
        return tau, poly[:, 2:3] + v * (poly[:, 3:4] + v * poly[:, 4:5])


def _stat_at_shift(poly: np.ndarray, v: np.ndarray, studentization: str) -> np.ndarray:
    """Statistic under Y - cZ from its coefficients, one column per shift in `v`."""
    tau, se2 = _interpolated(poly, v, studentization)
    return tau if se2 is None else _studentized(tau, se2)


def _stat_bounds(poly: np.ndarray, ends, studentization: str):
    """(lo, hi), one column per bracket: bounds per row on every value
    `_stat_at_shift` can give at a shift between a and b, for `ends` = (a, b),
    two arrays with -1 <= a < b <= 1; NaN where there are none.

    Between a and b the estimate is linear in v, and the squared SE, a
    quadratic with leading coefficient k (the row's last), strays from its
    chord by at most |k| (b - a)^2 / 4; twice that is allowed. Both are
    widened by 64 eps times the sum of their coefficients' magnitudes, above
    the rounding of Horner's rule at |v| <= 1. A squared SE that may then
    reach 0 leaves t unbounded away from 0: only the bound nearer 0 remains.
    """
    a, b = ends
    n = a.size
    eps = np.finfo(np.float64).eps
    tau, se2 = _interpolated(poly, np.concatenate([a, b]), studentization)
    spread = 64 * eps * (np.abs(poly[:, 0:1]) + np.abs(poly[:, 1:2]))
    lo = np.minimum(tau[:, :n], tau[:, n:]) - spread
    hi = np.maximum(tau[:, :n], tau[:, n:]) + spread
    if se2 is None:
        return lo, hi
    spread = 64 * eps * np.abs(poly[:, 2:5]).sum(axis=1, keepdims=True)
    spread = spread + np.abs(poly[:, 4:5]) * (b - a) ** 2 / 2
    low = np.minimum(se2[:, :n], se2[:, n:]) - spread
    se_lo = np.sqrt(np.where(low > 0, low, np.nan))
    se_hi = np.sqrt(np.maximum(se2[:, :n], se2[:, n:]) + spread)
    return (
        np.where(lo >= 0, lo / se_hi, lo / se_lo),
        np.where(hi >= 0, hi / se_lo, hi / se_hi),
    )


def _settle(rows: np.ndarray, ends, studentization: str, sided: str):
    """(keep, extreme) for searches between `ends` = (a, b), two arrays of
    brackets' ends in either order, in grid units: which rows can change
    their extreme status in each bracket, (rows, brackets), and how many of
    the others are extreme, one count per bracket.

    `rows` holds the observed coefficients first, then the replicates'. A
    replicate is settled when its bounds (`_stat_bounds`, of |t| if
    two-sided) clear the observed statistic's by more than _SETTLE_RTOL of
    max(1, |t_obs|), far above _TIE_RTOL. Rows with a non-finite coefficient
    are never settled, nor is anything when the observed row lacks a bound.
    """
    a, b = ends
    with np.errstate(all="ignore"):  # an overflowed bound still holds; a NaN one settles nothing
        lo, hi = _stat_bounds(rows, (np.minimum(a, b), np.maximum(a, b)), studentization)
        if sided == "two":
            lo, hi = np.where(lo > 0, lo, np.where(hi < 0, -hi, 0.0)), np.maximum(-lo, hi)
        margin = _SETTLE_RTOL * np.max(np.abs([np.ones_like(lo[0]), lo[0], hi[0]]), axis=0)
        finite = np.isfinite(rows).all(axis=1, keepdims=True)
        above = finite & (lo - hi[0] > margin)
        below = finite & (lo[0] - hi > margin)
    return ~(above | below), np.count_nonzero(above, axis=0)


def _boundaries(p_at, alpha: float, a: np.ndarray, b: np.ndarray, width: float, tol: float):
    """Lockstep refinement of brackets (a, b) of an accepted shift a and a
    rejected shift b, each `width` wide: each round scores the
    `_REFINE_STEPS` + 1 evenly spaced shifts from a to b of every bracket in
    one `p_at` call on a (brackets, shifts) array, and takes each bracket to
    its first rejected shift and the accepted one before it. Rounds go on
    while the width, a `_REFINE_STEPS`-th of the last, is above `tol`; the
    result is each bracket's accepted end.
    """
    brackets, fractions = np.arange(len(a)), np.linspace(0, 1, _REFINE_STEPS + 1)
    while width > tol:
        # np.linspace(a, b, _REFINE_STEPS + 1, axis=1) without its per-call overhead
        shifts = a[:, None] + (b - a)[:, None] * fractions
        shifts[:, -1] = b
        out = 1 + np.argmax(p_at(shifts)[:, 1:] <= alpha, axis=1)  # the first rejected
        a, b = shifts[brackets, out - 1], shifts[brackets, out]
        width /= _REFINE_STEPS
    return a


def invert_ci(
    data: Dataset,
    spec: StatisticSpec,
    alpha: float,
    design: DesignSpec,
    r: int = 1000,
    seed: int = 0,
    grid: tuple[float, float, int] | None = None,
    *,
    exact: bool = False,
    sided: str = "two",
) -> CiResult:
    """Confidence interval by inverting constant-effect randomization tests.

    Each grid point c is tested by running the FRT on outcomes Y - cZ, which
    analyze as adata.y - c z_form: the analysis form is linear in y, and
    z_form, the form of Z taken as an outcome, is Z itself except under a
    cluster design, where it holds the treated clusters' scaled sizes. All
    grid points share one set of reference assignments, so the acceptance
    region boundary is stable. The interval ends where the acceptance region
    ends. Each endpoint is refined between the outermost non-rejected grid
    point and its rejected neighbour: each round scores `_REFINE_STEPS` + 1
    evenly spaced shifts across the bracket and keeps the first rejected one
    and the accepted one before it, so the endpoint carries no grid error.
    Refinement stops once the sub-grid step is within 2**-36 of the grid
    span (`_REFINE_RTOL`): the endpoint is exact to that width, and it does
    not depend on the evaluator's row blocks or the BLAS thread count, which
    move the three evaluations below in their last bits. An accepted region
    that reaches a grid edge ends there.

    The default grid spans the Wald interval with three widths of margin on
    each side. Its estimate comes from a one-row evaluation of the observed
    assignment, by the same rules as every replicate's; RankDeficient where
    that row has no fit, and InvariantViolation where `alpha` leaves the
    interval unbounded.

    The reference set is evaluated only at the grid's ends and midpoint.
    Every fit depends on the reference assignment and X alone, so a
    replicate's estimate is linear in c and each squared SE quadratic in c:
    in the grid unit v = (c - mid) / ((hi - lo) / 2), tau = t + v d and
    se2 = s + v (e + v k), and the three evaluations give each row's five
    coefficients, so the statistic at every grid point costs O(R). They are
    taken about the midpoint, which keeps the evaluations' precision: about
    c = 0 the squared SE of a large effect loses about (tau/se)^2 of it to
    cancellation. One evaluator holds the three shifted outcomes, so the
    reference set is read in one pass, observed row first, whatever the grid
    size. The result carries the p-value of every grid point and flags an
    accepted region that reaches either grid edge.

    The grid is scanned in blocks of `_GRID_BLOCK` points, and both
    endpoints are refined in lockstep in v, one pass per round
    (`_boundaries`), and mapped to c once. Each block and each bracket scores
    only the observed row and the replicates that can change their extreme
    status over its span. The same coefficients bound every other
    replicate's statistic there clear of the observed one (`_settle`); those
    are counted once, so a block that keeps no replicate is not scored at
    all, and every grid point and sub-grid shift gets the p-value that
    scoring every replicate would give.
    """
    if spec.studentization != "robust":
        warnings.warn(
            "interval inversion is calibrated for robust-studentized statistics; "
            f"got {spec.label}",
            stacklevel=2,
        )
    _check_sided(sided)
    adata, adesign = design.analysis_form(data)
    # the Wald interval places the grid, so its estimate takes a pass of its own
    evaluator = make_evaluator(adata.y, adata.x, adesign.strata)
    observed = evaluator.triples(adata.z[None], spec.adjustment)
    triple = _observed_estimate(observed[:, 0], spec.adjustment)
    try:
        wald = wald_ci(triple, alpha)
    except ZeroSe:
        if grid is None:
            raise
        wald = (math.nan, math.nan)  # an explicit grid works where the Wald interval does not
    if grid is None:
        width = wald[1] - wald[0]
        if not math.isfinite(width):
            raise InvariantViolation(
                f"alpha={alpha} is too small for a default grid: the Wald interval is "
                f"{wald}; pass an explicit grid"
            )
        grid = (wald[0] - 3 * width, wald[1] + 3 * width, 201)
    lo, hi, num = _grid(grid)
    points = np.linspace(lo, hi, num)
    step = (hi - lo) / (num - 1)

    zmat = _reference_set(adesign, adata.z, r, seed, exact)
    m = zmat.shape[0] - 1

    z_form = design.analysis_form(replace(data, y=data.z.astype(np.float64)))[0].y
    mid, half = lo + (hi - lo) / 2, (hi - lo) / 2
    outcomes = np.stack([adata.y - c * z_form for c in (lo, mid, hi)])
    at = make_evaluator(outcomes, adata.x, adesign.strata).triples(zmat, spec.adjustment)
    # per row, the observed one first, the coefficients (t, d, s, e, k) of
    # tau = t + v d and se2 = s + v (e + v k) (`at` is (node, triple, row))
    se2 = 2 if spec.studentization == "robust" else 1  # row of the triple
    (tau_lo, _, tau_hi), (s_lo, s_mid, s_hi) = at[:, 0], at[:, se2]
    rows = np.column_stack([(tau_lo + tau_hi) / 2, (tau_hi - tau_lo) / 2,
                            s_mid, (s_hi - s_lo) / 2, (s_lo + s_hi) / 2 - s_mid])

    # the grid in v, in blocks of _GRID_BLOCK points, each settled from its
    # first point to the next block's, over row chunks that each lead with
    # the observed row: a block scores only the replicates that it keeps
    v = np.linspace(-1.0, 1.0, num)
    starts = np.arange(0, num, _GRID_BLOCK)
    spans = (v[starts], v[np.minimum(starts + _GRID_BLOCK, num - 1)])
    extreme = np.zeros(num, dtype=np.int64)
    for start in range(1, m + 1, _GRID_ROWS):
        chunk = np.concatenate([rows[:1], rows[start : start + _GRID_ROWS]])
        keep, settled = _settle(chunk, spans, spec.studentization, sided)
        extreme += np.repeat(settled, _GRID_BLOCK)[:num]
        for b in np.flatnonzero(keep[1:].any(axis=0)):
            block = slice(starts[b], starts[b] + _GRID_BLOCK)
            t = _stat_at_shift(chunk[keep[:, b]], v[block], spec.studentization)
            extreme[block] += _count_extreme(t[1:], t[0], sided)
    p_vals = _p_value(extreme, m, exact)

    accepted = p_vals > alpha
    if not accepted.any():
        best = int(np.argmax(p_vals))
        raise EmptyAcceptanceRegion(
            f"every grid point is rejected at alpha={alpha}; "
            f"nearest to acceptance is c={points[best]:.6g} with p={p_vals[best]:.6g}",
            nearest=float(points[best]),
            max_p=float(p_vals[best]),
        )
    first, last = np.flatnonzero(accepted)[[0, -1]]
    # an accepted region that reaches a grid edge ends there; each other end
    # is refined between the outermost accepted point and its rejected neighbour
    searched = {d: i for d, i in ((-1, first), (1, last)) if 0 <= i + d < num}
    ends = {}
    if searched:
        inside = np.array(list(searched.values()))
        a, b = v[inside], v[inside + list(searched)]
        keep, settled = _settle(rows, (a, b), spec.studentization, sided)
        near = keep.any(axis=1)  # the rows either search scores, each masked to its own
        near_rows = rows[near]
        keep = np.repeat(keep[near][1:], _REFINE_STEPS + 1, axis=1)

        def p_at(shifts):
            t = _stat_at_shift(near_rows, shifts.ravel(), spec.studentization)
            count = _count_extreme(t[1:], t[0], sided, keep).reshape(shifts.shape)
            return _p_value(count + settled[:, None], m, exact)

        found = _boundaries(p_at, alpha, a, b, 2 / (num - 1), 2 * _REFINE_RTOL)
        ends = dict(zip(searched, mid + found * half))
    lower, upper = ends.get(-1, points[first]), ends.get(1, points[last])
    return CiResult(
        float(lower),
        float(upper),
        float(alpha),
        (float(lo), float(hi), float(step)),
        wald,
        points,
        p_vals,
        bool(accepted[0]),
        bool(accepted[-1]),
    )
