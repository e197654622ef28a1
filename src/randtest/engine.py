"""Randomization-test engine.

Computes Fisher randomization test p-values, exactly (full enumeration of
the assignment space) or by Monte Carlo, for any statistic in `estimators`
under complete, cluster, stratified, and rerandomized designs, and inverts
the test over a grid of constant-effect nulls into a confidence interval.

`frt_p_value` and `frt_p_values` share one core: the design supplies the
analysis form (`analysis_form`) and the reference set (drawn, or enumerated
through `count`/`enumerate`), the batch evaluator is built once, the
reference set is evaluated in fixed row chunks (`_eval_chunks`, the only
thread pool here), and the extreme replicates of every statistic are
counted at once. `invert_ci` takes its reference set from the same place.

Monte Carlo replicates are drawn in fixed chunks of `_STREAM_ROWS` rows;
chunk c draws its rows as one batch from the stream seeded by (seed, c).
The chunk size depends on nothing else, so replicate i is a function of the
seed and i alone: results are reproducible, a run of R replicates is the
prefix of any longer run with the same seed, and evaluation chunks, whose
boundaries depend on the problem shape alone, keep results bitwise
reproducible.
"""

from __future__ import annotations

import math
import warnings
from concurrent.futures import (
    ThreadPoolExecutor,  # unused here; perfbench/spans.py wraps pool tasks at this name
)
from dataclasses import dataclass

import numpy as np
import scipy.special

from ._batch import _studentized, make_evaluator, stat_matrix
from .designs import (
    DesignSpec,
    _BLOCK_ELEMENTS,
    draw,  # unused here; perfbench/spans.py traces design draws at this name
    mahalanobis_many,  # unused here; perfbench/spans.py traces balance checks at this name
)
from .errors import (
    EmptyAcceptanceRegion,
    InvariantViolation,
    TooLarge,
    ZeroSe,
)
from .estimators import (
    Dataset,
    EstimateTriple,
    StatisticSpec,
    cluster_collapse,  # unused here; perfbench/spans.py traces cluster collapses at this name
    estimate,
    estimate_stratified,
)

EXHAUSTIVE_CAP = 1_000_000
_CHUNK_ELEMENTS = _BLOCK_ELEMENTS
# Replicates per random stream (see the module docstring).
_STREAM_ROWS = 1024
_SIDES = ("one", "two")
_TIE_RTOL = 1e-9
# Replicate-by-shift values scored at once when scanning the CI grid.
_GRID_ELEMENTS = 1 << 17


@dataclass(frozen=True)
class FrtResult:
    """Outcome of one randomization test.

    `replicates` holds every reference draw's statistic (length R for Monte
    Carlo, the whole assignment space for exact mode). `p_value` follows the
    add-one rule (1 + #extreme)/(1 + R) in Monte Carlo mode and the plain
    fraction #extreme/|Z| in exact mode; `mc_se` is 0 for exact results.
    """

    t_obs: float
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
    by bisection. `grid` is (lo, hi, step); `points` and `p_values` are the
    tested grid shifts and their p-values. `lower_at_edge` / `upper_at_edge`
    flag an accepted region that reaches the first / last grid point, where
    the interval may be cut off by the grid rather than by the test.
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


def _streams(r: int, seed: int):
    """(start, stop, generator) for each chunk of `_STREAM_ROWS` replicates."""
    for c, start in enumerate(range(0, r, _STREAM_ROWS)):
        rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence((seed, c))))
        yield start, min(start + _STREAM_ROWS, r), rng


def _draw_matrix(design: DesignSpec, r: int, seed: int) -> np.ndarray:
    """R assignments drawn chunk by chunk, one stream per chunk."""
    out = np.empty((r, design.n_units), dtype=np.uint8)
    for start, stop, rng in _streams(r, seed):
        design.draw_batch(rng, stop - start, out=out[start:stop])
    return out


def _chunk_bounds(rows: int, n: int) -> list[tuple[int, int]]:
    # Boundaries depend only on the problem shape: a replicate's last bits
    # depend on the shape of the chunk its reductions run over, so a
    # shape-only split keeps results bitwise reproducible.
    size = max(1, _CHUNK_ELEMENTS // max(n, 1))
    return [(s, min(s + size, rows)) for s in range(0, rows, size)]


def _eval_chunks(fn, zmat: np.ndarray) -> np.ndarray:
    """`fn` over fixed row chunks of `zmat`, results stacked in row order."""
    bounds = _chunk_bounds(zmat.shape[0], zmat.shape[1])
    if len(bounds) == 1:
        return fn(zmat)
    return np.concatenate([fn(zmat[s:e]) for s, e in bounds])


def _replicate_count(r) -> int:
    r = int(r)
    if r < 1:
        raise InvariantViolation(f"need at least one replicate, got R={r}")
    return r


def _check_sided(sided: str):
    if sided not in _SIDES:
        raise InvariantViolation(f"sided must be one of {_SIDES}, got {sided!r}")


def _reference_set(design: DesignSpec, r, seed, exact: bool) -> np.ndarray:
    """The whole assignment space, or `r` draws from the stream of `seed`."""
    if exact:
        return exhaustive_assignments(design)
    return _draw_matrix(design, _replicate_count(r), int(seed))


def _locate_row(zmat: np.ndarray, z: np.ndarray) -> int | None:
    hits = np.flatnonzero((zmat == z.astype(zmat.dtype)).all(axis=1))
    return int(hits[0]) if hits.size else None


def _count_extreme(vals: np.ndarray, t_obs, sided: str):
    """Extreme replicates in each column of `vals`, against `t_obs` per column."""
    # Replicates within a relative _TIE_RTOL of t_obs tie with it, so a tie
    # that is exact in real arithmetic counts whatever the rounding. Negated
    # strict comparisons count NaNs (errored replicates) as extreme.
    t_obs = np.asarray(t_obs, dtype=np.float64)
    finite = np.isfinite(t_obs)
    tol = _TIE_RTOL * np.maximum(1.0, np.abs(np.where(finite, t_obs, 0.0))) * finite
    if sided == "two":
        return np.count_nonzero(~(np.abs(vals) < np.abs(t_obs) - tol), axis=0)
    return np.count_nonzero(~(vals < t_obs - tol), axis=0)


def _frt(data, specs, design, r, seed, exact, sided):
    """(t_obs, replicates, p-values) of `specs` over one reference set.

    Replicates are (rows, len(specs)); p-values follow the add-one rule in
    Monte Carlo mode and are plain fractions in exact mode.
    """
    _check_sided(sided)
    adata, adesign = design.analysis_form(data)
    evaluator = make_evaluator(adata.y, adata.x, adesign.strata)
    zmat = _reference_set(adesign, r, seed, exact)
    vals = _eval_chunks(lambda chunk: stat_matrix(evaluator, chunk, specs), zmat)
    # exact mode reads t_obs off the enumerated observed row, so the observed
    # assignment ties with itself bit for bit
    row = _locate_row(zmat, adata.z) if exact else None
    t_obs = vals[row] if row is not None else stat_matrix(evaluator, adata.z[None, :], specs)[0]
    extreme = _count_extreme(vals, t_obs, sided)
    m = vals.shape[0]
    return t_obs, vals, extreme / m if exact else (1 + extreme) / (1 + m)


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
    """
    t_obs, vals, p = _frt(data, [spec], design, r, seed, exact, sided)
    p = float(p[0])
    mc_se = 0.0 if exact else math.sqrt(p * (1 - p) / vals.shape[0])
    mode = "exact" if exact else "monte_carlo"
    return FrtResult(float(t_obs[0]), vals[:, 0], p, mc_se, mode, int(seed), design, spec, sided)


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
    each adjustment's moments once per draw.
    """
    t_obs, _, p = _frt(data, specs, design, r, seed, False, sided)
    return t_obs, p


def wald_ci(triple: EstimateTriple, alpha: float) -> tuple[float, float]:
    """Normal-approximation interval around the estimate, robust SE."""
    if not 0 < alpha < 1:
        raise InvariantViolation(f"alpha must be in (0,1), got {alpha}")
    if not triple.se_robust > 0:
        raise ZeroSe("robust standard error must be positive for a Wald interval")
    q = float(scipy.special.ndtri(1 - alpha / 2))
    return (triple.tau_hat - q * triple.se_robust, triple.tau_hat + q * triple.se_robust)


def _stat_at_shift(vals: np.ndarray, nodes, c: np.ndarray, studentization: str) -> np.ndarray:
    """Statistic under Y - cZ from its node values (see `invert_ci`), one
    column per shift in `c`.

    The estimate is interpolated linearly between the end nodes and the
    squared SE by the quadratic through all three nodes, so each reproduces
    its node evaluations exactly.
    """
    c0, c1, c2 = nodes
    u = (c - c0) / (c2 - c0)
    tau = (1 - u) * vals[:, 0:1] + u * vals[:, 1:2]
    if studentization == "none":
        return tau
    l0 = (c - c1) * (c - c2) / ((c0 - c1) * (c0 - c2))
    l1 = (c - c0) * (c - c2) / ((c1 - c0) * (c1 - c2))
    l2 = (c - c0) * (c - c1) / ((c2 - c0) * (c2 - c1))
    return _studentized(tau, l0 * vals[:, 2:3] + l1 * vals[:, 3:4] + l2 * vals[:, 4:5])


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

    Each grid point c is tested by running the FRT on outcomes Y - cZ
    (subtracted at the unit level, before any cluster collapsing). All grid
    points share one set of reference assignments, so the acceptance region
    boundary is stable. The interval ends where the acceptance region ends:
    each endpoint is the last accepted shift of a bisection, to float
    resolution, between the outermost non-rejected grid point and its
    rejected neighbour, so it carries no grid error; an accepted region that
    reaches a grid edge ends there.

    The reference set is evaluated only at the grid's ends and midpoint.
    Every fit depends on the reference assignment and X alone, so a
    replicate's estimate is linear in c and each squared SE quadratic in c;
    interpolating those three evaluations gives the statistic at every grid
    point in O(R). The cost is three evaluations of the reference set
    whatever the grid size. The result carries the p-value of every grid
    point and flags an accepted region that reaches either grid edge.
    """
    if spec.studentization != "robust":
        warnings.warn(
            "interval inversion is calibrated for robust-studentized statistics; "
            f"got {spec.label}",
            stacklevel=2,
        )
    _check_sided(sided)
    adata, adesign = design.analysis_form(data)
    triple = (estimate if adesign.strata is None else estimate_stratified)(adata, spec.adjustment)
    if grid is None:
        wald = wald_ci(triple, alpha)
        width = wald[1] - wald[0]
        lo, hi, num = wald[0] - 3 * width, wald[1] + 3 * width, 201
    else:
        # an explicit grid works even where the Wald interval is undefined
        try:
            wald = wald_ci(triple, alpha)
        except ZeroSe:
            wald = (math.nan, math.nan)
        lo, hi, num = grid
        num = int(num)
        if num < 2 or not hi > lo:
            raise InvariantViolation("grid must be (lo, hi, num) with hi > lo and num >= 2")
    points = np.linspace(lo, hi, num)
    step = (hi - lo) / (num - 1)

    zmat = _reference_set(adesign, r, seed, exact)
    m = zmat.shape[0]

    nodes = (lo, lo + (hi - lo) / 2, hi)
    z_float = np.asarray(data.z, dtype=np.float64)
    x_arg = data.x if data.j else None
    evaluators = []
    for c in nodes:
        shifted = Dataset(
            data.y - c * z_float, data.z, x_arg, strata=data.strata, clusters=data.clusters
        )
        adata_c, _ = design.analysis_form(shifted)
        evaluators.append(make_evaluator(adata_c.y, adata_c.x, adesign.strata))

    def node_values(chunk):
        # per row: tau at lo and hi, then the squared SE at lo, mid and hi
        chunk = np.asarray(chunk, dtype=np.float64)
        taus, se2s = [], []
        for evaluator in evaluators:
            tau, se2_classic, se2_robust = evaluator.triples(chunk, spec.adjustment)
            taus.append(tau)
            se2s.append(se2_robust if spec.studentization == "robust" else se2_classic)
        return np.column_stack([taus[0], taus[2], *se2s])

    vals = _eval_chunks(node_values, zmat)
    obs_row = _locate_row(zmat, adata.z) if exact else None
    obs = vals[obs_row : obs_row + 1] if obs_row is not None else node_values(adata.z[None, :])

    def p_at(shifts):
        t_obs = _stat_at_shift(obs, nodes, shifts, spec.studentization)[0]
        reps = _stat_at_shift(vals, nodes, shifts, spec.studentization)
        extreme = _count_extreme(reps, t_obs, sided)
        return extreme / m if exact else (1 + extreme) / (1 + m)

    def boundary(inside, outside):
        # keeps an accepted shift inside; 64 halvings pass float resolution
        for _ in range(64):
            mid = inside + (outside - inside) / 2
            if mid in (inside, outside):
                break
            if p_at(np.array([mid]))[0] > alpha:
                inside = mid
            else:
                outside = mid
        return inside

    cols = max(1, _GRID_ELEMENTS // m)
    p_vals = np.concatenate([p_at(points[s : s + cols]) for s in range(0, num, cols)])

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
    lower = points[0] if first == 0 else boundary(points[first], points[first - 1])
    upper = points[-1] if last == num - 1 else boundary(points[last], points[last + 1])
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
