"""Randomization-test engine.

Computes Fisher randomization test p-values, exactly (full enumeration of
the assignment space) or by Monte Carlo, for any statistic in `estimators`
under complete, cluster, stratified, and rerandomized designs, and inverts
the test over a grid of constant-effect nulls into a confidence interval.

Replicate i always uses the random stream seeded by (seed, i), so results
are reproducible and independent of how replicates are split over worker
threads.
"""

from __future__ import annotations

import itertools
import math
import os
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np
import scipy.special

from ._batch import _studentized, make_evaluator, stat_matrix
from .designs import (
    ClusterDesign,
    CompleteDesign,
    DesignSpec,
    RerandomizedDesign,
    StratifiedDesign,
    assignment_count,
    draw,
    mahalanobis_many,
)
from .errors import (
    EmptyAcceptanceRegion,
    InvalidSizes,
    InvariantViolation,
    TooLarge,
    ZeroSe,
)
from .estimators import (
    Dataset,
    EstimateTriple,
    StatisticSpec,
    cluster_collapse,
    estimate,
    estimate_stratified,
)

EXHAUSTIVE_CAP = 1_000_000
_CHUNK_ELEMENTS = 4_000_000
_SIDES = ("one", "two")


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

    `grid` is (lo, hi, step); `points` and `p_values` are the tested shifts
    and their p-values. `lower_at_edge` / `upper_at_edge` flag an accepted
    region that reaches the first / last grid point, where the interval may
    be cut off by the grid rather than by the test.
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


def worker_count(requested: int | None = None) -> int:
    """Workers to use; the RANDTEST_THREADS env var caps but never raises it."""
    count = requested if requested is not None else (os.cpu_count() or 1)
    cap = os.environ.get("RANDTEST_THREADS")
    if cap:
        try:
            count = min(count, int(cap))
        except ValueError:
            pass  # unparseable cap is ignored, results never depend on it
    return max(1, int(count))


def _analysis_form(data: Dataset, design: DesignSpec) -> tuple[Dataset, DesignSpec]:
    """Dataset/design pair actually analyzed; collapses cluster designs.

    Validates that the design reproduces the observed arm sizes, so the
    observed assignment is a member of the reference set it defines.
    """
    if isinstance(design, ClusterDesign):
        collapsed = cluster_collapse(data)
        if collapsed.n != design.n_clusters or collapsed.n1 != design.n_treated_clusters:
            raise InvalidSizes(
                f"design says {design.n_treated_clusters}/{design.n_clusters} treated clusters, "
                f"data has {collapsed.n1}/{collapsed.n}"
            )
        return collapsed, CompleteDesign(design.n_clusters, design.n_treated_clusters)
    if isinstance(design, CompleteDesign):
        if design.n_units != data.n or design.n_treated != data.n1:
            raise InvalidSizes(
                f"design says {design.n_treated}/{design.n_units} treated, "
                f"data has {data.n1}/{data.n}"
            )
        return data, design
    if isinstance(design, StratifiedDesign):
        if data.strata is None:
            raise InvariantViolation("a stratified design needs strata labels in the data")
        if not np.array_equal(design.strata, data.strata):
            raise InvariantViolation("design strata do not match the dataset's labels")
        realized = StratifiedDesign.from_observed(data.strata, data.z)
        if realized.sizes != design.sizes:
            raise InvalidSizes(
                f"design per-stratum arm sizes {design.sizes} do not match "
                f"the realized ones {realized.sizes}"
            )
        return data, design
    if isinstance(design, RerandomizedDesign):
        base = design.base
        if base.n_units != data.n or base.n_treated != data.n1:
            raise InvalidSizes(
                f"design says {base.n_treated}/{base.n_units} treated, "
                f"data has {data.n1}/{data.n}"
            )
        return data, design
    raise TypeError(f"unknown design {design!r}")


def _design_units(design: DesignSpec) -> int:
    if isinstance(design, CompleteDesign):
        return design.n_units
    if isinstance(design, StratifiedDesign):
        return design.strata.shape[0]
    if isinstance(design, RerandomizedDesign):
        return design.base.n_units
    raise TypeError(f"no unit count for {design!r}")


def _enumerate_complete(n: int, n1: int) -> np.ndarray:
    out = np.zeros((math.comb(n, n1), n), dtype=np.uint8)
    for i, treated in enumerate(itertools.combinations(range(n), n1)):
        out[i, treated] = 1
    return out


def exhaustive_assignments(design: DesignSpec, cap: int = EXHAUSTIVE_CAP) -> np.ndarray:
    """All admissible assignments, one per row, each exactly once.

    For a rerandomized design the base space is enumerated and filtered by
    the balance criterion. The cap applies to the pre-filter count.
    """
    total = assignment_count(design)
    if total > cap:
        raise TooLarge(f"assignment space has {total} members, cap is {cap}")
    if isinstance(design, CompleteDesign):
        return _enumerate_complete(design.n_units, design.n_treated)
    if isinstance(design, ClusterDesign):
        return _enumerate_complete(design.n_clusters, design.n_treated_clusters)
    if isinstance(design, StratifiedDesign):
        out = np.zeros((total, design.strata.shape[0]), dtype=np.uint8)
        block = 1
        for k, (n_k, n_k1) in enumerate(design.sizes):
            cols = np.nonzero(design.strata == k)[0]
            mat_k = _enumerate_complete(n_k, n_k1)
            idx = (np.arange(total) // block) % mat_k.shape[0]
            out[:, cols] = mat_k[idx]
            block *= mat_k.shape[0]
        return out
    if isinstance(design, RerandomizedDesign):
        base = exhaustive_assignments(design.base, cap)
        dist = mahalanobis_many(base.astype(np.float64), design.covariates)
        keep = dist < design.threshold
        if not keep.any():
            raise InvariantViolation("no assignment satisfies the balance threshold")
        return base[keep]
    raise TypeError(f"unknown design {design!r}")


def _draw_matrix(design: DesignSpec, r: int, seed: int, workers: int) -> np.ndarray:
    """R assignments, row i drawn from the stream seeded by (seed, i)."""
    n = _design_units(design)
    out = np.empty((r, n), dtype=np.uint8)

    def fill(start: int, stop: int):
        for i in range(start, stop):
            rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence((seed, i))))
            out[i] = draw(design, rng)

    bounds = _chunk_bounds(r, n)
    if len(bounds) == 1 or workers == 1:
        fill(0, r)
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            list(pool.map(lambda se: fill(*se), bounds))
    return out


def _chunk_bounds(rows: int, n: int) -> list[tuple[int, int]]:
    # Boundaries depend only on the problem shape, never on the worker
    # count: array reductions must see identical shapes for bitwise
    # reproducibility across parallelism settings.
    size = max(1, _CHUNK_ELEMENTS // max(n, 1))
    return [(s, min(s + size, rows)) for s in range(0, rows, size)]


def _eval_chunks(fn, zmat: np.ndarray, workers: int) -> np.ndarray:
    """`fn` over fixed row chunks of `zmat`, results stacked in row order."""
    bounds = _chunk_bounds(zmat.shape[0], zmat.shape[1])
    if len(bounds) == 1:
        return fn(zmat)
    if workers == 1:
        parts = [fn(zmat[s:e]) for s, e in bounds]
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            parts = list(pool.map(lambda se: fn(zmat[se[0] : se[1]]), bounds))
    return np.concatenate(parts)


def _replicate_count(r) -> int:
    r = int(r)
    if r < 1:
        raise InvariantViolation(f"need at least one replicate, got R={r}")
    return r


def _locate_row(zmat: np.ndarray, z: np.ndarray) -> int | None:
    hits = np.flatnonzero((zmat == z.astype(zmat.dtype)).all(axis=1))
    return int(hits[0]) if hits.size else None


def _count_extreme(vals: np.ndarray, t_obs: float, sided: str) -> int:
    # Negated strict comparisons count NaNs (errored replicates) as extreme.
    if sided == "two":
        return int(np.count_nonzero(~(np.abs(vals) < abs(t_obs))))
    return int(np.count_nonzero(~(vals < t_obs)))


def frt_p_value(
    data: Dataset,
    spec: StatisticSpec,
    design: DesignSpec,
    r: int = 1000,
    seed: int = 0,
    *,
    exact: bool = False,
    sided: str = "two",
    workers: int | None = None,
) -> FrtResult:
    """Randomization-test p-value for one statistic.

    Monte Carlo mode draws `r` fresh assignments from `design` (outcomes and
    covariates held fixed) and applies the add-one rule; exact mode sweeps
    the whole assignment space. Two-sided tests compare absolute values.
    """
    if sided not in _SIDES:
        raise InvariantViolation(f"sided must be one of {_SIDES}, got {sided!r}")
    adata, adesign = _analysis_form(data, design)
    stratified = isinstance(adesign, StratifiedDesign)
    evaluator = make_evaluator(adata.y, adata.x, adata.strata if stratified else None)
    nworkers = worker_count(workers)

    def stats(chunk):
        return stat_matrix(evaluator, chunk, [spec])[:, 0]

    if exact:
        zmat = exhaustive_assignments(adesign)
        vals = _eval_chunks(stats, zmat, nworkers)
        row = _locate_row(zmat, adata.z)
        if row is not None:
            t_obs = float(vals[row])
        else:
            t_obs = float(stat_matrix(evaluator, adata.z[None, :], [spec])[0, 0])
        p = _count_extreme(vals, t_obs, sided) / vals.shape[0]
        return FrtResult(t_obs, vals, float(p), 0.0, "exact", int(seed), design, spec, sided)

    r = _replicate_count(r)
    t_obs = float(stat_matrix(evaluator, adata.z[None, :], [spec])[0, 0])
    zmat = _draw_matrix(adesign, r, int(seed), nworkers)
    vals = _eval_chunks(stats, zmat, nworkers)
    p = (1 + _count_extreme(vals, t_obs, sided)) / (1 + r)
    mc_se = math.sqrt(p * (1 - p) / r)
    return FrtResult(t_obs, vals, float(p), mc_se, "monte_carlo", int(seed), design, spec, sided)


def frt_p_values(
    data: Dataset,
    specs: list[StatisticSpec],
    design: DesignSpec,
    r: int = 1000,
    seed: int = 0,
    *,
    sided: str = "two",
    workers: int | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """(t_obs, p_value) arrays for several statistics sharing one set of draws.

    Reusing the same reference assignments across statistics removes
    between-statistic Monte Carlo noise when comparing them, and computes
    each adjustment's moments once per draw.
    """
    if sided not in _SIDES:
        raise InvariantViolation(f"sided must be one of {_SIDES}, got {sided!r}")
    r = _replicate_count(r)
    adata, adesign = _analysis_form(data, design)
    stratified = isinstance(adesign, StratifiedDesign)
    evaluator = make_evaluator(adata.y, adata.x, adata.strata if stratified else None)
    nworkers = worker_count(workers)
    t_obs = stat_matrix(evaluator, adata.z[None, :], specs)[0]
    zmat = _draw_matrix(adesign, r, int(seed), nworkers)
    vals = _eval_chunks(lambda chunk: stat_matrix(evaluator, chunk, specs), zmat, nworkers)
    p = np.empty(len(specs))
    for j in range(len(specs)):
        p[j] = (1 + _count_extreme(vals[:, j], float(t_obs[j]), sided)) / (1 + r)
    return t_obs, p


def wald_ci(triple: EstimateTriple, alpha: float) -> tuple[float, float]:
    """Normal-approximation interval around the estimate, robust SE."""
    if not 0 < alpha < 1:
        raise InvariantViolation(f"alpha must be in (0,1), got {alpha}")
    if not triple.se_robust > 0:
        raise ZeroSe("robust standard error must be positive for a Wald interval")
    q = float(scipy.special.ndtri(1 - alpha / 2))
    return (triple.tau_hat - q * triple.se_robust, triple.tau_hat + q * triple.se_robust)


def _stat_at_shift(vals: np.ndarray, nodes, c: float, studentization: str) -> np.ndarray:
    """Statistic under Y - cZ from its node values (see `invert_ci`).

    The estimate is interpolated linearly between the end nodes and the
    squared SE by the quadratic through all three nodes, so each reproduces
    its node evaluations exactly.
    """
    c0, c1, c2 = nodes
    u = (c - c0) / (c2 - c0)
    tau = (1 - u) * vals[:, 0] + u * vals[:, 1]
    if studentization == "none":
        return tau
    l0 = (c - c1) * (c - c2) / ((c0 - c1) * (c0 - c2))
    l1 = (c - c0) * (c - c2) / ((c1 - c0) * (c1 - c2))
    l2 = (c - c0) * (c - c1) / ((c2 - c0) * (c2 - c1))
    return _studentized(tau, l0 * vals[:, 2] + l1 * vals[:, 3] + l2 * vals[:, 4])


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
    workers: int | None = None,
) -> CiResult:
    """Confidence interval by inverting constant-effect randomization tests.

    Each grid point c is tested by running the FRT on outcomes Y - cZ
    (subtracted at the unit level, before any cluster collapsing); the
    interval is the smallest and largest non-rejected grid point. All grid
    points share one set of reference assignments, so the acceptance region
    boundary is stable.

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
    if sided not in _SIDES:
        raise InvariantViolation(f"sided must be one of {_SIDES}, got {sided!r}")
    adata, adesign = _analysis_form(data, design)
    stratified = isinstance(adesign, StratifiedDesign)
    triple = (
        estimate_stratified(adata, spec.adjustment)
        if stratified
        else estimate(adata, spec.adjustment)
    )
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

    nworkers = worker_count(workers)
    if exact:
        zmat = exhaustive_assignments(adesign)
    else:
        zmat = _draw_matrix(adesign, _replicate_count(r), int(seed), nworkers)
    m = zmat.shape[0]

    nodes = (lo, lo + (hi - lo) / 2, hi)
    z_float = np.asarray(data.z, dtype=np.float64)
    x_arg = data.x if data.j else None
    evaluators = []
    for c in nodes:
        shifted = Dataset(
            data.y - c * z_float, data.z, x_arg, strata=data.strata, clusters=data.clusters
        )
        adata_c, _ = _analysis_form(shifted, design)
        evaluators.append(
            make_evaluator(adata_c.y, adata_c.x, adata_c.strata if stratified else None)
        )

    def node_values(chunk):
        # per row: tau at lo and hi, then the squared SE at lo, mid and hi
        chunk = np.asarray(chunk, dtype=np.float64)
        taus, se2s = [], []
        for evaluator in evaluators:
            tau, se2_classic, se2_robust = evaluator.triples(chunk, spec.adjustment)
            taus.append(tau)
            se2s.append(se2_robust if spec.studentization == "robust" else se2_classic)
        return np.column_stack([taus[0], taus[2], *se2s])

    vals = _eval_chunks(node_values, zmat, nworkers)
    obs_row = _locate_row(zmat, adata.z) if exact else None
    obs = vals[obs_row : obs_row + 1] if obs_row is not None else node_values(adata.z[None, :])
    p_vals = np.empty(num)
    for idx, c in enumerate(points):
        t_obs = float(_stat_at_shift(obs, nodes, c, spec.studentization)[0])
        extreme = _count_extreme(_stat_at_shift(vals, nodes, c, spec.studentization), t_obs, sided)
        p_vals[idx] = extreme / m if exact else (1 + extreme) / (1 + m)

    accepted = p_vals > alpha
    if not accepted.any():
        best = int(np.argmax(p_vals))
        raise EmptyAcceptanceRegion(
            f"every grid point is rejected at alpha={alpha}; "
            f"nearest to acceptance is c={points[best]:.6g} with p={p_vals[best]:.6g}",
            nearest=float(points[best]),
            max_p=float(p_vals[best]),
        )
    kept = points[accepted]
    return CiResult(
        float(kept.min()),
        float(kept.max()),
        float(alpha),
        (float(lo), float(hi), float(step)),
        wald,
        points,
        p_vals,
        bool(accepted[0]),
        bool(accepted[-1]),
    )
