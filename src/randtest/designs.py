"""Treatment-assignment designs and the rerandomization balance criterion.

The same objects describe both the design stage (how the experiment assigned
treatment) and the permutation law of the randomization test; the engine
redraws assignments from whichever design it is given.

Every design draws a whole batch of assignments at once with
`draw_batch(rng, rows)`, consuming its stream row by row: the first k rows
of a batch are the rows a k-row batch from the same stream would hold.
Batches are uint8 with one column per unit the design assigns (clusters
for a cluster design).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
import scipy.linalg
import scipy.special

from .errors import AcceptanceTimeout, DimensionMismatch, InvalidSizes, InvariantViolation, SingularCovariance

# Candidates in the first block of a rejection-sampling draw.
_REJECTION_BATCH = 64
# Default rejection budget: candidates per accepted assignment.
_MAX_TRIES = 10**6
# Float64 values a batch draw may hold in temporaries at once; equal to the
# engine's evaluation chunk.
_BLOCK_ELEMENTS = 4_000_000
# Values per block of rejection-sampling candidates: a few hundred rows, so
# a block's float64 copy stays in cache and draws on worker threads stay small.
_CANDIDATE_ELEMENTS = 65_536


def _check_arms(n: int, n1: int, what: str = "units"):
    if not (2 <= n1 <= n - 2):
        raise InvalidSizes(f"need 2 <= treated {what} <= total - 2, got {n1} of {n}")


def _batch_out(rows: int, n: int, out: np.ndarray | None) -> np.ndarray:
    return np.empty((rows, n), dtype=np.uint8) if out is None else out


def _permuted_rows(rng: np.random.Generator, n1: int, out: np.ndarray) -> np.ndarray:
    """Fill each row of `out` with a uniform assignment of n1 treated."""
    out[:] = 0
    out[:, :n1] = 1
    return rng.permuted(out, axis=1, out=out)


@dataclass(frozen=True)
class CompleteDesign:
    """Complete randomization: N1 of N units treated, uniformly."""

    n_units: int
    n_treated: int

    def __post_init__(self):
        _check_arms(self.n_units, self.n_treated)

    def draw_batch(self, rng: np.random.Generator, rows: int, out=None) -> np.ndarray:
        """`rows` assignments, written into `out` ((rows, N) uint8) if given."""
        return _permuted_rows(rng, self.n_treated, _batch_out(rows, self.n_units, out))


@dataclass(frozen=True)
class ClusterDesign:
    """Complete randomization over M clusters, M1 treated."""

    n_clusters: int
    n_treated_clusters: int

    def __post_init__(self):
        _check_arms(self.n_clusters, self.n_treated_clusters, "clusters")

    def draw_batch(self, rng: np.random.Generator, rows: int, out=None) -> np.ndarray:
        """Cluster-level assignments, written into `out` ((rows, M) uint8) if given."""
        return _permuted_rows(rng, self.n_treated_clusters, _batch_out(rows, self.n_clusters, out))


@dataclass(frozen=True, eq=False)
class StratifiedDesign:
    """Independent complete randomization inside each stratum.

    `strata` holds unit-level stratum codes 0..K-1; `sizes` holds one
    (N_k, N_k1) pair per stratum in code order.
    """

    strata: np.ndarray
    sizes: tuple[tuple[int, int], ...]

    def __post_init__(self):
        strata = np.asarray(self.strata, dtype=np.int64)
        strata.setflags(write=False)
        object.__setattr__(self, "strata", strata)
        object.__setattr__(self, "sizes", tuple((int(a), int(b)) for a, b in self.sizes))
        counts = np.bincount(strata, minlength=len(self.sizes))
        if len(counts) != len(self.sizes):
            raise InvalidSizes("stratum codes do not match the size list")
        for k, (n_k, n_k1) in enumerate(self.sizes):
            if counts[k] != n_k:
                raise InvalidSizes(f"stratum {k} has {counts[k]} units, sizes say {n_k}")
            _check_arms(n_k, n_k1)

    @classmethod
    def from_observed(cls, strata: np.ndarray, z: np.ndarray) -> "StratifiedDesign":
        """Design whose per-stratum arm sizes are the realized ones of z."""
        strata = np.asarray(strata, dtype=np.int64)
        z = np.asarray(z)
        sizes = []
        for k in range(int(strata.max()) + 1):
            zk = z[strata == k]
            sizes.append((int(zk.shape[0]), int(zk.sum())))
        return cls(strata, tuple(sizes))

    @property
    def n_units(self) -> int:
        return self.strata.shape[0]

    @cached_property
    def _members(self) -> tuple[np.ndarray, ...]:
        return tuple(np.flatnonzero(self.strata == k) for k in range(len(self.sizes)))

    def draw_batch(self, rng: np.random.Generator, rows: int, out=None) -> np.ndarray:
        """`rows` assignments, written into `out` ((rows, N) uint8) if given.

        Each row treats the N_k1 units with the smallest uniform keys in
        every stratum; keys are drawn row-major, one per unit.
        """
        n = self.n_units
        out = _batch_out(rows, n, out)
        out[:] = 0
        # keys, one stratum's copy of them and its index array stay within a block
        step = max(1, _BLOCK_ELEMENTS // (4 * n))
        for start in range(0, rows, step):
            block = out[start : start + step]
            keys = rng.random(block.shape)
            for cols, (_, n_k1) in zip(self._members, self.sizes):
                pick = np.argpartition(keys[:, cols], n_k1 - 1, axis=1)[:, :n_k1]
                np.put_along_axis(block, cols[pick], 1, axis=1)
        return out


class _BalanceMetric:
    """Design covariates whitened once for the Mahalanobis criterion.

    With w the centered covariates in the metric of S2_x, the distance of an
    assignment with treated sum s = z'w is N s's / (N1 N0). A ones column
    rides along so one product also yields each row's N1.
    """

    def __init__(self, x_d: np.ndarray):
        x_d = np.asarray(x_d, dtype=np.float64)
        if x_d.ndim == 1:
            x_d = x_d.reshape(-1, 1)
        self.n, self.j = x_d.shape
        chol = np.linalg.cholesky(_balance_metric(x_d))
        xc = x_d - x_d.mean(axis=0)
        white = scipy.linalg.solve_triangular(chol, xc.T, lower=True).T
        self.block = np.column_stack([white, np.ones(self.n)])

    def distances(self, zmat: np.ndarray) -> np.ndarray:
        if zmat.ndim != 2 or zmat.shape[1] != self.n:
            raise DimensionMismatch(f"assignments must be (B, {self.n})")
        if zmat.shape[0] == 0:
            return np.empty(0)
        sums = zmat @ self.block
        arm = sums[:, self.j]
        if np.any(arm != arm[0]):
            raise InvalidSizes("assignment rows treat different numbers of units")
        n1 = float(arm[0])
        n0 = self.n - n1
        if n1 < 1 or n0 < 1:
            raise InvalidSizes("both arms must be nonempty")
        s = sums[:, : self.j]
        return (self.n / (n1 * n0)) * np.einsum("ij,ij->i", s, s)


@dataclass(frozen=True, eq=False)
class RerandomizedDesign:
    """Complete randomization accepted only under the balance criterion.

    An assignment is accepted iff the Mahalanobis distance of the covariate
    mean difference, in the metric of its randomization covariance
    (N/(N1 N0)) * S2_x with the (N-1)-denominator covariance S2_x, is below
    `threshold`.
    """

    base: CompleteDesign
    threshold: float
    covariates: np.ndarray = field(repr=False)

    def __post_init__(self):
        if not (self.threshold > 0):
            raise InvariantViolation(f"threshold must be positive, got {self.threshold}")
        x = np.asarray(self.covariates, dtype=np.float64)
        if x.ndim == 1:
            x = x.reshape(-1, 1)
        if x.ndim != 2 or x.shape[0] != self.base.n_units or x.shape[1] < 1:
            raise DimensionMismatch("covariates must be (N, J_d) with J_d >= 1")
        if not np.all(np.isfinite(x)):
            raise InvariantViolation("design covariates must be finite")
        x = x.copy()
        x.setflags(write=False)
        object.__setattr__(self, "covariates", x)

    @property
    def n_units(self) -> int:
        return self.base.n_units

    @cached_property
    def balance(self) -> _BalanceMetric:
        """The validated, factored balance metric, built on first use."""
        return _BalanceMetric(self.covariates)

    def draw_batch(
        self, rng: np.random.Generator, rows: int, out=None, max_tries: int = _MAX_TRIES
    ) -> np.ndarray:
        """Accepted base-design candidates, in the order they were drawn,
        written into `out` ((rows, N) uint8) if given.

        Candidates are filtered in vectorized blocks that double from
        `_REJECTION_BATCH` up to a cache-sized cap; which rows come out
        depends only on the stream.
        Raises AcceptanceTimeout once `max_tries` candidates per accepted row
        plus one have been examined.
        """
        if max_tries < 1:
            raise InvariantViolation(f"max_tries must be positive, got {max_tries}")
        n, n1 = self.base.n_units, self.base.n_treated
        cap = max(1, _CANDIDATE_ELEMENTS // n)
        out = _batch_out(rows, n, out)
        accepted = tries = 0
        while accepted < rows:
            budget = max_tries * (accepted + 1)
            if tries >= budget:
                raise AcceptanceTimeout(
                    f"{accepted} of {rows} assignments accepted in {tries} tries "
                    f"(threshold {self.threshold})",
                    tries=tries,
                    acceptance_rate=accepted / tries,
                )
            size = min(max(_REJECTION_BATCH, tries), cap, budget - tries)
            candidates = _permuted_rows(rng, n1, np.empty((size, n), dtype=np.uint8))
            hits = np.flatnonzero(mahalanobis_many(candidates, self.balance) < self.threshold)
            hits = hits[: rows - accepted]
            out[accepted : accepted + hits.size] = candidates[hits]
            accepted += hits.size
            tries += size
        return out


DesignSpec = CompleteDesign | ClusterDesign | StratifiedDesign | RerandomizedDesign


@dataclass(frozen=True)
class BalanceReport:
    tau_x_hat: np.ndarray
    mahalanobis: float
    accepted: bool
    threshold: float


def draw_complete(n: int, n1: int, rng: np.random.Generator) -> np.ndarray:
    """Uniform draw from the assignments with exactly n1 of n treated."""
    return draw(CompleteDesign(n, n1), rng)


def draw_stratified(design: StratifiedDesign, rng: np.random.Generator) -> np.ndarray:
    """Independent complete randomization inside each stratum."""
    return draw(design, rng)


def _balance_metric(x_d: np.ndarray) -> np.ndarray:
    """(N-1)-denominator covariance of the design covariates, checked."""
    j = x_d.shape[1]
    s2 = np.cov(x_d, rowvar=False, ddof=1).reshape(j, j)
    if not np.all(np.isfinite(s2)) or np.linalg.cond(s2) > 1e12:
        raise SingularCovariance("covariate covariance matrix is singular")
    return s2


def mahalanobis(z: np.ndarray, x_d: np.ndarray, threshold: float = np.inf) -> BalanceReport:
    """Balance report for one assignment.

    tau_x_hat is the treated-minus-control covariate mean difference and the
    distance is tau_x' cov^-1 tau_x with cov = (N/(N1 N0)) * S2_x.
    """
    z = np.asarray(z)
    x_d = np.asarray(x_d, dtype=np.float64)
    if x_d.ndim == 1:
        x_d = x_d.reshape(-1, 1)
    if z.shape[0] != x_d.shape[0]:
        raise DimensionMismatch("z and covariates must have equal length")
    n = z.shape[0]
    n1 = int(z.sum())
    n0 = n - n1
    if n1 < 1 or n0 < 1:
        raise InvalidSizes("both arms must be nonempty")
    tau_x = x_d[z == 1].mean(axis=0) - x_d[z == 0].mean(axis=0)
    s2 = _balance_metric(x_d)
    cov = (n / (n1 * n0)) * s2
    try:
        w = np.linalg.solve(cov, tau_x)
    except np.linalg.LinAlgError as err:
        raise SingularCovariance(str(err)) from err
    dist = float(tau_x @ w)
    return BalanceReport(tau_x, dist, dist < threshold, threshold)


def mahalanobis_many(zmat: np.ndarray, x_d) -> np.ndarray:
    """Balance distances for a batch of assignments (rows of zmat).

    `x_d` is the design covariates, or a design's factored `balance` metric
    to skip re-validating them. Every row must treat the same number of
    units.
    """
    metric = x_d if isinstance(x_d, _BalanceMetric) else _BalanceMetric(x_d)
    return metric.distances(np.asarray(zmat))


def draw_rem(
    n: int,
    n1: int,
    x_d: np.ndarray,
    a: float,
    rng: np.random.Generator,
    max_tries: int = _MAX_TRIES,
) -> np.ndarray:
    """Rejection-sample a complete assignment until the criterion accepts.

    The first acceptable candidate in draw order is returned, so the result
    is a deterministic function of the stream.
    """
    design = RerandomizedDesign(CompleteDesign(n, n1), a, x_d)
    return design.draw_batch(rng, 1, max_tries=max_tries)[0].astype(np.int64)


def draw(design: DesignSpec, rng: np.random.Generator) -> np.ndarray:
    """Draw one assignment vector from any design."""
    if not isinstance(design, DesignSpec):
        raise TypeError(f"unknown design {design!r}")
    return design.draw_batch(rng, 1)[0].astype(np.int64)


def assignment_count(design: DesignSpec) -> int:
    """Size of the assignment space (pre-filter upper bound for ReM)."""
    if isinstance(design, CompleteDesign):
        return math.comb(design.n_units, design.n_treated)
    if isinstance(design, ClusterDesign):
        return math.comb(design.n_clusters, design.n_treated_clusters)
    if isinstance(design, StratifiedDesign):
        total = 1
        for n_k, n_k1 in design.sizes:
            total *= math.comb(n_k, n_k1)
        return total
    if isinstance(design, RerandomizedDesign):
        return assignment_count(design.base)
    raise TypeError(f"unknown design {design!r}")


def chi2_cdf(x, k):
    """Chi-square CDF: regularized lower incomplete gamma P(k/2, x/2)."""
    return scipy.special.gammainc(np.asarray(k) / 2.0, np.asarray(x) / 2.0)[()]
