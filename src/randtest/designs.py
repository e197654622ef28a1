"""Treatment-assignment designs and the rerandomization balance criterion.

The same objects describe both the design stage (how the experiment assigned
treatment) and the permutation law of the randomization test; the engine
redraws assignments from whichever design it is given.

Every design draws a whole batch of assignments at once with
`draw_batch(rng, rows)`, consuming its stream row by row: the first k rows
of a batch are the rows a k-row batch from the same stream would hold.
Batches are uint8 with one column per unit the design assigns (clusters
for a cluster design).

All four designs share one sampler, `_key_rows`. Each row draws one uniform
float64 key per unit with `rng.random`, and each group of units treats the
N1 units with the smallest keys, ties going to the lower key position.
Complete, cluster and ReM candidate rows are one group; a stratified design
has one group per stratum. The N1-th smallest key is selected on the keys'
high 32-bit words, which order non-negative float64 keys as the keys do:
one `np.partition` (one `np.sort` when their N1 differ) per run of
consecutive equal-size groups, in blocks of 131,072 keys. A group-row where
another word ties the selected one (11 in 80,000 rows at N=1,000) is redone
from its float64 keys by a stable sort, drawing nothing more, so the rows
depend on the stream alone and the prefix property holds.

Each design also owns the rest of its part in the randomization test:

- `count()`: the size of its assignment space (the base space for ReM);
- `enumerate()`: every admissible assignment, one per row;
- `analysis_form(data)`: the (dataset, design) pair the test analyzes,
  checked against the observed arm sizes;
- `describe()`: the design block of a CLI report.

The design `analysis_form` returns names in `strata` the stratum codes its
assignments are randomized within, None when there are none; statistics
are combined over them.
"""

from __future__ import annotations

import itertools
import math
import sys
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import AcceptanceTimeout, DimensionMismatch, InvalidSizes, InvariantViolation, SingularCovariance
from .estimators import Dataset, _arm_counts, cluster_collapse

# Candidates in the first block of a rejection-sampling draw.
_REJECTION_BATCH = 64
# Rejection budget: candidates per accepted assignment.
_MAX_TRIES = 10**6
# Float64 values an enumeration may hold in temporaries at once.
_BLOCK_ELEMENTS = 4_000_000
# Keys per block of a batch draw; with the copy of their high words and the
# marks, a block takes about 1.7 MB. Smaller blocks make more numpy calls
# per row, and on worker threads each call may wait for the interpreter
# lock: with 65,536 keys the threaded strat-null scenario ran about 15%
# slower. With 262,144 the `analyze` benchmark's peak memory rose 0.5 MB.
_KEY_ELEMENTS = 131_072
# Values per block of rejection-sampling candidates: a few hundred rows, so
# a block's float64 copy stays in cache and draws on worker threads stay small.
_CANDIDATE_ELEMENTS = 65_536
# Index of a float64's high 32-bit word (sign, exponent, leading mantissa
# bits) in its uint32 view.
_HIGH_WORD = int(sys.byteorder == "little")


def _check_arms(n: int, n1: int, what: str = "units"):
    if not (2 <= n1 <= n - 2):
        raise InvalidSizes(f"need 2 <= treated {what} <= total - 2, got {n1} of {n}")


def _key_runs(sizes) -> tuple:
    """(span, (groups, N_k), N_k1s, kth) per run of consecutive groups of
    equal size N_k, from (N_k, N_k1) per group in key order: the run's key
    positions, the shape of its groups, their treated counts and the
    partition index N_k1 - 1, one int when every group's agrees."""
    runs, start = [], 0
    for n_k, run in itertools.groupby(sizes, key=lambda size: size[0]):
        n1s = np.array([n_k1 for _, n_k1 in run])
        kth = int(n1s[0]) - 1 if np.all(n1s == n1s[0]) else n1s - 1
        stop = start + n_k * n1s.size
        runs.append((slice(start, stop), (n1s.size, n_k), n1s, kth))
        start = stop
    return tuple(runs)


def _key_rows(rng: np.random.Generator, runs, rows: int, out=None, order=None) -> np.ndarray:
    """`rows` uniform assignments, written into `out` ((rows, N) uint8) if given.

    Group g of a run of `_key_runs` holds the run's key positions g N_k up
    to (g + 1) N_k and treats the units holding its N_k1s[g] smallest keys,
    the lower position first among equal keys; key j of a row belongs to
    unit `order[j]` (unit j without `order`).

    A run's groups are selected at once, on the keys' high words: the units
    whose word is at or below the group's N_k1-th smallest word are the ones
    treated unless another word equals it. Such a group-row is redone by a
    stable sort of its float64 keys.
    """
    n = runs[-1][0].stop
    out = np.empty((rows, n), dtype=np.uint8) if out is None else out
    step = max(1, _KEY_ELEMENTS // n)
    for first in range(0, rows, step):
        keys = rng.random((min(step, rows - first), n))
        words = keys.view(np.uint32)[:, _HIGH_WORD::2]
        dest = out[first : first + keys.shape[0]]
        block = dest if order is None else np.empty(keys.shape, dtype=np.uint8)
        for span, groups, n1s, kth in runs:
            shape = (keys.shape[0], *groups)
            part = words[:, span].reshape(shape)
            if isinstance(kth, int):
                chosen = np.partition(part, kth, axis=2)
                threshold, above = chosen[:, :, kth], chosen[:, :, kth + 1 :].min(axis=2)
            else:
                chosen, at = np.sort(part, axis=2), np.arange(n1s.size)
                threshold, above = chosen[:, at, kth], chosen[:, at, kth + 1]
            # the smallest float64 whose high word is above the threshold
            bound = ((threshold.astype(np.uint64) + 1) << 32).view(np.float64)
            group_keys = keys[:, span].reshape(shape)
            marks = block.view(bool)[:, span].reshape(shape)
            np.less(group_keys, bound[:, :, None], out=marks)
            for i, g in zip(*np.nonzero(above == threshold)):
                marks[i, g] = False
                marks[i, g, np.argsort(group_keys[i, g], kind="stable")[: n1s[g]]] = True
        if order is not None:
            dest[:, order] = block
    return out


def _enumerate_complete(n: int, n1: int) -> np.ndarray:
    """Every assignment of n1 of n units, rows in the lexicographic order of
    the treated index tuples (the order of itertools.combinations)."""
    # level m holds, for each feasible j, the assignments of the last m units
    # with j treated; those treating the first unit precede those that do not
    level = {0: np.zeros((1, 0), dtype=np.uint8)}
    for m in range(1, n + 1):
        nxt = {}
        for j in range(max(0, n1 - (n - m)), min(n1, m) + 1):
            parts = [
                np.hstack([np.full((sub.shape[0], 1), bit, dtype=np.uint8), sub])
                for bit, sub in ((1, level.get(j - 1)), (0, level.get(j)))
                if sub is not None
            ]
            nxt[j] = np.concatenate(parts)
        level = nxt
    return level[n1]


def _check_observed(n: int, n1: int, data: Dataset, what: str = "treated"):
    """The design must reproduce the observed arm sizes, so the observed
    assignment belongs to the reference set it defines."""
    if n != data.n or n1 != data.n1:
        raise InvalidSizes(f"design says {n1}/{n} {what}, data has {data.n1}/{data.n}")


@dataclass(frozen=True)
class CompleteDesign:
    """Complete randomization: N1 of N units treated, uniformly."""

    n_units: int
    n_treated: int
    strata = None

    def __post_init__(self):
        _check_arms(self.n_units, self.n_treated)

    def draw_batch(self, rng: np.random.Generator, rows: int, out=None) -> np.ndarray:
        """`rows` assignments, written into `out` ((rows, N) uint8) if given."""
        return _key_rows(rng, _key_runs(((self.n_units, self.n_treated),)), rows, out)

    def count(self) -> int:
        return math.comb(self.n_units, self.n_treated)

    def enumerate(self) -> np.ndarray:
        return _enumerate_complete(self.n_units, self.n_treated)

    def analysis_form(self, data: Dataset) -> tuple[Dataset, "CompleteDesign"]:
        _check_observed(self.n_units, self.n_treated, data)
        return data, self

    def describe(self) -> dict:
        return {"kind": "complete", "n": self.n_units, "n1": self.n_treated}


@dataclass(frozen=True)
class ClusterDesign:
    """Complete randomization over M clusters, M1 treated."""

    n_clusters: int
    n_treated_clusters: int

    def __post_init__(self):
        _check_arms(self.n_clusters, self.n_treated_clusters, "clusters")

    def draw_batch(self, rng: np.random.Generator, rows: int, out=None) -> np.ndarray:
        """Cluster-level assignments, written into `out` ((rows, M) uint8) if given."""
        runs = _key_runs(((self.n_clusters, self.n_treated_clusters),))
        return _key_rows(rng, runs, rows, out)

    def count(self) -> int:
        return math.comb(self.n_clusters, self.n_treated_clusters)

    def enumerate(self) -> np.ndarray:
        return _enumerate_complete(self.n_clusters, self.n_treated_clusters)

    def analysis_form(self, data: Dataset) -> tuple[Dataset, CompleteDesign]:
        """Scaled cluster totals, analyzed as a complete design over clusters."""
        collapsed = cluster_collapse(data)
        m, m1 = self.n_clusters, self.n_treated_clusters
        _check_observed(m, m1, collapsed, "treated clusters")
        return collapsed, CompleteDesign(m, m1)

    def describe(self) -> dict:
        return {
            "kind": "cluster",
            "clusters": self.n_clusters,
            "treated_clusters": self.n_treated_clusters,
        }


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
        arms = _arm_counts(strata, np.asarray(z, dtype=np.int64))
        return cls(strata, tuple(zip(arms.sum(axis=1).tolist(), arms[:, 1].tolist())))

    @property
    def n_units(self) -> int:
        return self.strata.shape[0]

    @cached_property
    def _key_layout(self) -> tuple[np.ndarray | None, tuple]:
        """The units in stratum order (None when they already are) and the
        `_key_runs` of the strata, whose keys are drawn in code order."""
        runs = _key_runs(self.sizes)
        if np.all(np.diff(self.strata) >= 0):
            return None, runs
        return np.argsort(self.strata, kind="stable"), runs

    def draw_batch(self, rng: np.random.Generator, rows: int, out=None) -> np.ndarray:
        """`rows` assignments, written into `out` ((rows, N) uint8) if given.

        Each row treats the N_k1 units with the smallest uniform keys in
        every stratum; keys are drawn row-major, stratum by stratum, so
        units already in stratum order need no reordering.
        """
        order, runs = self._key_layout
        return _key_rows(rng, runs, rows, out, order)

    def count(self) -> int:
        return math.prod(math.comb(n_k, n_k1) for n_k, n_k1 in self.sizes)

    def enumerate(self) -> np.ndarray:
        """Rows cycle through stratum 0's assignments fastest."""
        total = self.count()
        out = np.zeros((total, self.n_units), dtype=np.uint8)
        block = 1
        for k, (n_k, n_k1) in enumerate(self.sizes):
            mat_k = _enumerate_complete(n_k, n_k1)
            out[:, self.strata == k] = mat_k[(np.arange(total) // block) % mat_k.shape[0]]
            block *= mat_k.shape[0]
        return out

    def analysis_form(self, data: Dataset) -> tuple[Dataset, "StratifiedDesign"]:
        if data.strata is None:
            raise InvariantViolation("a stratified design needs strata labels in the data")
        if not np.array_equal(self.strata, data.strata):
            raise InvariantViolation("design strata do not match the dataset's labels")
        realized = StratifiedDesign.from_observed(data.strata, data.z)
        if realized.sizes != self.sizes:
            raise InvalidSizes(
                f"design per-stratum arm sizes {self.sizes} do not match "
                f"the realized ones {realized.sizes}"
            )
        return data, self

    def describe(self) -> dict:
        return {"kind": "stratified", "sizes": [list(s) for s in self.sizes]}


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
        white = xc @ np.linalg.inv(chol).T  # numpy's BLAS pool only; see `linalg`
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
    strata = None

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

    def draw_batch(self, rng: np.random.Generator, rows: int, out=None) -> np.ndarray:
        """Accepted base-design candidates, in the order they were drawn,
        written into `out` ((rows, N) uint8) if given.

        Candidates are filtered in vectorized blocks that double from
        `_REJECTION_BATCH` up to a cache-sized cap; which rows come out
        depends only on the stream.
        Raises AcceptanceTimeout once `_MAX_TRIES` candidates per accepted
        row plus one have been examined.
        """
        n = self.base.n_units
        cap = max(1, _CANDIDATE_ELEMENTS // n)
        out = np.empty((rows, n), dtype=np.uint8) if out is None else out
        accepted = tries = 0
        while accepted < rows:
            budget = _MAX_TRIES * (accepted + 1)
            if tries >= budget:
                raise AcceptanceTimeout(
                    f"{accepted} of {rows} assignments accepted in {tries} tries "
                    f"(threshold {self.threshold})",
                    tries=tries,
                    acceptance_rate=accepted / tries,
                )
            size = min(max(_REJECTION_BATCH, tries), cap, budget - tries)
            candidates = self.base.draw_batch(rng, size)
            hits = np.flatnonzero(mahalanobis_many(candidates, self.balance) < self.threshold)
            hits = hits[: rows - accepted]
            out[accepted : accepted + hits.size] = candidates[hits]
            accepted += hits.size
            tries += size
        return out

    def count(self) -> int:
        """Size of the base space, an upper bound on the accepted ones."""
        return self.base.count()

    def enumerate(self) -> np.ndarray:
        """The base space filtered by the balance criterion, in base order."""
        base = self.base.enumerate()
        step = max(1, _BLOCK_ELEMENTS // base.shape[1])
        dist = np.concatenate(
            [mahalanobis_many(base[s : s + step], self.balance) for s in range(0, len(base), step)]
        )
        keep = dist < self.threshold
        if not keep.any():
            raise InvariantViolation("no assignment satisfies the balance threshold")
        return base[keep]

    def analysis_form(self, data: Dataset) -> tuple[Dataset, "RerandomizedDesign"]:
        self.base.analysis_form(data)
        return data, self

    def describe(self) -> dict:
        """The CLI fills `columns` with the covariate names it balanced."""
        return {
            "kind": "rem",
            "n": self.base.n_units,
            "n1": self.base.n_treated,
            "threshold": self.threshold,
            "columns": None,
        }


DesignSpec = CompleteDesign | ClusterDesign | StratifiedDesign | RerandomizedDesign


@dataclass(frozen=True)
class BalanceReport:
    tau_x_hat: np.ndarray
    mahalanobis: float
    accepted: bool
    threshold: float


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
    dist = float(tau_x @ np.linalg.solve(cov, tau_x))  # _balance_metric rejected a singular cov
    return BalanceReport(tau_x, dist, dist < threshold, threshold)


def mahalanobis_many(zmat: np.ndarray, x_d) -> np.ndarray:
    """Balance distances for a batch of assignments (rows of zmat).

    `x_d` is the design covariates, or a design's factored `balance` metric
    to skip re-validating them. Every row must treat the same number of
    units.
    """
    metric = x_d if isinstance(x_d, _BalanceMetric) else _BalanceMetric(x_d)
    return metric.distances(np.asarray(zmat))


def draw(design: DesignSpec, rng: np.random.Generator) -> np.ndarray:
    """Draw one assignment vector from any design."""
    if not isinstance(design, DesignSpec):
        raise TypeError(f"unknown design {design!r}")
    return design.draw_batch(rng, 1)[0].astype(np.int64)


def chi2_cdf(x, k):
    """Chi-square CDF: regularized lower incomplete gamma P(k/2, x/2).

    InvariantViolation unless every x is in [0, inf] and every k is finite
    and positive.
    """
    x, k = np.asarray(x), np.asarray(k)
    if not (np.all(x >= 0) and np.all((k > 0) & (k < np.inf))):
        raise InvariantViolation(f"chi2_cdf needs x >= 0 and finite k > 0, got x={x}, k={k}")
    import scipy.special

    return scipy.special.gammainc(k / 2.0, x / 2.0)[()]
