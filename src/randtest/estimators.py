"""Treatment-effect estimators, their standard errors, and test statistics.

Four point estimators of the average treatment effect are supported, crossed
with three studentization choices (none, classic, robust/HC0) for twelve test
statistics total:

- ``n``: difference in means, no covariate adjustment;
- ``r``: difference in means of residuals from the pooled fit of the outcome
  on the covariates (fixed pseudo-outcome adjustment);
- ``f``: treatment coefficient of the ANCOVA fit outcome ~ (1, Z, X);
- ``l``: treatment coefficient of the fully interacted fit on centered
  covariates, outcome ~ (1, Z, Xc, Z*Xc).

Also here: the scaled-cluster-total reduction for cluster-randomized data and
the weighted combination of per-stratum estimates for stratified data.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    DegenerateArm,
    DimensionMismatch,
    EmptyStratum,
    InvalidConfig,
    InvariantViolation,
    MixedClusterTreatment,
)
from .linalg import fit_ols

ADJUSTMENTS = ("n", "r", "f", "l")
STUDENTIZATIONS = ("none", "classic", "robust")


@dataclass(frozen=True)
class Dataset:
    """Immutable experimental data.

    Attributes
    ----------
    y : (N,) float array
        Observed outcomes.
    z : (N,) int array
        Treatment indicators in {0, 1}.
    x : (N, J) float array
        Covariates; J may be 0.
    strata : (N,) int array or None
        Stratum codes (0..K-1) when the experiment is stratified.
    clusters : (N,) int array or None
        Cluster codes when treatment was assigned at cluster level.
    """

    y: np.ndarray
    z: np.ndarray
    x: np.ndarray
    strata: np.ndarray | None = None
    clusters: np.ndarray | None = None

    def __post_init__(self):
        y = np.asarray(self.y, dtype=np.float64)
        if y.ndim != 1:
            raise InvariantViolation("y must be a 1D vector")
        n = y.shape[0]
        if not np.all(np.isfinite(y)):
            raise InvariantViolation("y must be finite")

        z_raw = np.asarray(self.z)
        if z_raw.shape != (n,):
            raise InvariantViolation(f"z must have length {n}")
        z = z_raw.astype(np.int64, copy=True)
        if not np.array_equal(z, z_raw) or not np.isin(z, (0, 1)).all():
            raise InvariantViolation("z entries must be 0 or 1")
        n1 = int(z.sum())
        if n1 < 2 or n - n1 < 2:
            raise InvariantViolation(f"each arm needs >= 2 units, got N1={n1}, N0={n - n1}")

        x = self.x
        if x is None:
            x = np.zeros((n, 0))
        x = np.asarray(x, dtype=np.float64)
        if x.ndim == 1:
            x = x.reshape(-1, 1)
        if x.ndim != 2 or x.shape[0] != n:
            raise InvariantViolation(f"x must be an (N, J) matrix with N={n}")
        if not np.all(np.isfinite(x)):
            raise InvariantViolation("x must be finite")

        strata = self.strata
        if strata is not None:
            strata = _integer_codes(strata, n, "strata")
            arms = _arm_counts(strata, z)
            bad = np.flatnonzero(arms.min(axis=1) < 2)
            if bad.size:
                k = int(bad[0])
                raise InvariantViolation(
                    f"stratum {k} needs >= 2 units per arm, got "
                    f"N1={int(arms[k, 1])}, N0={int(arms[k, 0])}"
                )

        clusters = self.clusters
        if clusters is not None:
            clusters = _integer_codes(clusters, n, "clusters")
            mixed = np.flatnonzero(_arm_counts(clusters, z).min(axis=1) > 0)
            if mixed.size:
                raise MixedClusterTreatment(f"treatment varies within cluster {int(mixed[0])}")

        for name, value in (("y", y), ("z", z), ("x", x), ("strata", strata), ("clusters", clusters)):
            if value is not None:
                value.setflags(write=False)
            object.__setattr__(self, name, value)

    @property
    def n(self) -> int:
        return self.y.shape[0]

    @property
    def n1(self) -> int:
        return int(self.z.sum())

    @property
    def n0(self) -> int:
        return self.n - self.n1

    @property
    def j(self) -> int:
        return self.x.shape[1]


def _arm_counts(codes: np.ndarray, z: np.ndarray) -> np.ndarray:
    """(K, 2) control and treated unit counts for group codes 0..K-1."""
    return np.bincount(2 * codes + z, minlength=2 * (int(codes.max()) + 1)).reshape(-1, 2)


def _integer_codes(labels, n: int, name: str) -> np.ndarray:
    labels = np.asarray(labels)
    if labels.shape != (n,):
        raise InvariantViolation(f"{name} must have length {n}")
    # First-appearance coding keeps row order stable under relabeling.
    _, first, inverse = np.unique(labels, return_index=True, return_inverse=True)
    order = np.argsort(np.argsort(first))
    return order[inverse].astype(np.int64)


@dataclass(frozen=True)
class StatisticSpec:
    """One of the twelve test statistics: adjustment x studentization."""

    adjustment: str
    studentization: str = "none"

    def __post_init__(self):
        adj = str(self.adjustment).lower()
        stud = str(self.studentization).lower()
        if adj not in ADJUSTMENTS:
            raise InvalidConfig(f"adjustment must be one of {ADJUSTMENTS}, got {self.adjustment!r}")
        if stud not in STUDENTIZATIONS:
            raise InvalidConfig(
                f"studentization must be one of {STUDENTIZATIONS}, got {self.studentization!r}"
            )
        object.__setattr__(self, "adjustment", adj)
        object.__setattr__(self, "studentization", stud)

    @property
    def label(self) -> str:
        return f"{self.adjustment}:{self.studentization}"


ALL_SPECS = tuple(
    StatisticSpec(adj, stud) for adj in ADJUSTMENTS for stud in STUDENTIZATIONS
)


@dataclass(frozen=True)
class EstimateTriple:
    """Point estimate with classic and robust standard errors.

    gamma_hat is the covariate coefficient entering the algebraic identity
    tau_hat = tau_n - tau_x' gamma_hat (None for the unadjusted estimator);
    gamma_arms carries the per-arm slopes (treated, control) of the
    interacted fit.
    """

    tau_hat: float
    se_classic: float
    se_robust: float
    gamma_hat: np.ndarray | None = None
    gamma_arms: tuple[np.ndarray, np.ndarray] | None = None


def center_covariates(x: np.ndarray) -> np.ndarray:
    """Subtract the column means; returns a new array."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] < 1:
        raise DimensionMismatch("need an (N, J) matrix with J >= 1")
    return x - x.mean(axis=0)


def _two_group(values: np.ndarray, z: np.ndarray) -> tuple[float, float, float]:
    """Difference in means of `values` with the paired SE formulas.

    classic se^2 = N(N1-1)/((N-2)N1N0) * S1^2 + N(N0-1)/((N-2)N1N0) * S0^2
    robust  se^2 = (N1-1)/N1^2 * S1^2 + (N0-1)/N0^2 * S0^2
    """
    treated = values[z == 1]
    control = values[z == 0]
    n1, n0 = treated.shape[0], control.shape[0]
    if n1 < 2 or n0 < 2:
        raise DegenerateArm(f"each arm needs >= 2 units, got N1={n1}, N0={n0}")
    n = n1 + n0
    tau = float(treated.mean() - control.mean())
    s1 = float(treated.var(ddof=1))
    s0 = float(control.var(ddof=1))
    classic2 = n * (n1 - 1) / ((n - 2) * n1 * n0) * s1 + n * (n0 - 1) / ((n - 2) * n1 * n0) * s0
    robust2 = (n1 - 1) / n1**2 * s1 + (n0 - 1) / n0**2 * s0
    return tau, float(np.sqrt(classic2)), float(np.sqrt(robust2))


def _require_covariates(data: Dataset):
    if data.j < 1:
        raise DimensionMismatch("this adjustment needs at least one covariate column")


def tau_neyman(data: Dataset) -> EstimateTriple:
    """Difference in means with the two-group classic/robust SEs."""
    tau, se_c, se_r = _two_group(data.y, data.z)
    return EstimateTriple(tau, se_c, se_r)


def tau_rosenbaum(data: Dataset) -> EstimateTriple:
    """Difference in means of residuals from the pooled fit y ~ (1, X).

    The residuals are a fixed pseudo-outcome: they do not depend on the
    assignment, so permutation replicates reuse them unchanged.
    """
    _require_covariates(data)
    fit = fit_ols(np.column_stack([np.ones(data.n), data.x]), data.y)
    tau, se_c, se_r = _two_group(fit.residuals, data.z)
    return EstimateTriple(tau, se_c, se_r, gamma_hat=fit.coefficients[1:].copy())


def tau_fisher(data: Dataset) -> EstimateTriple:
    """Treatment coefficient of the ANCOVA fit y ~ (1, Z, X)."""
    _require_covariates(data)
    design = np.column_stack([np.ones(data.n), data.z, data.x])
    fit = fit_ols(design, data.y)
    return EstimateTriple(
        tau_hat=float(fit.coefficients[1]),
        se_classic=float(np.sqrt(fit.classic_cov[1, 1])),
        se_robust=float(np.sqrt(fit.robust_cov[1, 1])),
        gamma_hat=fit.coefficients[2:].copy(),
    )


def tau_lin(data: Dataset) -> EstimateTriple:
    """Treatment coefficient of the interacted fit on centered covariates.

    Fits y ~ (1, Z, Xc, Z*Xc) with Xc centered at the full-sample mean;
    covariate centering happens here, callers never pre-center.
    """
    _require_covariates(data)
    j = data.j
    n1, n0 = data.n1, data.n0
    if n1 < j + 2 or n0 < j + 2:
        raise DegenerateArm(f"interacted fit needs >= {j + 2} units per arm, got N1={n1}, N0={n0}")
    xc = center_covariates(data.x)
    design = np.column_stack([np.ones(data.n), data.z, xc, data.z[:, None] * xc])
    fit = fit_ols(design, data.y)
    gamma_control = fit.coefficients[2 : 2 + j].copy()
    gamma_treated = gamma_control + fit.coefficients[2 + j :]
    p1 = n1 / data.n
    p0 = n0 / data.n
    # Swapped weights: the control share multiplies the treated-arm slope.
    gamma = p0 * gamma_treated + p1 * gamma_control
    return EstimateTriple(
        tau_hat=float(fit.coefficients[1]),
        se_classic=float(np.sqrt(fit.classic_cov[1, 1])),
        se_robust=float(np.sqrt(fit.robust_cov[1, 1])),
        gamma_hat=gamma,
        gamma_arms=(gamma_treated, gamma_control),
    )


_ESTIMATORS = {"n": tau_neyman, "r": tau_rosenbaum, "f": tau_fisher, "l": tau_lin}


def estimate(data: Dataset, adjustment: str) -> EstimateTriple:
    """Whole-sample estimate for one adjustment code (strata ignored)."""
    return _ESTIMATORS[adjustment](data)


def estimate_stratified(data: Dataset, adjustment: str) -> EstimateTriple:
    """Size-weighted combination of independent per-stratum estimates."""
    if data.strata is None:
        raise EmptyStratum("dataset has no strata labels")
    triples = []
    weights = []
    for k in np.unique(data.strata):
        idx = data.strata == k
        sub = Dataset(data.y[idx], data.z[idx], data.x[idx])
        triples.append(estimate(sub, adjustment))
        weights.append(idx.sum() / data.n)
    return stratified_combine(triples, np.array(weights))


def stratified_combine(per_stratum: list[EstimateTriple], weights: np.ndarray) -> EstimateTriple:
    """Combine per-stratum triples: tau = sum(w*tau), se^2 = sum(w^2 se^2)."""
    if len(per_stratum) == 0:
        raise EmptyStratum("no strata to combine")
    weights = np.asarray(weights, dtype=np.float64)
    if weights.shape != (len(per_stratum),):
        raise DimensionMismatch("one weight per stratum required")
    if np.any(weights <= 0):
        raise EmptyStratum("stratum weights must be positive")
    if abs(float(weights.sum()) - 1.0) > 1e-8:
        raise InvariantViolation(f"stratum weights must sum to 1, got {weights.sum()!r}")
    tau = float(sum(w * t.tau_hat for w, t in zip(weights, per_stratum)))
    classic2 = float(sum(w**2 * t.se_classic**2 for w, t in zip(weights, per_stratum)))
    robust2 = float(sum(w**2 * t.se_robust**2 for w, t in zip(weights, per_stratum)))
    return EstimateTriple(tau, float(np.sqrt(classic2)), float(np.sqrt(robust2)))


def studentize(triple: EstimateTriple, studentization: str) -> float:
    """Map an estimate triple to a scalar test statistic.

    A studentized statistic with zero SE returns a signed infinity so the
    permutation comparison stays total-ordered; 0/0 maps to 0.
    """
    if studentization == "none":
        return triple.tau_hat
    se = triple.se_classic if studentization == "classic" else triple.se_robust
    if se == 0.0:
        if triple.tau_hat == 0.0:
            return 0.0
        return float(np.copysign(np.inf, triple.tau_hat))
    return triple.tau_hat / se


def statistic(data: Dataset, spec: StatisticSpec) -> float:
    """Evaluate one test statistic on the dataset.

    The stratified (weighted) form is used exactly when strata labels are
    present.
    """
    triple = (estimate if data.strata is None else estimate_stratified)(data, spec.adjustment)
    return studentize(triple, spec.studentization)


def cluster_collapse(data: Dataset) -> Dataset:
    """Reduce cluster-randomized data to scaled cluster totals.

    Outcome and covariate columns are summed within cluster and divided by
    the average cluster size nbar = N/M, giving an M-row dataset analyzed as
    a complete randomization over clusters. Strata and cluster labels are
    dropped. A Dataset never holds a cluster with mixed treatment.
    """
    if data.clusters is None:
        raise InvariantViolation("dataset has no cluster labels")
    codes = data.clusters
    m = int(codes.max()) + 1
    nbar = data.n / m
    y_tilde = np.bincount(codes, weights=data.y, minlength=m) / nbar
    x_tilde = np.empty((m, data.j))
    for col in range(data.j):
        x_tilde[:, col] = np.bincount(codes, weights=data.x[:, col], minlength=m) / nbar
    z_cluster = np.zeros(m, dtype=np.int64)
    np.maximum.at(z_cluster, codes, data.z)
    return Dataset(y_tilde, z_cluster, x_tilde)
