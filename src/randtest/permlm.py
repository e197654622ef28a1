"""Permutation tests for the treatment coefficient of a linear model.

Four classical schemes for testing that the coefficient of Z is zero in the
fit of Y on (1, Z, X), differing in what gets permuted:

- fl (Freedman-Lane): permute the reduced-model residuals e of Y on (1, X)
  and refit on (Y - e) + e_pi;
- kennedy: regress the permuted residuals e_pi on (1, delta), where delta is
  the residual of Z on (1, X) -- the replicate coefficient equals
  Freedman-Lane's by the projection identity beta = delta'e_pi / ||delta||^2;
- terbraak: permute the full-model residuals and center the replicate
  coefficient at the observed one;
- manly: permute the outcome itself.

Replicates are computed from explicit projection forms (the hat matrix
pieces and delta are built once), with a full-refit path kept as a
cross-check oracle. None of these schemes is finite-sample exact for the
sharp null; the engine's randomization test is.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._batch import _centered_qr, _studentized
from .engine import (
    FrtResult,
    _check_sided,
    _count_extreme,
    _eval_chunks,
    _replicate_count,
    _streams,
)
from .errors import (
    DimensionMismatch,
    InvalidConfig,
    InvariantViolation,
    ZeroDenominator,
)
from .estimators import STUDENTIZATIONS, Dataset
from .linalg import fit_ols

SCHEMES = ("fl", "kennedy", "terbraak", "manly")


@dataclass(frozen=True)
class PermLmSpec:
    """Scheme plus studentization of the replicate coefficient."""

    scheme: str
    studentization: str = "none"

    def __post_init__(self):
        scheme = str(self.scheme).lower()
        if scheme not in SCHEMES:
            raise InvalidConfig(f"scheme must be one of {SCHEMES}, got {self.scheme!r}")
        stud = str(self.studentization).lower()
        if stud not in STUDENTIZATIONS:
            raise InvalidConfig(
                f"studentization must be one of {STUDENTIZATIONS}, got {self.studentization!r}"
            )
        object.__setattr__(self, "scheme", scheme)
        object.__setattr__(self, "studentization", stud)

    @property
    def label(self) -> str:
        return f"{self.scheme}:{self.studentization}"


class _Projection:
    """Precomputed pieces of the fit of y on (1, Z, X)."""

    def __init__(self, data: Dataset):
        if data.j < 1:
            raise DimensionMismatch("these schemes need at least one covariate column")
        n, j = data.n, data.j
        if n <= j + 2:
            raise InvariantViolation(f"need N > J + 2, got N={n}, J={j}")
        self.n, self.j = n, j
        self.yc = data.y - data.y.mean()
        _, self.q, self.e = _centered_qr(data.x, self.yc)
        z = data.z.astype(np.float64)
        p1 = data.n1 / n
        self.delta = z - p1 - self.q @ (self.q.T @ z)
        self.ss_delta = float(self.delta @ self.delta)
        if self.ss_delta <= 1e-10 * n * p1 * (1 - p1):
            raise ZeroDenominator("Z is in the span of (1, X)")
        self.c = 1.0 / self.ss_delta
        self.tau_f = self.c * float(self.delta @ self.yc)
        self.eps_f = self.e - self.tau_f * self.delta
        self.sum_e2 = float(self.e @ self.e)
        self.sum_eps2 = float(self.eps_f @ self.eps_f)
        self.delta2 = self.delta * self.delta

    def observed_stat(self, studentization: str) -> float:
        dof = self.n - 2 - self.j
        se2_c = max(self.c * self.sum_e2 - self.tau_f**2, 0.0) / dof
        se2_r = self.c**2 * float(self.delta2 @ self.eps_f**2)
        tau = np.array([self.tau_f])
        if studentization == "none":
            return self.tau_f
        se2 = se2_c if studentization == "classic" else se2_r
        return float(_studentized(tau, np.array([se2]))[0])

    def scheme_vector(self, scheme: str) -> np.ndarray:
        if scheme in ("fl", "kennedy"):
            return self.e
        if scheme == "terbraak":
            return self.eps_f
        return self.yc

    def replicate_forms(self, perms: np.ndarray, scheme: str):
        """(coefficient, classic se^2, robust se^2) for each permutation row."""
        vmat = self.scheme_vector(scheme)[perms]
        shift = self.c * (vmat @ self.delta)
        mu = vmat.mean(axis=1)
        g = vmat @ self.q
        dof_full = self.n - 2 - self.j

        if scheme == "kennedy":
            coef = shift
            se2_c = np.maximum(self.c * self.sum_e2 - coef**2, 0.0) / (self.n - 2)
            eta = vmat - self.delta[None, :] * coef[:, None]
            se2_r = self.c**2 * (eta**2 @ self.delta2)
            return coef, se2_c, se2_r

        # The other three refit the full model on a scheme-specific outcome;
        # only the (I-H)-projected permuted vector enters the forms.
        v_h_v = self.n * mu**2 + np.einsum("ij,ij->i", g, g)
        proj = vmat - mu[:, None] - g @ self.q.T
        if scheme == "fl":
            coef = shift
            resid_ss = self.sum_e2 - v_h_v
        elif scheme == "terbraak":
            coef = self.tau_f + shift
            resid_ss = self.sum_eps2 - v_h_v
        else:  # manly
            coef = shift
            resid_ss = float(self.yc @ self.yc) - v_h_v
        se2_c = np.maximum(self.c * resid_ss - shift**2, 0.0) / dof_full
        eta = proj - self.delta[None, :] * shift[:, None]
        se2_r = self.c**2 * (eta**2 @ self.delta2)
        return coef, se2_c, se2_r

    def replicate_stats(self, perms: np.ndarray, spec: PermLmSpec) -> np.ndarray:
        coef, se2_c, se2_r = self.replicate_forms(perms, spec.scheme)
        center = self.tau_f if spec.scheme == "terbraak" else 0.0
        if spec.studentization == "none":
            return coef - center
        se2 = se2_c if spec.studentization == "classic" else se2_r
        return _studentized(coef - center, se2)


def closed_form_replicates(data: Dataset, permutations: np.ndarray, scheme: str):
    """Replicate coefficient and both SEs from the explicit projection forms.

    `permutations` is an integer (B, N) array of index rows. The ter Braak
    coefficient is returned uncentered. Raises ZeroDenominator when Z lies
    in the span of (1, X).
    """
    scheme = PermLmSpec(scheme).scheme
    perms = np.asarray(permutations, dtype=np.int64)
    if perms.ndim != 2 or perms.shape[1] != data.n:
        raise DimensionMismatch(f"permutations must be (B, {data.n})")
    prep = _Projection(data)
    coef, se2_c, se2_r = prep.replicate_forms(perms, scheme)
    return coef, np.sqrt(np.maximum(se2_c, 0.0)), np.sqrt(np.maximum(se2_r, 0.0))


def refit_replicates(data: Dataset, permutations: np.ndarray, scheme: str):
    """Same quantities as closed_form_replicates, by refitting from scratch."""
    scheme = PermLmSpec(scheme).scheme
    perms = np.asarray(permutations, dtype=np.int64)
    n = data.n
    ones = np.ones(n)
    z = data.z.astype(np.float64)
    full = np.column_stack([ones, z, data.x])
    base = fit_ols(full, data.y)
    e = fit_ols(np.column_stack([ones, data.x]), data.y).residuals
    delta = fit_ols(np.column_stack([ones, data.x]), z).residuals
    eps_f = base.residuals
    fitted_reduced = data.y - e
    fitted_full = data.y - eps_f

    out = np.empty((perms.shape[0], 3))
    for i, perm in enumerate(perms):
        if scheme == "kennedy":
            fit = fit_ols(np.column_stack([ones, delta]), e[perm])
        else:
            if scheme == "fl":
                w = fitted_reduced + e[perm]
            elif scheme == "terbraak":
                w = fitted_full + eps_f[perm]
            else:
                w = data.y[perm]
            fit = fit_ols(full, w)
        out[i] = (
            fit.coefficients[1],
            math.sqrt(max(fit.classic_cov[1, 1], 0.0)),
            math.sqrt(max(fit.robust_cov[1, 1], 0.0)),
        )
    return out[:, 0], out[:, 1], out[:, 2]


def _draw_permutations(n: int, r: int, seed: int) -> np.ndarray:
    """R label shuffles drawn chunk by chunk, one stream per chunk."""
    out = np.empty((r, n), dtype=np.int64)
    for start, stop, rng in _streams(r, seed):
        block = out[start:stop]
        block[:] = np.arange(n)
        rng.permuted(block, axis=1, out=block)
    return out


def perm_lm_p_value(
    data: Dataset,
    spec: PermLmSpec,
    r: int = 1000,
    seed: int = 0,
    *,
    sided: str = "two",
) -> FrtResult:
    """Monte Carlo p-value for one scheme.

    The observed statistic is the treatment coefficient of the full fit,
    studentized as `spec` asks; replicates follow the scheme's permutation
    recipe with label shuffles drawn in fixed chunks, one stream per chunk.
    """
    _check_sided(sided)
    r = _replicate_count(r)
    prep = _Projection(data)
    t_obs = prep.observed_stat(spec.studentization)
    perms = _draw_permutations(data.n, r, int(seed))
    vals = _eval_chunks(lambda chunk: prep.replicate_stats(chunk, spec), perms)
    p = (1 + _count_extreme(vals, t_obs, sided)) / (1 + r)
    mc_se = math.sqrt(p * (1 - p) / r)
    return FrtResult(t_obs, vals, float(p), mc_se, "monte_carlo", int(seed), None, spec, sided)
