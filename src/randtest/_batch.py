"""Vectorized evaluation of the test statistics over assignment batches.

The public estimators in `estimators` refit regressions per call; that is the
reference implementation. The randomization engine instead evaluates each
statistic over thousands of assignment vectors at once, using the moment
algebra below:

- difference in means and its SEs from per-arm sums of values and squares;
- the ANCOVA coefficient through the projection identity
  tau_f = Z'(I-H)y / Z'(I-H)Z with H the projection onto (1, X), so only
  Z-dependent pieces are recomputed per assignment;
- the interacted fit through its equivalence with separate per-arm
  regressions of the outcome on (1, Xc): the treatment coefficient is the
  difference of arm intercepts, the classic covariance is rss/(N-p) times
  the sum of the arms' inverse-Gram corner entries, and the HC0 covariance
  splits into per-arm sandwiches because the block design is arm-separable.

Tests pin every path against the reference implementation.
"""

from __future__ import annotations

import numpy as np

from .errors import DegenerateArm, DimensionMismatch, InvalidSizes, RankDeficient
from .estimators import StatisticSpec

_QR_TOL = 1e-10


def _studentized(tau: np.ndarray, se2: np.ndarray) -> np.ndarray:
    se2 = np.maximum(se2, 0.0)
    se = np.sqrt(se2)
    with np.errstate(divide="ignore", invalid="ignore"):
        t = tau / se
    bad = se == 0.0
    if np.any(bad):
        t[bad] = np.where(tau[bad] == 0.0, 0.0, np.copysign(np.inf, tau[bad]))
    return t


def _centered_qr(x: np.ndarray, yc: np.ndarray):
    """(xc, q, e): the centered covariates, an orthonormal basis of their
    span, and the residual of the centered outcome `yc` on (1, X).

    Raises RankDeficient when the centered covariates are collinear.
    """
    xc = x - x.mean(axis=0)
    q, r = np.linalg.qr(xc)
    pivots = np.abs(np.diag(r))
    if pivots.size and (pivots.max() == 0.0 or pivots.min() <= _QR_TOL * pivots.max()):
        raise RankDeficient("centered covariates are collinear")
    # y's mean is already out; project out the basis
    return xc, q, yc - q @ (q.T @ yc)


def _solve_batch(mats: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Batched linear solve; singular members yield NaN rows, not errors."""
    try:
        return np.linalg.solve(mats, rhs)
    except np.linalg.LinAlgError:
        out = np.empty_like(rhs)
        for i in range(mats.shape[0]):
            try:
                out[i] = np.linalg.solve(mats[i], rhs[i])
            except np.linalg.LinAlgError:
                out[i] = np.nan
        return out


class CompleteEvaluator:
    """All twelve statistics over assignment batches, complete randomization."""

    def __init__(self, y: np.ndarray, x: np.ndarray):
        y = np.asarray(y, dtype=np.float64)
        x = np.asarray(x, dtype=np.float64)
        if x.ndim != 2 or x.shape[0] != y.shape[0]:
            raise DimensionMismatch("y and x must share their first dimension")
        self.n = y.shape[0]
        self.j = x.shape[1]
        # Center once: means drop out of every estimator, variances gain accuracy.
        self.yc = y - y.mean()
        self.yc2 = self.yc * self.yc
        self.sum_y2 = float(self.yc2.sum())

        if self.j >= 1:
            self.xc, self.q_basis, self.e = _centered_qr(x, self.yc)
            self.e2 = self.e * self.e
            self.sum_e2 = float(self.e2.sum())
            self.sxx = self.xc.T @ self.xc
            self.sxy = self.xc.T @ self.yc
            self.xy = self.xc * self.yc[:, None]
            self.xxf = np.einsum("ij,ik->ijk", self.xc, self.xc).reshape(self.n, self.j * self.j)
            self.sxxf = self.xxf.sum(axis=0)
            # Moment block [1 | xc | vec(xc xc')] for residual-weighted sums.
            self.wblock = np.column_stack([np.ones(self.n), self.xc, self.xxf])

    # -- difference in means over values fixed across assignments ----------

    def _two_group(self, zmat, values, values_sq, total_sq):
        n = self.n
        n1 = self._n1(zmat)
        n0 = n - n1
        s1 = zmat @ values
        mean1 = s1 / n1
        mean0 = -s1 / n0  # values are centered: total sum is 0
        tau = mean1 - mean0
        ss1 = zmat @ values_sq
        var1 = np.maximum(ss1 - n1 * mean1**2, 0.0) / (n1 - 1)
        var0 = np.maximum((total_sq - ss1) - n0 * mean0**2, 0.0) / (n0 - 1)
        c1 = n * (n1 - 1) / ((n - 2) * n1 * n0)
        c0 = n * (n0 - 1) / ((n - 2) * n1 * n0)
        se2_classic = c1 * var1 + c0 * var0
        se2_robust = (n1 - 1) / n1**2 * var1 + (n0 - 1) / n0**2 * var0
        return tau, se2_classic, se2_robust

    def _n1(self, zmat) -> int:
        sums = zmat.sum(axis=1)
        if sums.size and np.any(sums != sums[0]):
            raise InvalidSizes("assignment rows treat different numbers of units")
        n1 = int(round(float(sums[0]))) if sums.size else 0
        if n1 < 2 or self.n - n1 < 2:
            raise DegenerateArm(f"each arm needs >= 2 units, got N1={n1}")
        return n1

    def _require_covariates(self):
        if self.j < 1:
            raise DimensionMismatch("this adjustment needs at least one covariate column")

    # -- per-adjustment triples (tau, classic se^2, robust se^2) ------------

    def triples_n(self, zmat):
        return self._two_group(zmat, self.yc, self.yc2, self.sum_y2)

    def triples_r(self, zmat):
        self._require_covariates()
        return self._two_group(zmat, self.e, self.e2, self.sum_e2)

    def triples_f(self, zmat):
        self._require_covariates()
        n = self.n
        n1 = self._n1(zmat)
        p1 = n1 / n
        g = zmat @ self.q_basis
        z_ih_z = n * p1 * (1 - p1) - np.einsum("ij,ij->i", g, g)
        num = zmat @ self.e
        with np.errstate(divide="ignore", invalid="ignore"):
            tau = num / z_ih_z
            se2_classic = np.maximum(self.sum_e2 / z_ih_z - tau**2, 0.0) / (n - 2 - self.j)
            delta = zmat - p1 - g @ self.q_basis.T
            eta = self.e[None, :] - delta * tau[:, None]
            se2_robust = np.einsum("ij,ij->i", delta * eta, delta * eta) / z_ih_z**2
        return tau, se2_classic, se2_robust

    def triples_l(self, zmat):
        self._require_covariates()
        n, j = self.n, self.j
        n1 = self._n1(zmat)
        n0 = n - n1
        if n1 < j + 2 or n0 < j + 2:
            raise DegenerateArm(f"interacted fit needs >= {j + 2} units per arm")
        b = zmat.shape[0]

        sx1 = zmat @ self.xc
        sxx1 = (zmat @ self.xxf).reshape(b, j, j)
        sy1 = zmat @ self.yc
        sxy1 = zmat @ self.xy

        def arm_system(n_z, s_x, s_xx, s_y, s_xy):
            mats = np.empty((b, j + 1, j + 1))
            mats[:, 0, 0] = n_z
            mats[:, 0, 1:] = s_x
            mats[:, 1:, 0] = s_x
            mats[:, 1:, 1:] = s_xx
            rhs = np.empty((b, j + 1, 2))
            rhs[:, 0, 0] = s_y
            rhs[:, 1:, 0] = s_xy
            rhs[:, 0, 1] = 1.0
            rhs[:, 1:, 1] = 0.0
            return mats, _solve_batch(mats, rhs)

        mats1, sol1 = arm_system(n1, sx1, sxx1, sy1, sxy1)
        mats0, sol0 = arm_system(n0, -sx1, self.sxx[None] - sxx1, -sy1, self.sxy[None] - sxy1)
        coef1, w1 = sol1[:, :, 0], sol1[:, :, 1]
        coef0, w0 = sol0[:, :, 0], sol0[:, :, 1]
        tau = coef1[:, 0] - coef0[:, 0]

        fit1 = coef1[:, 0:1] + coef1[:, 1:] @ self.xc.T
        fit0 = coef0[:, 0:1] + coef0[:, 1:] @ self.xc.T
        resid = self.yc[None, :] - np.where(zmat > 0.5, fit1, fit0)
        resid2 = resid * resid
        rss = resid2.sum(axis=1)
        dof = n - 2 - 2 * j
        se2_classic = rss / dof * (w1[:, 0] + w0[:, 0])

        m1 = (resid2 * zmat) @ self.wblock
        m0 = resid2 @ self.wblock - m1

        def corner(m_flat, w):
            mats = np.empty((b, j + 1, j + 1))
            mats[:, 0, 0] = m_flat[:, 0]
            mats[:, 0, 1:] = m_flat[:, 1 : 1 + j]
            mats[:, 1:, 0] = m_flat[:, 1 : 1 + j]
            mats[:, 1:, 1:] = m_flat[:, 1 + j :].reshape(b, j, j)
            return np.einsum("bi,bij,bj->b", w, mats, w)

        se2_robust = corner(m1, w1) + corner(m0, w0)
        return tau, se2_classic, se2_robust

    _TRIPLES = {"n": triples_n, "r": triples_r, "f": triples_f, "l": triples_l}

    def triples(self, zmat: np.ndarray, adjustment: str):
        zmat = np.asarray(zmat, dtype=np.float64)
        if zmat.ndim != 2 or zmat.shape[1] != self.n:
            raise DimensionMismatch(f"zmat must be (B, {self.n})")
        return self._TRIPLES[adjustment](self, zmat)


class StratifiedEvaluator:
    """Size-weighted per-stratum statistics over assignment batches."""

    def __init__(self, y: np.ndarray, x: np.ndarray, strata: np.ndarray):
        strata = np.asarray(strata, dtype=np.int64)
        self.n = y.shape[0]
        self.indices = [np.nonzero(strata == k)[0] for k in range(int(strata.max()) + 1)]
        self.weights = np.array([idx.size / self.n for idx in self.indices])
        self.parts = [CompleteEvaluator(y[idx], x[idx]) for idx in self.indices]

    def triples(self, zmat: np.ndarray, adjustment: str):
        zmat = np.asarray(zmat, dtype=np.float64)
        tau = np.zeros(zmat.shape[0])
        se2_classic = np.zeros(zmat.shape[0])
        se2_robust = np.zeros(zmat.shape[0])
        for w, idx, part in zip(self.weights, self.indices, self.parts):
            t_k, c_k, r_k = part.triples(np.ascontiguousarray(zmat[:, idx]), adjustment)
            tau += w * t_k
            se2_classic += w**2 * c_k
            se2_robust += w**2 * r_k
        return tau, se2_classic, se2_robust


def make_evaluator(y, x, strata=None):
    if strata is None:
        return CompleteEvaluator(y, x)
    return StratifiedEvaluator(y, x, strata)


def stat_matrix(evaluator, zmat: np.ndarray, specs: list[StatisticSpec]) -> np.ndarray:
    """(B, len(specs)) statistic values, computing each adjustment once."""
    zmat = np.asarray(zmat, dtype=np.float64)
    by_adjustment = {}
    for spec in specs:
        if spec.adjustment not in by_adjustment:
            by_adjustment[spec.adjustment] = evaluator.triples(zmat, spec.adjustment)
    out = np.empty((zmat.shape[0], len(specs)))
    for col, spec in enumerate(specs):
        tau, se2_c, se2_r = by_adjustment[spec.adjustment]
        if spec.studentization == "none":
            out[:, col] = tau
        elif spec.studentization == "classic":
            out[:, col] = _studentized(tau, se2_c)
        else:
            out[:, col] = _studentized(tau, se2_r)
    return out
