"""Dense least-squares kernel with classic and HC0 covariance estimators.

Every regression in the package goes through `fit_ols`, which factors the
design matrix by pivoted QR (never normal equations: centered interaction
designs can be ill-conditioned) and reports both the classic covariance
rss/(N-p) * (X'X)^-1 and the HC0 sandwich (X'X)^-1 X'diag(e_i^2)X (X'X)^-1
with no small-sample scaling.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .errors import DimensionMismatch, RankDeficient, ZeroRegressor

# Relative rank tolerance: a pivot below RANK_TOL times the largest pivot
# marks the column as numerically dependent.
RANK_TOL = 1e-10


@dataclass(frozen=True)
class OlsFit:
    """Result of an OLS fit.

    Attributes
    ----------
    coefficients : (p,) ndarray
        Least-squares coefficients.
    residuals : (N,) ndarray
        y - X @ coefficients.
    rss : float
        Residual sum of squares.
    gram_inverse : (p, p) ndarray
        (X'X)^-1.
    classic_cov : (p, p) ndarray
        rss / (N - p) * (X'X)^-1.
    robust_cov : (p, p) ndarray
        HC0 sandwich, no small-sample scaling.
    dof : int
        N - p.
    """

    coefficients: np.ndarray
    residuals: np.ndarray
    rss: float
    gram_inverse: np.ndarray
    classic_cov: np.ndarray
    robust_cov: np.ndarray
    dof: int


def fit_ols(x: np.ndarray, y: np.ndarray) -> OlsFit:
    """Fit y on the columns of x by least squares.

    Parameters
    ----------
    x : (N, p) array_like
        Design matrix, N > p. Include a column of ones yourself if an
        intercept is wanted.
    y : (N,) array_like
        Response.

    Returns
    -------
    OlsFit

    Raises
    ------
    DimensionMismatch
        If shapes are inconsistent or N <= p.
    RankDeficient
        If the numerical rank is below p (pivoted QR, relative
        tolerance 1e-10 against the largest pivot).
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.ndim != 2:
        raise DimensionMismatch(f"design matrix must be 2D, got ndim={x.ndim}")
    if y.ndim != 1:
        raise DimensionMismatch(f"response must be 1D, got ndim={y.ndim}")
    n, p = x.shape
    if y.shape[0] != n:
        raise DimensionMismatch(f"x has {n} rows but y has {y.shape[0]}")
    if p < 1:
        raise DimensionMismatch("design matrix needs at least one column")
    if n <= p:
        raise DimensionMismatch(f"need more rows than columns, got N={n}, p={p}")
    if not (np.all(np.isfinite(x)) and np.all(np.isfinite(y))):
        raise ValueError("fit_ols requires finite inputs")

    q, r, piv = scipy.linalg.qr(x, mode="economic", pivoting=True)
    pivots = np.abs(np.diag(r))
    if pivots[0] == 0.0 or np.any(pivots <= RANK_TOL * pivots[0]):
        rank = int(np.sum(pivots > RANK_TOL * pivots[0])) if pivots[0] > 0 else 0
        raise RankDeficient(f"design matrix has numerical rank {rank} < {p}")

    beta_piv = scipy.linalg.solve_triangular(r, q.T @ y)
    beta = np.empty(p)
    beta[piv] = beta_piv

    residuals = y - x @ beta
    rss = float(residuals @ residuals)

    r_inv = scipy.linalg.solve_triangular(r, np.eye(p))
    gram_inv_piv = r_inv @ r_inv.T
    gram_inverse = np.empty((p, p))
    gram_inverse[np.ix_(piv, piv)] = gram_inv_piv
    gram_inverse = (gram_inverse + gram_inverse.T) / 2.0

    classic_cov = rss / (n - p) * gram_inverse
    meat = (x * residuals[:, None] ** 2).T @ x
    robust_cov = gram_inverse @ meat @ gram_inverse
    robust_cov = (robust_cov + robust_cov.T) / 2.0

    return OlsFit(
        coefficients=beta,
        residuals=residuals,
        rss=rss,
        gram_inverse=gram_inverse,
        classic_cov=classic_cov,
        robust_cov=robust_cov,
        dof=n - p,
    )


def univariate_ols(u: np.ndarray, v: np.ndarray) -> tuple[float, float, float]:
    """No-intercept OLS of u on a single regressor v.

    Returns
    -------
    (coefficient, classic_se, robust_se)
        coefficient = v'u / ||v||^2; classic se^2 uses the N-1 divisor
        (p = 1 column); robust se^2 = sum(v_i^2 eta_i^2) / ||v||^4 with
        eta = u - v * coefficient.

    Raises
    ------
    ZeroRegressor
        If ||v||^2 = 0.
    DimensionMismatch
        If lengths differ.
    """
    u = np.asarray(u, dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)
    if u.shape != v.shape or u.ndim != 1:
        raise DimensionMismatch("u and v must be 1D vectors of equal length")
    n = u.shape[0]
    if n < 2:
        raise DimensionMismatch("need at least 2 observations")
    vv = float(v @ v)
    if vv == 0.0:
        raise ZeroRegressor("regressor has zero norm")
    tau0 = float(v @ u) / vv
    eta = u - v * tau0
    # ||eta||^2 / ||v||^2 equals ||u||^2/||v||^2 - tau0^2 but cannot go negative.
    classic_se2 = float(eta @ eta) / vv / (n - 1)
    robust_se2 = float((v * eta) @ (v * eta)) / vv**2
    return tau0, float(np.sqrt(classic_se2)), float(np.sqrt(robust_se2))
