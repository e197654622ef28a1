"""Dense least-squares kernel with classic and HC0 covariance estimators.

Every regression in the package goes through `fit_ols`, which factors the
design matrix by pivoted QR (never normal equations: centered interaction
designs can be ill-conditioned) and reports both the classic covariance
rss/(N-p) * (X'X)^-1 and the HC0 sandwich (X'X)^-1 X'diag(e_i^2)X (X'X)^-1
with no small-sample scaling.

Only the pivoted QR and the one vector solve, which run on the calling
thread, go through `scipy.linalg`; every solve with a matrix right-hand side
goes through `numpy.linalg`. numpy and scipy each bundle their own OpenBLAS
with its own thread pool, and a matrix triangular solve wakes scipy's, whose
threads then spin against numpy's matrix products on the same cores.

`fit_ols` is the reference that the batch evaluators are tested against,
and no runtime path calls it: the engine, `permlm` and every CLI subcommand
take their estimates from the evaluation that scores the test. So
`scipy.linalg` is imported inside `fit_ols`, on its first call, and those
paths run without loading scipy.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, InvariantViolation, RankDeficient

# Relative rank tolerance: a pivot below RANK_TOL times the largest pivot
# marks the column as numerically dependent.
RANK_TOL = 1e-10


def column_scale(x: np.ndarray) -> np.ndarray:
    """Per column of x, the power of two that brings its peak magnitude into
    [1/2, 1) on division (1 for a zero column): an exact change of units."""
    return np.ldexp(1.0, np.frexp(np.abs(x).max(axis=0))[1])


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
    InvariantViolation
        If x or y holds a non-finite value.
    RankDeficient
        If the numerical rank is below p: pivoted QR of the columns scaled
        by powers of two to peak magnitudes in [1/2, 1), so that the relative
        tolerance 1e-10 against the largest pivot ignores their units.
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
        raise InvariantViolation("fit_ols requires finite inputs")

    import scipy.linalg

    # Fit x / scale, mapped back below.
    scale = column_scale(x)
    x = x / scale
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

    r_inv = np.linalg.inv(r)  # bitwise equal to a triangular solve: R needs no pivoting
    gram_inv_piv = r_inv @ r_inv.T
    gram_inverse = np.empty((p, p))
    gram_inverse[np.ix_(piv, piv)] = gram_inv_piv
    gram_inverse = (gram_inverse + gram_inverse.T) / 2.0

    meat = (x * residuals[:, None] ** 2).T @ x
    robust_cov = gram_inverse @ meat @ gram_inverse
    robust_cov = (robust_cov + robust_cov.T) / 2.0
    beta /= scale
    gram_inverse = gram_inverse / scale[:, None] / scale
    robust_cov = robust_cov / scale[:, None] / scale
    classic_cov = rss / (n - p) * gram_inverse

    return OlsFit(
        coefficients=beta,
        residuals=residuals,
        rss=rss,
        gram_inverse=gram_inverse,
        classic_cov=classic_cov,
        robust_cov=robust_cov,
        dof=n - p,
    )
