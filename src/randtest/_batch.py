"""Vectorized evaluation of the test statistics over assignment batches.

The public estimators in `estimators` refit regressions per call; that is the
reference implementation, and tests pin every path here against it. The
engine instead evaluates each statistic over thousands of assignments at
once, from sums over each assignment's arms:

- `n` and `r`: per-arm sums of the values and of their squares;
- `f` and `l`: one product `zmat @ F` per block of rows, which they share.
  With q an orthonormal basis of the centered X, e the residual of y on
  (1, X), u = (1, sqrt(N) q) and v = (u, e), F's columns are the products of
  up to four entries of v; the control arm's sums are the totals minus the
  treated ones. `f` is Z'e / Z'(I-H)Z, H projecting onto (1, X). `l` is the
  difference of the arms' intercepts in fits of e on u (e and q in place of y
  and X move only the slopes): c, w = G^-1 (b, e0) with G = sum z u u',
  b = sum z e u, RSS = sum z e^2 - c'b and classic covariance rss/(N-p) times
  w0 summed over arms. Each HC0 numerator sums ((a'v)(b'v))^2 over an arm, a
  quadratic form in v's pair products; rows whose form cancels past its
  accuracy (few residual degrees of freedom at high leverage) sum over units.
"""

from __future__ import annotations

import functools

import numpy as np

from .errors import DegenerateArm, DimensionMismatch, InvalidSizes, RankDeficient
from .estimators import StatisticSpec
from .linalg import column_scale

_QR_TOL = 1e-10
_PIVOT_TOL = 1e-12  # a Gram pivot this small against its diagonal entry is rounding noise


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
    """(q, e): an orthonormal basis of the centered covariates' span and the
    residual of the centered outcome `yc` on (1, X); RankDeficient if collinear.
    As in `fit_ols`, the rank test sees each column in the units `column_scale`
    takes from the raw column, so a constant's centering residue stays tiny,
    and the intercept's norm sqrt(N) joins the largest pivot."""
    xc = x - x.mean(axis=0)
    q, r = np.linalg.qr(xc / column_scale(x))
    pivots = np.abs(np.diag(r))
    if pivots.size and pivots.min() <= _QR_TOL * max(pivots.max(), np.sqrt(len(x))):
        raise RankDeficient("centered covariates are collinear")
    # y's mean is already out; project out the basis
    return q, yc - q @ (q.T @ yc)


def _solve_batch(mats: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """(k, m, B) solutions of the small positive-semidefinite systems
    `mats[:, :, i] x = rhs[:, :, i]` by Gauss-Jordan elimination, vectorized
    over i; a member singular to working precision yields NaN, not an error."""
    k = mats.shape[0]
    a = np.concatenate([mats, rhs], axis=1)
    for i in range(k):
        pivot = a[i, i].copy()
        a[i] /= np.where(pivot > _PIVOT_TOL * mats[i, i], pivot, np.nan)
        rest = np.arange(k) != i
        a[rest] -= a[rest, i, None] * a[i]
    return a[:, k:]


# Elements of f's and l's widest temporary per block of rows: cache-sized.
_MOMENT_ELEMENTS = 1 << 17
# Reference-set entries per block of rows, bounding the block's float64 copy.
_ROW_ELEMENTS = 4_000_000
# An HC0 form whose terms exceed its value by this factor is summed over units.
_CANCEL = 1e6


@functools.cache
def _moment_layout(j: int):
    """The read-only index tables of f's and l's moments, which depend on J alone."""
    # v = (u, e); the pairs (i <= j) of v's entries leave out (e, e), which
    # no HC0 form weights, and the quads are the pairs of pairs
    k = j + 1
    pairs = np.array([(a, b) for a in range(k) for b in range(a, k + 1)]).T
    quads = np.array(np.triu_indices(pairs.shape[1]))
    half = np.where(pairs[0] == pairs[1], 0.5, 1.0)[:, None]
    qmult = np.where(quads[0] == quads[1], 1.0, 2.0)[:, None]
    # F's columns: the distinct products of four entries of v (v_0 = 1 pads
    # shorter ones) that a quad, an entry u_a u_b of G, or e v_a names
    terms = np.sort(np.vstack([
        pairs[:, quads].reshape(4, -1).T,
        [(a, b, 0, 0) for a in range(k) for b in range(k)],
        [(a, k, 0, 0) for a in range(k + 1)],
    ]), axis=1)
    codes = terms @ (k + 1) ** np.arange(4)  # a term's entries as base-(k + 1) digits
    _, first, cols = np.unique(codes, return_index=True, return_inverse=True)
    quad_cols, gram_cols, e_cols = np.split(cols, np.cumsum([quads.shape[1], k * k]))
    diag_cols = quad_cols[qmult[:, 0] == 1.0]
    tables = pairs, quads, half, qmult, terms[first], quad_cols, gram_cols, e_cols, diag_cols
    for table in tables:
        table.flags.writeable = False
    return tables


class CompleteEvaluator:
    """All twelve statistics over assignment batches, complete randomization."""

    def __init__(self, y: np.ndarray, x: np.ndarray):
        y = np.asarray(y, dtype=np.float64)
        x = np.asarray(x, dtype=np.float64)
        if x.ndim != 2 or x.shape[0] != y.shape[0]:
            raise DimensionMismatch("y and x must share their first dimension")
        self.n = n = y.shape[0]
        self.j = j = x.shape[1]
        # Center once: means drop out of every estimator, variances gain accuracy.
        self.yc = y - y.mean()
        self.yc2 = self.yc * self.yc
        self.sum_y2 = float(self.yc2.sum())
        if j < 1:
            return
        q, self.e = _centered_qr(x, self.yc)
        self.e2 = self.e * self.e
        self.sum_e2 = float(self.e2.sum())
        self.v = np.column_stack([np.ones(n), np.sqrt(n) * q, self.e])
        (self.pairs, self.quads, self.half, self.qmult, self.terms,
         self.quad_cols, self.gram_cols, self.e_cols, self.diag_cols) = _moment_layout(j)

    @functools.cached_property
    def _f(self):
        """F and its column totals, built on the first f or l evaluation."""
        f_cols = self.v[:, self.terms].prod(axis=2)
        return f_cols, f_cols.sum(axis=0)

    # -- difference in means over values fixed across assignments ----------

    def _two_group(self, zmat, n1, values, values_sq, total_sq):
        n = self.n
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

    # -- per-adjustment triples (tau, classic se^2, robust se^2) ------------

    def triples_n(self, zmat, n1, mom):
        return self._two_group(zmat, n1, self.yc, self.yc2, self.sum_y2)

    def triples_r(self, zmat, n1, mom):
        return self._two_group(zmat, n1, self.e, self.e2, self.sum_e2)

    def _moments(self, zmat):
        """F's column sums over each row's treated arm, then over its control arm."""
        f_cols, f_total = self._f
        treated = f_cols.T @ zmat.T
        return np.concatenate([treated, f_total[:, None] - treated], axis=1)

    def _hc0_sums(self, zmat, mom, a, b):
        """Per row of `zmat`, the sum over both arms of ((a'v)(b'v))^2: `a` and
        `b` hold coefficients on v per column of `mom`, never both on e."""
        (i, j), (p, r) = self.pairs, self.quads
        s = (a[i] * b[j] + a[j] * b[i]) * self.half
        out = np.einsum("ij,ij->j", s[p] * s[r] * self.qmult, mom[self.quad_cols])
        # against a Cauchy-Schwarz bound on the squared sum of |s_p v_p|
        bound = np.einsum("ij,ij->j", np.abs(s), np.sqrt(np.abs(mom[self.diag_cols]))) ** 2
        bad, rows = np.flatnonzero(bound > _CANCEL * out), zmat.shape[0]
        arm = np.abs(zmat[bad % rows] - (bad >= rows)[:, None])
        out[bad] = (arm * ((a[:, bad].T @ self.v.T) * (b[:, bad].T @ self.v.T)) ** 2).sum(axis=1)
        return out[:rows] + out[rows:]

    def triples_f(self, zmat, n1, mom):
        n, j, b = self.n, self.j, zmat.shape[0]
        p1 = n1 / n
        g = mom[self.gram_cols[1 : j + 1], :b] / n  # Hz = u'g
        z_ih_z = n * (p1 * (1 - p1) - np.einsum("ij,ij->j", g, g))
        with np.errstate(divide="ignore", invalid="ignore"):
            tau = mom[self.e_cols[0], :b] / z_ih_z
            se2_classic = np.maximum(self.sum_e2 / z_ih_z - tau**2, 0.0) / (n - 2 - j)
            arm, g2, tau2 = np.repeat([1 - p1, -p1], b), np.hstack([g, g]), np.hstack([tau, tau])
            delta = np.vstack([arm, -g2, np.zeros(2 * b)])
            eta = np.vstack([-tau2 * arm, tau2 * g2, np.ones(2 * b)])
            se2_robust = self._hc0_sums(zmat, mom, delta, eta) / z_ih_z**2
        return tau, se2_classic, se2_robust

    def triples_l(self, zmat, n1, mom):
        n, j, b = self.n, self.j, zmat.shape[0]
        if n1 < j + 2 or n - n1 < j + 2:
            raise DegenerateArm(f"interacted fit needs >= {j + 2} units per arm")
        rhs = np.zeros((j + 1, 2, 2 * b))
        rhs[:, 0], rhs[0, 1] = mom[self.e_cols[:-1]], 1.0
        c, w = _solve_batch(mom[self.gram_cols].reshape(j + 1, j + 1, -1), rhs).transpose(1, 0, 2)
        rss = mom[self.e_cols[-1]] - np.einsum("ij,ij->j", c, rhs[:, 0])
        se2_classic = (rss[:b] + rss[b:]) / (n - 2 - 2 * j) * (w[0, :b] + w[0, b:])
        resid, lever = np.vstack([-c, np.ones(2 * b)]), np.vstack([w, np.zeros(2 * b)])
        return c[0, :b] - c[0, b:], se2_classic, self._hc0_sums(zmat, mom, resid, lever)

    _TRIPLES = {"n": triples_n, "r": triples_r, "f": triples_f, "l": triples_l}

    def triples(self, zmat: np.ndarray, adjustment: str):
        return self.triples_each(zmat, (adjustment,))[adjustment]

    def triples_each(self, zmat: np.ndarray, adjustments) -> dict:
        """Per adjustment, a (3, B) array of tau, classic se^2 and robust se^2.

        The treated count is checked once over all rows. This is the one loop
        over blocks of assignment rows; a replicate's last bits depend on its
        block, so block bounds depend on the shape alone."""
        if zmat.ndim != 2 or zmat.shape[1] != self.n:
            raise DimensionMismatch(f"zmat must be (B, {self.n})")
        if self.j < 1 and set(adjustments) - {"n"}:
            raise DimensionMismatch("this adjustment needs at least one covariate column")
        step = _ROW_ELEMENTS // self.n
        if self.j:
            step = min(step, _MOMENT_ELEMENTS // (2 * self.quad_cols.size))
        step, wide = max(1, step), {"f", "l"} & set(adjustments)
        n1, out = self._n1(zmat), {a: np.empty((3, len(zmat))) for a in adjustments}
        for s in range(0, len(zmat), step):
            block = np.asarray(zmat[s : s + step], dtype=np.float64)
            mom = self._moments(block) if wide else None
            for a, triple in out.items():
                triple[:, s : s + step] = self._TRIPLES[a](self, block, n1, mom)
        return out


class StratifiedEvaluator:
    """Size-weighted per-stratum statistics over assignment batches."""

    def __init__(self, y: np.ndarray, x: np.ndarray, strata: np.ndarray):
        strata = np.asarray(strata, dtype=np.int64)
        self.n = y.shape[0]
        indices = [np.nonzero(strata == k)[0] for k in range(int(strata.max()) + 1)]
        self.weights = np.array([idx.size / self.n for idx in indices])
        self.parts = [CompleteEvaluator(y[idx], x[idx]) for idx in indices]
        # a stratum of consecutive units is read through a view, not a copy
        self.columns = [slice(i[0], i[-1] + 1) if i[-1] - i[0] < i.size else i for i in indices]

    triples = CompleteEvaluator.triples

    def triples_each(self, zmat: np.ndarray, adjustments) -> dict:
        out = {a: np.zeros((3, len(zmat))) for a in adjustments}
        for w, cols, part in zip(self.weights, self.columns, self.parts):
            # one gather of the stratum's uint8 columns serves every adjustment
            for a, triple in part.triples_each(zmat[:, cols], adjustments).items():
                out[a] += np.multiply(triple, [[w], [w**2], [w**2]])
        return out


def make_evaluator(y, x, strata=None):
    return CompleteEvaluator(y, x) if strata is None else StratifiedEvaluator(y, x, strata)


def stat_matrix(evaluator, zmat: np.ndarray, specs: list[StatisticSpec]) -> np.ndarray:
    """(B, len(specs)) statistic values, computing each adjustment once."""
    by_adjustment = evaluator.triples_each(zmat, dict.fromkeys(s.adjustment for s in specs))
    out = np.empty((zmat.shape[0], len(specs)))
    for col, spec in enumerate(specs):
        tau, se2_classic, se2_robust = by_adjustment[spec.adjustment]
        se2 = se2_robust if spec.studentization == "robust" else se2_classic
        out[:, col] = tau if spec.studentization == "none" else _studentized(tau, se2)
    return out
