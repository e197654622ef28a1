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
  quadratic form in v's pair products: a wide pass sums it one pair row at a
  time, a narrow one in one product of all its pair-of-pair terms
  (`_HC0_ELEMENTS`). Rows whose form cancels past its accuracy (few residual
  degrees of freedom at high leverage) sum over units.
  A row has NaN triples where the reference refit finds no fit: under `f`
  where Z'(I-H)Z vanishes against N p1 (1 - p1) (`_SPAN_TOL`), under `l`
  where an arm's Gram system is singular (`_solve_batch`).

An evaluator can serve several outcomes that share X (and the strata), as
the interval inversion's shifted outcomes Y - cZ do. Each block of rows is
then cast and multiplied once for all of them: the first outcome owns all of
F's columns, in the order one outcome has, and each further outcome appends
only the columns that carry its e, so the u-only sums (G and z'(I-H)z) are
shared, and `l` solves each row's Gram systems once for every outcome's
right-hand side. With one outcome F and the blocks are as they would be alone.

Stratified data are scored in grouped passes; a complete design is the
one-stratum case. Each stratum keeps its own blocks of rows, sized by its N_k
and J alone, and forms its own product `F_k' z_k'` per block from its units
in row-major order, so its moments are those it would have alone, wherever
its units sit. The blocks of a group of consecutive strata are then stacked
side by side, each column carrying its stratum's constants (N_k, N_k1, sums,
weight), and every later step runs once per group: the two-group sums, the
Gram solves, the HC0 forms and the weighted combine. A group grows while its
stacked width fits a cache-sized budget, and the weighted triples are summed
in stratum order. A group's units are read once, through a view when they are
already in stratum order, else by one C-order take; that read gives both the
treated counts, checked before the group's first pass, and every row block.
"""

from __future__ import annotations

import functools

import numpy as np

from .errors import DegenerateArm, DimensionMismatch, InvalidSizes, RankDeficient
from .estimators import StatisticSpec
from .linalg import RANK_TOL, column_scale

_PIVOT_TOL = 1e-12  # a Gram pivot this small against its diagonal entry is rounding noise
# Z lies in the span of (1, X), and has no fit, where z'(I-H)z is at most this
# share of its value N p1 (1 - p1) without covariates.
_SPAN_TOL = 1e-10


def _studentized(tau: np.ndarray, se2: np.ndarray) -> np.ndarray:
    se2 = np.maximum(se2, 0.0)
    se = np.sqrt(se2)
    with np.errstate(divide="ignore", invalid="ignore"):
        t = tau / se
    bad = se == 0.0
    if np.any(bad):
        t[bad] = np.where(tau[bad] == 0.0, 0.0, np.copysign(np.inf, tau[bad]))
    return t


def _statistic(triple, studentization: str) -> np.ndarray:
    """The statistic of a (tau, classic se^2, robust se^2) triple of arrays;
    `estimators.studentize` is the reference for one triple of SEs."""
    tau, se2_classic, se2_robust = triple
    if studentization == "none":
        return tau
    return _studentized(tau, se2_robust if studentization == "robust" else se2_classic)


def _centered_qr(x: np.ndarray, *ycs: np.ndarray):
    """(q, e, ...): an orthonormal basis of the centered covariates' span and
    the residual on (1, X) of each centered outcome in `ycs`; RankDeficient if
    collinear. As in `fit_ols`, the rank test sees each column in the units
    `column_scale` takes from the raw column, so a constant's centering residue
    stays tiny, and the intercept's norm sqrt(N) joins the largest pivot."""
    xc = x - x.mean(axis=0)
    q, r = np.linalg.qr(xc / column_scale(x))
    pivots = np.abs(np.diag(r))
    if pivots.size and pivots.min() <= RANK_TOL * max(pivots.max(), np.sqrt(len(x))):
        raise RankDeficient("centered covariates are collinear")
    # y's mean is already out; project out the basis
    return (q, *(yc - q @ (q.T @ yc) for yc in ycs))


def _solve_batch(mats: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """(k, m, B) solutions of the small positive-semidefinite systems
    `mats[:, :, i] x = rhs[:, :, i]` by Gauss-Jordan elimination, vectorized
    over i; a member singular to working precision yields NaN, not an error."""
    k = mats.shape[0]
    a = np.concatenate([mats, rhs], axis=1)
    for i in range(k):
        pivot = a[i, i].copy()
        a[i] /= np.where(pivot > _PIVOT_TOL * mats[i, i], pivot, np.nan)
        for j in range(k):
            if j != i:
                a[j] -= a[j, i] * a[i]
    return a[:, k:]


# Elements of f's and l's widest temporary per block of rows, and of the
# treated counts' int32 copy: cache-sized.
_MOMENT_ELEMENTS = 1 << 17
# Elements of the widest temporary of one pass over a group of strata.
_PASS_ELEMENTS = 1 << 18
# Reference-set entries per block of rows, bounding the block's float64 copy.
_ROW_ELEMENTS = 4_000_000
# An HC0 form whose terms exceed its value by this factor is summed over units.
_CANCEL = 1e6
# A pass whose HC0 quad products per stratum would exceed this many elements
# sums its quads one pair row at a time (`_row_quad_sums`). A narrower pass
# forms them in one product: the row loop's many small temporaries made the
# heap trim and regrow between the narrow passes of an interval inversion,
# and the page faults cost more than the loop saved.
_HC0_ELEMENTS = 1 << 16


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
    e_terms = np.flatnonzero(terms[first, -1] == k)  # the columns that carry e
    tables = (pairs, quads, half, qmult, terms[first], quad_cols, gram_cols, e_cols, diag_cols,
              e_terms)
    for table in tables:
        table.flags.writeable = False
    return tables


def _row_quad_sums(s: np.ndarray, mom: np.ndarray, quad_cols, qmult) -> np.ndarray:
    """Per column, the sum over quads q of qmult_q s[q0] s[q1] mom[quad_cols[q]],
    one pair row r at a time: the quads come in row order (q0 = r, q1 >= r),
    so row r's sum takes s[r:] and is then scaled by s[r], and the (quads,
    columns) products are never formed."""
    out = np.zeros(s.shape[1])
    start = 0
    for r in range(len(s)):
        at = slice(start, start + len(s) - r)
        inner = np.einsum("ij,ij->j", s[r:] * qmult[at], mom[quad_cols[at]])
        inner *= s[r]
        out += inner
        start = at.stop
    return out


class _Outcome:
    """One outcome's assignment-free sums over a stratum's units, and with
    covariates its residual e on (1, X) and v = (u, e)."""

    def __init__(self, yc: np.ndarray):
        self.yc, self.yc2 = yc, yc * yc
        self.sum_y2 = float(self.yc2.sum())

    def fit(self, q: np.ndarray, e: np.ndarray):
        n = e.size
        self.e, self.e2 = e, e * e
        self.sum_e2 = float(self.e2.sum())
        self.v = np.column_stack([np.ones(n), np.sqrt(n) * q, e])


class _Stratum:
    """One stratum: its slice `units` of all units in stratum order, its
    share `weight` of all units and its outcomes' sums over its own units."""

    def __init__(self, ys: np.ndarray, x: np.ndarray, units: slice, weight: float):
        self.units, self.n, self.j, self.weight = units, x.shape[0], x.shape[1], weight
        # Center once: means drop out of every estimator, variances gain accuracy.
        ycs = [row - row.mean() for row in ys]
        self.outcomes = [_Outcome(yc) for yc in ycs]
        if self.j:
            q, *es = _centered_qr(x, *ycs)
            for outcome, e in zip(self.outcomes, es):
                outcome.fit(q, e)

    @functools.cached_property
    def _f(self):
        """F and its column totals, built on the first f or l evaluation:
        outcome 0 owns all of F's columns, and each further one appends its
        own e-bearing columns and shares the u-only ones (G and z'(I-H)z)."""
        *_, terms, _, _, _, _, e_terms = _moment_layout(self.j)
        first, *rest = self.outcomes
        f_cols = first.v[:, terms].prod(axis=2)
        if rest:
            f_cols = np.hstack([f_cols] + [o.v[:, terms[e_terms]].prod(axis=2) for o in rest])
        return f_cols, f_cols.sum(axis=0)

    def moments(self, block: np.ndarray) -> np.ndarray:
        """F's column sums over each row's treated arm."""
        return self._f[0].T @ block.T

    def n1(self, sums: np.ndarray, least: int) -> int:
        """The treated count that every assignment row shares, given each
        row's count `sums` in this stratum; each arm must hold `least` units."""
        if sums.size and np.any(sums != sums[0]):
            raise InvalidSizes("assignment rows treat different numbers of units")
        n1 = int(sums[0]) if sums.size else 0
        if n1 < 2 or self.n - n1 < 2:
            raise DegenerateArm(f"each arm needs >= 2 units, got N1={n1}")
        if n1 < least or self.n - n1 < least:
            raise DegenerateArm(
                f"interacted fit needs >= {least} units per arm, got N1={n1}, N0={self.n - n1}"
            )
        return n1


class _Pass:
    """One block of rows of a group of strata, scored at once: the strata's
    columns side by side, stratum i's rows at [i * rows, (i + 1) * rows).
    Each column carries its stratum's constants from `table` (see
    `StratifiedEvaluator._constants`); `mom` holds F's sums over the treated
    arms, then over the control arms."""

    def __init__(self, ev, parts, table, blocks, adjustments):
        self.parts, self.blocks = parts, blocks
        self.rows = rows = len(blocks[0])
        self.cols = rows * len(parts)
        consts = np.repeat(table, rows, axis=1)
        self.n, self.arms, self.weights = consts[0], consts[1:7], consts[7:10]
        self.n1, self.sum_y2, self.sum_e2 = consts[1], consts[10 : 10 + ev.k], consts[10 + ev.k :]
        self.sums = {a: np.empty((2, ev.k, self.cols)) for a in "nr" if a in adjustments}
        wide = {"f", "l"} & set(adjustments)
        if wide:
            self.mom = np.empty((ev.width, 2 * self.cols))
        # one float64 cast of each stratum's block serves every adjustment
        for i, (part, block) in enumerate(zip(parts, blocks)):
            block = np.asarray(block, dtype=np.float64)
            at = slice(i * rows, (i + 1) * rows)
            for a, sums in self.sums.items():
                for k, o in enumerate(part.outcomes):
                    values, squares = (o.yc, o.yc2) if a == "n" else (o.e, o.e2)
                    sums[0, k, at], sums[1, k, at] = block @ values, block @ squares
            if wide:
                treated = part.moments(block)
                self.mom[:, at] = treated
                control = slice(self.cols + at.start, self.cols + at.stop)
                self.mom[:, control] = part._f[1][:, None] - treated


def _two_group(s1, ss1, total_sq, arms):
    """(K, 3, C) difference-in-means triples from each column's treated sums
    of the values and of their squares; `arms` as in `_Pass`: per column
    N_k1, N_k0 and the classic and robust weights of the arms' variances."""
    n1, n0, c1, c0, r1, r0 = arms
    mean1 = s1 / n1
    mean0 = -s1 / n0  # values are centered: total sum is 0
    tau = mean1 - mean0
    var1 = np.maximum(ss1 - n1 * mean1**2, 0.0) / (n1 - 1)
    var0 = np.maximum((total_sq - ss1) - n0 * mean0**2, 0.0) / (n0 - 1)
    se2_classic = c1 * var1 + c0 * var0
    se2_robust = r1 * var1 + r0 * var0
    return np.stack([tau, se2_classic, se2_robust], axis=1)


class StratifiedEvaluator:
    """Size-weighted per-stratum statistics over assignment batches.

    `y` is one outcome (N,) or K outcomes (K, N) that share X and the strata;
    each block of rows then serves all K, and every triple gains a leading
    axis of K."""

    def __init__(self, y: np.ndarray, x: np.ndarray, strata: np.ndarray):
        y = np.asarray(y, dtype=np.float64)
        x = np.asarray(x, dtype=np.float64)
        strata = np.asarray(strata, dtype=np.int64)
        if y.shape[-1:] != strata.shape:
            raise DimensionMismatch("y and strata must share their units")
        if x.ndim != 2 or y.ndim not in (1, 2) or x.shape[0] != y.shape[-1]:
            raise DimensionMismatch("y and x must share their units")
        self.shape, self.n, self.j = y.shape[:-1], y.shape[-1], x.shape[1]
        ys = y.reshape(-1, self.n)
        self.k = len(ys)
        # the units in stratum order, None when they already are; each
        # stratum holds its slice of it
        order = np.argsort(strata, kind="stable")
        self.order = None if np.all(np.diff(strata) >= 0) else order
        self.parts, start = [], 0
        for size in np.bincount(strata).tolist():
            idx = order[start : start + size]
            self.parts.append(_Stratum(ys[:, idx], x[idx], slice(start, start + size), size / self.n))
            start += size
        if self.j < 1:
            return
        (self.pairs, self.quads, self.half, self.qmult, terms, quad_cols, self.gram_cols,
         e_cols, diag_cols, e_terms) = _moment_layout(self.j)
        # where each outcome's columns of F sit: outcome 0 owns all of them,
        # each further one appends its e-bearing columns
        width, extra = terms.shape[0], e_terms.size
        self.width = width + (self.k - 1) * extra
        self.tables = [(quad_cols, e_cols, diag_cols)]
        for i in range(1, self.k):
            cols = np.arange(width)
            cols[e_terms] = width + (i - 1) * extra + np.arange(extra)
            self.tables.append(tuple(cols[t] for t in (quad_cols, e_cols, diag_cols)))

    def _constants(self, parts, n1s) -> np.ndarray:
        """One column per stratum of a group: N_k; N_k1, N_k0 and the classic
        and robust weights of the arms' variances in the difference in
        means' se^2, as in `estimators`; the weights w, w^2 and w^2 of its
        triples; per outcome the sum of y^2, then per outcome that of e^2."""
        table = []
        for part, n1 in zip(parts, n1s):
            n, n0, w = part.n, part.n - n1, part.weight
            table.append([n, n1, n0, n * (n1 - 1) / ((n - 2) * n1 * n0),
                          n * (n0 - 1) / ((n - 2) * n1 * n0), (n1 - 1) / n1**2, (n0 - 1) / n0**2,
                          w, w**2, w**2, *(o.sum_y2 for o in part.outcomes),
                          *(o.sum_e2 for o in part.outcomes if self.j)])
        return np.array(table, dtype=np.float64).T

    def _groups(self, rows: int):
        """(strata, block rows) per group of consecutive strata that share
        their row blocks and whose stacked pass fits _PASS_ELEMENTS.

        A stratum's row blocks, and with them its replicates' last bits,
        depend on its N_k, J and K alone. The widest temporary per row counts
        every outcome: with covariates F's sums over both arms (2 * width,
        which grows with K) or one outcome's HC0 pair products (2 * quads,
        the wider at K = 1); without, the (K, 3) triples. One outcome's
        triples are narrower than the block's float64 copy (N_k >= 4 per
        row), which _ROW_ELEMENTS bounds, so they meet _MOMENT_ELEMENTS only
        from K = 2."""
        per_row = 2 * max(self.quads.shape[1], self.width) if self.j else 3 * self.k
        groups = []
        for part in self.parts:
            step = _ROW_ELEMENTS // part.n
            if self.j or self.k > 1:
                step = min(step, _MOMENT_ELEMENTS // per_row)
            step = max(1, min(step, rows))
            group, shared = groups[-1] if groups else ([], None)
            if shared == step and (len(group) + 1) * step * per_row <= _PASS_ELEMENTS:
                group.append(part)
            else:
                groups.append(([part], step))
        return groups

    # -- per-adjustment (K, 3, C) triples (tau, classic se^2, robust se^2) --

    def triples_n(self, p: _Pass):
        return _two_group(*p.sums["n"], p.sum_y2, p.arms)

    def triples_r(self, p: _Pass):
        return _two_group(*p.sums["r"], p.sum_e2, p.arms)

    def _hc0_sums(self, p: _Pass, i: int, a, b):
        """Per column of the pass, the sum over both arms of ((a'v)(b'v))^2
        for outcome i: `a` and `b` hold coefficients on v per column of
        `p.mom`, never both on e."""
        quad_cols, _, diag_cols = self.tables[i]
        (i0, j0), (q0, q1) = self.pairs, self.quads
        s = (a[i0] * b[j0] + a[j0] * b[i0]) * self.half
        # the rule reads a stratum's block rows, so grouping moves no bit
        if 2 * q0.size * p.rows > _HC0_ELEMENTS:
            out = _row_quad_sums(s, p.mom, quad_cols, self.qmult)
        else:
            out = np.einsum("ij,ij->j", s[q0] * s[q1] * self.qmult, p.mom[quad_cols])
        # against a Cauchy-Schwarz bound on the squared sum of |s_p v_p|
        bound = np.einsum("ij,ij->j", np.abs(s), np.sqrt(np.abs(p.mom[diag_cols]))) ** 2
        bad = np.flatnonzero(bound > _CANCEL * out)
        # a cancelled column sums over its own stratum's units in its arm
        stratum, row = np.divmod(bad % p.cols, p.rows)
        for k in np.unique(stratum):
            cols, v = bad[stratum == k], p.parts[k].outcomes[i].v
            block = np.asarray(p.blocks[k][row[stratum == k]], dtype=np.float64)
            arm = np.abs(block - (cols >= p.cols)[:, None])
            out[cols] = (arm * ((a[:, cols].T @ v.T) * (b[:, cols].T @ v.T)) ** 2).sum(axis=1)
        return out[: p.cols] + out[p.cols :]

    def triples_f(self, p: _Pass):
        n, n1, j, c, mom = p.n, p.n1, self.j, p.cols, p.mom
        p1 = n1 / n
        g = mom[self.gram_cols[1 : j + 1], :c] / n  # Hz = u'g
        z_ih_z = n * (p1 * (1 - p1) - np.einsum("ij,ij->j", g, g))
        z_ih_z[z_ih_z <= _SPAN_TOL * n * p1 * (1 - p1)] = np.nan  # no fit, as in the refit
        arm, g2 = np.concatenate([1 - p1, -p1]), np.hstack([g, g])
        delta = np.vstack([arm, -g2, np.zeros(2 * c)])
        out = np.empty((self.k, 3, c))
        with np.errstate(divide="ignore", invalid="ignore"):
            for i, (_, e_cols, _) in enumerate(self.tables):
                tau = mom[e_cols[0], :c] / z_ih_z
                se2_classic = np.maximum(p.sum_e2[i] / z_ih_z - tau**2, 0.0) / (n - 2 - j)
                tau2 = np.hstack([tau, tau])
                eta = np.vstack([-tau2 * arm, tau2 * g2, np.ones(2 * c)])
                out[i] = tau, se2_classic, self._hc0_sums(p, i, delta, eta) / z_ih_z**2
        return out

    def triples_l(self, p: _Pass):
        n, j, c, k, mom = p.n, self.j, p.cols, self.k, p.mom
        # one solve of each Gram system G (c_i, w) = (b_i, e0) for all outcomes i
        rhs = np.zeros((j + 1, k + 1, 2 * c))
        for i, (_, e_cols, _) in enumerate(self.tables):
            rhs[:, i] = mom[e_cols[:-1]]
        rhs[0, k] = 1.0
        sol = _solve_batch(mom[self.gram_cols].reshape(j + 1, j + 1, -1), rhs)
        w = sol[:, k]
        lever, w0 = np.vstack([w, np.zeros(2 * c)]), w[0, :c] + w[0, c:]
        out = np.empty((k, 3, c))
        for i, (_, e_cols, _) in enumerate(self.tables):
            coef = sol[:, i]
            rss = mom[e_cols[-1]] - np.einsum("ij,ij->j", coef, rhs[:, i])
            se2_classic = (rss[:c] + rss[c:]) / (n - 2 - 2 * j) * w0
            resid = np.vstack([-coef, np.ones(2 * c)])
            out[i] = coef[0, :c] - coef[0, c:], se2_classic, self._hc0_sums(p, i, resid, lever)
        return out

    _TRIPLES = {"n": triples_n, "r": triples_r, "f": triples_f, "l": triples_l}

    def triples(self, zmat: np.ndarray, adjustment: str):
        return self.triples_each(zmat, (adjustment,))[adjustment]

    def triples_each(self, zmat: np.ndarray, adjustments) -> dict:
        """Per adjustment, a (3, B) array of tau, classic se^2 and robust se^2,
        (K, 3, B) for K outcomes.

        Each group of strata is read once for its treated counts, checked
        over all rows before its first pass, and for its blocks of rows:
        each stratum's block is cast to float64 once and serves every
        adjustment and outcome, and the strata of a group are scored in one
        pass. The weighted triples are summed in stratum order."""
        if zmat.ndim != 2 or zmat.shape[1] != self.n:
            raise DimensionMismatch(f"zmat must be (B, {self.n})")
        if self.j < 1 and set(adjustments) - {"n"}:
            raise DimensionMismatch("this adjustment needs at least one covariate column")
        least = self.j + 2 if "l" in adjustments else 2
        # -0.0 is the identity of +, so a lone stratum's triples pass unchanged
        out = {a: np.full((self.k, 3, len(zmat)), -0.0) for a in adjustments}
        for parts, step in self._groups(len(zmat)):
            lo, hi = parts[0].units.start, parts[-1].units.stop
            # the group's units of every row in stratum order, in C order
            group = zmat[:, lo:hi] if self.order is None else np.take(zmat, self.order[lo:hi], axis=1)
            cols = [slice(part.units.start - lo, part.units.stop - lo) for part in parts]
            counts = np.empty((len(zmat), len(parts)), dtype=np.int32)
            # the reduction casts its rows to int32: no more of them than a
            # pass takes, and a cache-sized copy
            rows = max(1, min(step, _MOMENT_ELEMENTS // (hi - lo)))
            for s in range(0, len(zmat), rows):
                np.add.reduceat(group[s : s + rows], [c.start for c in cols], axis=1,
                                dtype=np.int32, out=counts[s : s + rows])
            table = self._constants(parts, [part.n1(c, least) for part, c in zip(parts, counts.T)])
            for s in range(0, len(zmat), step):
                p = _Pass(self, parts, table, [group[s : s + step, c] for c in cols], out)
                for a, triples in out.items():
                    weighted = self._TRIPLES[a](self, p)
                    weighted *= p.weights
                    for i in range(len(parts)):
                        triples[:, :, s : s + step] += weighted[:, :, i * p.rows : (i + 1) * p.rows]
        return {a: triples.reshape(self.shape + triples.shape[1:]) for a, triples in out.items()}


class CompleteEvaluator(StratifiedEvaluator):
    """All twelve statistics over assignment batches, complete randomization:
    the one-stratum case."""

    def __init__(self, y: np.ndarray, x: np.ndarray):
        super().__init__(y, x, np.zeros(np.shape(y)[-1:], dtype=np.int64))


def make_evaluator(y, x, strata=None):
    return CompleteEvaluator(y, x) if strata is None else StratifiedEvaluator(y, x, strata)


def stat_matrix(evaluator, zmat: np.ndarray, specs: list[StatisticSpec]):
    """(B, len(specs)) statistic values, computing each adjustment once, and
    per adjustment the (tau, classic se^2, robust se^2) triple of row 0."""
    by_adjustment = evaluator.triples_each(zmat, dict.fromkeys(s.adjustment for s in specs))
    out = np.empty((zmat.shape[0], len(specs)))
    for col, spec in enumerate(specs):
        out[:, col] = _statistic(by_adjustment[spec.adjustment], spec.studentization)
    return out, {a: triples[..., 0] for a, triples in by_adjustment.items()}
