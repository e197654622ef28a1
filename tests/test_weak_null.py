"""Exact size of the randomization test under the weak null, complete design.

Under the weak null only the average effect is zero, so the observed
outcomes, and with them every replicate, change with the observed
assignment. Enumerating every observed assignment against the whole space
gives each one's exact p-value, and P(p <= alpha) over the design is a
number with no Monte Carlo noise. The population was fixed before its sizes
were computed: 14 units, 4 treated, one covariate, and heteroskedastic unit
effects centred to a zero average. Each robust-t statistic comes closer to
alpha than its unstudentized and classic counterparts, which is the paper's
claim. With 4 treated units only the unadjusted robust-t holds the level;
the adjusted ones still over-reject.
"""

import numpy as np

from randtest import ALL_SPECS, CompleteDesign, Dataset, frt_p_value
from randtest._batch import make_evaluator, stat_matrix
from randtest.engine import _count_extreme, _p_value, exhaustive_assignments
from conftest import gen

N, N1, ALPHA = 14, 4, 0.05
# Assignments out of C(14, 4) = 1001 whose two-sided exact p-value is <= 0.05
REJECTIONS = {
    "n:none": 133, "n:classic": 133, "n:robust": 50,
    "r:none": 199, "r:classic": 199, "r:robust": 82,
    "f:none": 171, "f:classic": 193, "f:robust": 107,
    "l:none": 192, "l:classic": 257, "l:robust": 128,
}


def _population():
    rng = gen(14)
    x = rng.normal(size=(N, 1))
    y0 = x[:, 0] + 0.5 * rng.normal(size=N)
    effect = 2.0 * (1.0 + np.abs(x[:, 0])) * rng.normal(size=N)
    return y0 + effect - effect.mean(), y0, x


def test_weak_null_exact_size_complete():
    y1, y0, x = _population()
    design = CompleteDesign(N, N1)
    zmat = exhaustive_assignments(design)
    m = zmat.shape[0]
    # p[k, s]: the p-value of statistic s when assignment k is observed
    p = np.empty((m, len(ALL_SPECS)))
    for k in range(m):
        vals = stat_matrix(make_evaluator(np.where(zmat[k] == 1, y1, y0), x), zmat, ALL_SPECS)
        p[k] = _p_value(_count_extreme(vals, vals[k], "two"), m, True)
    size = dict(zip((s.label for s in ALL_SPECS), np.mean(p <= ALPHA, axis=0)))
    for label, count in REJECTIONS.items():
        assert abs(size[label] - count / m) < 1e-12, label
    for adjustment in "nrfl":
        robust = abs(size[f"{adjustment}:robust"] - ALPHA)
        assert robust < abs(size[f"{adjustment}:none"] - ALPHA)
        assert robust < abs(size[f"{adjustment}:classic"] - ALPHA)
    # the public exact test agrees on two observed assignments
    for k in (0, m // 2):
        z = zmat[k].astype(np.int64)
        data = Dataset(np.where(z == 1, y1, y0), z, x)
        results = [frt_p_value(data, spec, design, exact=True).p_value for spec in ALL_SPECS]
        np.testing.assert_array_equal(results, p[k])
