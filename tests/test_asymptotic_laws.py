"""The reference distributions against the paper's asymptotic laws.

Under complete, stratified and cluster randomization each robust t tends to
N(0, 1) over the randomization distribution, which is what lets the FRT
hold the weak null. Under rerandomization (ReM) the unadjusted t tends
instead to U(rho) = sqrt(1 - rho^2) eps + rho L, with L a coordinate of a
normal vector truncated to the acceptance region (Li, Ding & Rubin 2018),
and adjusting for the ReM covariates brings it back to N(0, 1).

One Kolmogorov-Smirnov test per case at level 1e-3. Every configuration and
seed was fixed before the first measurement, and is not to be re-seeded.
"""

import numpy as np
import pytest
import scipy.stats

from randtest import (
    ClusterDesign,
    CompleteDesign,
    Dataset,
    RerandomizedDesign,
    StatisticSpec,
    StratifiedDesign,
    chi2_quantile,
    sample_U,
)
from randtest.engine import _frt

from conftest import gen

LEVEL = 1e-3
R = 2000
ROBUST = [StatisticSpec(a, "robust") for a in "nrfl"]


def _outcome(rng, x):
    """A linear signal in x plus noise whose scale grows with |x1|."""
    return x @ np.array([1.0, -0.5]) + (0.5 + np.abs(x[:, 0])) * rng.standard_normal(len(x))


def _replicates(data, design, specs, seed):
    """(R, len(specs)) replicate statistics of one reference set."""
    return _frt(data, specs, design, R, seed, False, "two")[1]


def _complete_case():
    rng = gen(3101)
    x = rng.standard_normal((1000, 2))
    z = CompleteDesign(1000, 500).draw_batch(rng, 1)[0]
    return Dataset(_outcome(rng, x), z, x), CompleteDesign(1000, 500)


def _stratified_case():
    rng = gen(3102)
    sizes = ((200, 60), (200, 100), (200, 140), (200, 80), (200, 120))
    strata = np.repeat(np.arange(5), 200)
    design = StratifiedDesign(strata, sizes)
    x = rng.standard_normal((1000, 2)) + strata[:, None] * np.array([0.3, -0.2])
    z = design.draw_batch(rng, 1)[0]
    return Dataset(_outcome(rng, x), z, x, strata=strata), design


def _cluster_case():
    rng = gen(3103)
    clusters = np.repeat(np.arange(400), 5)
    x = rng.standard_normal((2000, 2)) + rng.standard_normal((400, 2))[clusters]
    z = ClusterDesign(400, 200).draw_batch(rng, 1)[0][clusters]
    y = _outcome(rng, x) + rng.standard_normal(400)[clusters]
    return Dataset(y, z, x, clusters=clusters), ClusterDesign(400, 200)


_CASES = {"complete": _complete_case, "stratified": _stratified_case, "cluster": _cluster_case}


@pytest.mark.parametrize("kind", list(_CASES))
def test_robust_t_tends_to_the_standard_normal(kind):
    data, design = _CASES[kind]()
    vals = _replicates(data, design, ROBUST, seed=3200)
    for spec, column in zip(ROBUST, vals.T):
        p = scipy.stats.kstest(column, "norm").pvalue
        assert p > LEVEL, (kind, spec.adjustment, p)


def _rem_case():
    """N = 1000, N1 = 500, J = 2, acceptance a = the 0.1 quantile of chi2_2,
    and rho^2 the finite population's R^2 of y on (1, X)."""
    rng = gen(3104)
    x = rng.standard_normal((1000, 2))
    a = chi2_quantile(0.1, 2)
    design = RerandomizedDesign(CompleteDesign(1000, 500), a, x)
    z = design.draw_batch(rng, 1)[0]
    y = _outcome(rng, x)
    fitted = np.column_stack([np.ones(1000), x]) @ np.linalg.lstsq(
        np.column_stack([np.ones(1000), x]), y, rcond=None
    )[0]
    rho2 = 1 - np.sum((y - fitted) ** 2) / np.sum((y - y.mean()) ** 2)
    return Dataset(y, z, x), design, a, float(np.sqrt(rho2))


def test_rem_unadjusted_t_follows_the_truncated_mixture_not_the_normal():
    data, design, a, rho = _rem_case()
    vals = _replicates(data, design, [StatisticSpec("n", "robust")], seed=3201)[:, 0]
    assert scipy.stats.kstest(vals, "norm").pvalue < LEVEL
    draws = sample_U(rho, 2, a, gen(3202), 20_000)
    assert scipy.stats.ks_2samp(vals, draws).pvalue > LEVEL


def test_rem_adjusted_robust_t_tends_to_the_standard_normal():
    data, design, _, _ = _rem_case()
    adjusted = ROBUST[1:]
    vals = _replicates(data, design, adjusted, seed=3203)
    for spec, column in zip(adjusted, vals.T):
        p = scipy.stats.kstest(column, "norm").pvalue
        assert p > LEVEL, (spec.adjustment, p)
