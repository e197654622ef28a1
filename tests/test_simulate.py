"""Simulation harness: restricted reference constructs, populations, scenarios."""

import math
import os
from dataclasses import replace

import numpy as np
import pytest
import scipy.stats
from hypothesis import given, settings
from hypothesis import strategies as st

from randtest import (
    ALL_SPECS,
    AcceptanceTimeout,
    CompleteDesign,
    BUILTIN_SCENARIOS,
    Dataset,
    InvalidConfig,
    InvariantViolation,
    OutcomeModel,
    RandtestError,
    RerandomizedDesign,
    ScenarioConfig,
    StratifiedDesign,
    UnknownScenario,
    builtin_scenario,
    chi2_cdf,
    chi2_quantile,
    config_from_dict,
    config_to_dict,
    draw,
    frt_p_value,
    make_population,
    p_histogram,
    r_constant,
    run_scenario,
    sample_U,
    sample_truncated_L,
    u_variance,
    worker_count,
)

from conftest import gen


def var_se(d):
    """MC standard error of the sample variance, from the sample itself."""
    d = np.asarray(d)
    s2 = d.var()
    m4 = ((d - d.mean()) ** 4).mean()
    return math.sqrt((m4 - s2**2) / d.shape[0])


# -- r constant --------------------------------------------------------------


def test_r_constant_closed_form_two_dims():
    # chi2 cdf with 2 and 4 dof is elementary: 1-e^{-x/2} and 1-e^{-x/2}(1+x/2).
    # At a = 2 ln 2 the ratio collapses to 1 - ln 2.
    a = 2.0 * math.log(2.0)
    assert r_constant(2, a) == pytest.approx(1.0 - math.log(2.0), abs=1e-12)


def test_r_constant_unconstrained_limit():
    assert r_constant(2, 200.0) == pytest.approx(1.0, abs=1e-10)
    assert r_constant(1, 1e6) == 1.0


def test_r_constant_monotone():
    rs = [r_constant(j, 1.0) for j in range(1, 6)]
    assert all(lo > hi for lo, hi in zip(rs, rs[1:]))  # more dims, tighter
    assert r_constant(2, 0.5) < r_constant(2, 2.0) < r_constant(2, 10.0)
    assert all(0 < r < 1 for r in rs)


def test_r_constant_rejects_bad_args():
    with pytest.raises(InvariantViolation):
        r_constant(0, 1.0)
    with pytest.raises(InvariantViolation):
        r_constant(2, 0.0)
    with pytest.raises(InvariantViolation):
        r_constant(2, -1.0)


def test_chi2_quantile_round_trip():
    for p in (0.05, 0.5, 0.95):
        for k in (1, 2, 7):
            assert chi2_cdf(chi2_quantile(p, k), k) == pytest.approx(p, abs=1e-10)


# -- truncated first coordinate ----------------------------------------------


def test_truncated_draws_stay_inside_ball():
    a = chi2_quantile(0.5, 2)
    d = sample_truncated_L(2, a, gen(11), size=2000)
    assert np.all(d * d <= a)


def test_truncated_moments_match_r():
    a = chi2_quantile(0.05, 1)  # 5 percent acceptance, heavy truncation
    d = sample_truncated_L(1, a, gen(12), size=100_000)
    assert abs(d.mean()) < 3 * d.std() / math.sqrt(d.shape[0])
    assert abs(d.var() - r_constant(1, a)) < 3 * var_se(d)


def test_truncated_variance_unit_when_ball_is_huge():
    d = sample_truncated_L(2, 1e6, gen(13), size=50_000)
    assert abs(d.var() - 1.0) < 3 * var_se(d)


def test_truncated_refuses_hopeless_threshold():
    with pytest.raises(AcceptanceTimeout) as err:
        sample_truncated_L(1, 1e-14, gen(15), size=10)
    assert err.value.acceptance_rate < 1e-6
    assert err.value.tries == 0


# -- the U mixture -----------------------------------------------------------


def test_u_at_rho_zero_is_standard_normal():
    d = sample_U(0.0, 2, chi2_quantile(0.5, 2), gen(21), size=100_000)
    assert scipy.stats.kstest(d, "norm").statistic < 0.02


def test_u_at_rho_one_is_the_truncated_coordinate():
    a = chi2_quantile(0.5, 2)
    d = sample_U(1.0, 2, a, gen(22), size=50_000)
    assert np.all(d * d <= a)  # the normal component has vanished
    assert abs(d.var() - r_constant(2, a)) < 3 * var_se(d)


def test_u_variance_matches_formula():
    a = chi2_quantile(0.5, 2)
    d = sample_U(0.7, 2, a, gen(23), size=100_000)
    assert abs(d.var() - u_variance(0.7, 2, a)) < 3 * var_se(d)


def test_u_variance_endpoints():
    a = chi2_quantile(0.5, 2)
    assert u_variance(0.0, 2, a) == 1.0
    assert u_variance(1.0, 2, a) == pytest.approx(r_constant(2, a), abs=1e-15)


def test_u_rejects_rho_outside_unit_interval():
    rng = gen(24)
    with pytest.raises(InvariantViolation):
        sample_U(1.5, 2, 1.0, rng, size=10)
    with pytest.raises(InvariantViolation):
        sample_U(-0.1, 2, 1.0, rng, size=10)


# -- populations -------------------------------------------------------------


def flat_config(**overrides):
    model = OutcomeModel((0.3, 1.2), 1.0)
    fields = dict(
        name="t", n=50, treated=model, control=model, treated_fraction=0.5,
        reps=1, permutations=1,
    )
    fields.update(overrides)
    return ScenarioConfig(**fields)


def test_centering_subtracts_the_mean_and_nothing_else():
    pop_c = make_population(flat_config(center=True))
    pop_u = make_population(flat_config(center=False))
    assert abs(pop_c.y1.mean()) < 1e-12
    assert abs(pop_c.y0.mean()) < 1e-12
    np.testing.assert_allclose(pop_c.y1, pop_u.y1 - pop_u.y1.mean(), atol=1e-14)
    np.testing.assert_allclose(pop_c.y0, pop_u.y0 - pop_u.y0.mean(), atol=1e-14)


def test_shared_noise_with_equal_models_gives_zero_effects():
    pop = make_population(flat_config(shared_noise=True))
    np.testing.assert_array_equal(pop.y1, pop.y0)


def test_population_designs_by_kind():
    comp = make_population(flat_config())
    assert comp.design == CompleteDesign(50, 25)
    assert comp.strata is None
    assert comp.x.shape == (50, 1)

    rem = make_population(flat_config(design_kind="rem", rem_threshold=2.0))
    assert isinstance(rem.design, RerandomizedDesign)
    assert rem.design.base == CompleteDesign(50, 25)
    assert rem.design.threshold == 2.0
    np.testing.assert_array_equal(rem.design.covariates, rem.x)

    strat = make_population(
        flat_config(n=100, design_kind="stratified", stratum_cutoffs=(-0.3, 0.3),
                    treated_fraction=0.3)
    )
    assert isinstance(strat.design, StratifiedDesign)
    assert strat.strata is not None
    for k, (n_k, n1_k) in enumerate(strat.design.sizes):
        count = int((strat.strata == k).sum())
        assert (n_k, n1_k) == (count, int(0.3 * count))


def test_config_validation():
    with pytest.raises(InvariantViolation):
        flat_config(design_kind="bogus")
    with pytest.raises(InvariantViolation):
        flat_config(design_kind="rem")  # threshold missing
    with pytest.raises(InvariantViolation):
        flat_config(design_kind="rem", rem_threshold="abc")
    with pytest.raises(InvariantViolation):
        flat_config(alpha=1.0)
    with pytest.raises(InvariantViolation):
        flat_config(treated_fraction=1.0)
    with pytest.raises(InvariantViolation):
        flat_config(reps=0)
    with pytest.raises(InvariantViolation):
        flat_config(population_seed=-1)


def test_degenerate_population_gives_exact_p_one():
    """Zero noise and zero effect: every statistic is 0 on every assignment."""
    cfg = flat_config(
        n=8, treated=OutcomeModel((0.0,), 0.0), control=OutcomeModel((0.0,), 0.0),
        shared_noise=True,
    )
    pop = make_population(cfg)
    z = draw(pop.design, gen(31))
    data = Dataset(np.where(z == 1, pop.y1, pop.y0), z, pop.x)
    for spec in ALL_SPECS:
        res = frt_p_value(data, spec, pop.design, exact=True)
        assert res.p_value == 1.0


# -- scenarios ---------------------------------------------------------------


def small_null():
    return replace(builtin_scenario("complete-null"), reps=10, permutations=19)


def test_scenario_is_bitwise_reproducible():
    first = run_scenario(small_null())
    second = run_scenario(small_null())
    np.testing.assert_array_equal(first.p_values, second.p_values)
    np.testing.assert_array_equal(first.table.rates, second.table.rates)


def test_scenario_parallel_matches_serial(monkeypatch):
    monkeypatch.setenv("RANDTEST_THREADS", "1")
    serial = run_scenario(small_null())
    monkeypatch.delenv("RANDTEST_THREADS")
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    threaded = run_scenario(small_null())
    np.testing.assert_array_equal(serial.p_values, threaded.p_values)


def test_env_var_caps_workers(monkeypatch):
    monkeypatch.setattr(os, "cpu_count", lambda: 8)
    monkeypatch.setenv("RANDTEST_THREADS", "1")
    assert worker_count() == 1
    monkeypatch.setenv("RANDTEST_THREADS", "3")
    assert worker_count() == 3
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    monkeypatch.delenv("RANDTEST_THREADS")
    assert worker_count() == 2
    monkeypatch.setenv("RANDTEST_THREADS", "not-a-number")
    assert worker_count() == 2


def test_scenario_table_consistency():
    cfg = small_null()
    res = run_scenario(cfg)
    assert res.table.labels == tuple(s.label for s in ALL_SPECS)
    assert res.p_values.shape == (cfg.reps, len(ALL_SPECS))
    assert np.all(res.p_values >= 1.0 / (cfg.permutations + 1))
    assert np.all(res.p_values <= 1.0)
    np.testing.assert_array_equal(
        res.table.rates, (res.p_values <= cfg.alpha).mean(axis=0)
    )
    np.testing.assert_allclose(
        res.table.mc_se,
        np.sqrt(res.table.rates * (1 - res.table.rates) / cfg.reps),
    )


def test_builtin_scenarios_resolve():
    kinds = {
        "complete-null": "complete",
        "strat-null": "stratified",
        "strat-power": "stratified",
        "rem-invalid": "rem",
    }
    for name, kind in kinds.items():
        cfg = builtin_scenario(name)
        assert cfg.name == name
        assert cfg.design_kind == kind
    assert builtin_scenario("rem-invalid").rem_threshold > 0
    with pytest.raises(UnknownScenario) as err:
        builtin_scenario("no-such-thing")
    assert "no-such-thing" in str(err.value)


def test_config_dict_round_trip():
    for name in ("complete-null", "strat-null", "strat-power", "rem-invalid"):
        cfg = builtin_scenario(name)
        assert config_from_dict(config_to_dict(cfg)) == cfg


def test_config_base_override():
    cfg = config_from_dict({"base": "complete-null", "reps": 7, "alpha": 0.1})
    assert cfg == replace(builtin_scenario("complete-null"), reps=7, alpha=0.1)


def test_config_minimal_custom():
    cfg = config_from_dict(
        {
            "n": 16,
            "treated": {"poly": [0.0], "sd": 1.0},
            "control": {"poly": [0.0], "sd": 1.0},
        }
    )
    assert cfg.name == "custom"
    assert cfg.n == 16
    assert cfg.statistics == ALL_SPECS


def test_config_rejects_unknown_fields():
    with pytest.raises(InvariantViolation) as err:
        config_from_dict({"base": "complete-null", "bogus": 1})
    assert "bogus" in str(err.value)


@pytest.mark.parametrize(
    "fields",
    [
        {"statistics": ["q:robust"]},
        {"statistics": ["n:robust:extra"]},
        {"reps": "abc"},
        {"permutations": 2.5},
        {"alpha": "0.05"},
        {"treated": {"poly": [0.0]}},
        {"control": {"poly": ["x"], "sd": 1.0}},
        {"stratum_cutoffs": [[0.0]]},
        {"center": "no"},
        {"shared_noise": "false"},
        {"shared_noise": 0},
    ],
)
def test_config_rejects_malformed_fields(fields):
    with pytest.raises(InvalidConfig):
        config_from_dict({"base": "complete-null", **fields})


_JSON = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 10**4) | st.floats() | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=5), inner, max_size=3),
    max_leaves=6,
)
_CONFIG_KEYS = st.sampled_from(sorted(ScenarioConfig.__dataclass_fields__) + ["bogus"])


@settings(max_examples=300, deadline=None)
@given(
    st.dictionaries(_CONFIG_KEYS, _JSON | st.sampled_from(["n:robust", "f"]), max_size=4),
    st.sampled_from([None, "no-such-base", *BUILTIN_SCENARIOS]),
)
def test_config_from_dict_fuzz(fields, base):
    # any JSON-shaped config either parses or raises a RandtestError
    raw = fields if base is None else {"base": base, **fields}
    try:
        cfg = config_from_dict(raw)
    except RandtestError:
        return
    assert isinstance(cfg, ScenarioConfig)


def test_p_histogram():
    counts = p_histogram(np.array([0.01, 0.99, 0.51]))
    expected = np.zeros(20, dtype=np.int64)
    expected[[0, 10, 19]] = 1  # bins [0, 0.05), [0.5, 0.55), [0.95, 1]
    np.testing.assert_array_equal(counts, expected)
    assert p_histogram(np.linspace(0.01, 0.99, 40)).sum() == 40
