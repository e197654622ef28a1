"""Acceptance suite: one test per shipped guarantee.

Each test prints a single PASS/FAIL verdict line (visible under -s); the
assertion message carries the details when something breaks. The scenario
reproductions (stratified null and power, restricted-test invalidity) run
their frozen configurations at full scale, so this file takes about a minute.
"""

import json
import math
import re

import numpy as np
import pytest

from randtest import (
    ALL_SPECS,
    CompleteDesign,
    Dataset,
    StatisticSpec,
    builtin_scenario,
    chi2_cdf,
    chi2_quantile,
    closed_form_replicates,
    estimate,
    exhaustive_assignments,
    frt_p_value,
    invert_ci,
    mahalanobis_many,
    r_constant,
    refit_replicates,
    run_scenario,
    sample_U,
    sample_truncated_L,
    u_variance,
    wald_ci,
)
from randtest._batch import make_evaluator, stat_matrix
from randtest.cli import main as cli_main

from conftest import gen, random_dataset

pytestmark = pytest.mark.acceptance


def verdict(label, failures):
    print(f"[acceptance] {label}: {'FAIL' if failures else 'PASS'}")
    if failures:
        pytest.fail("; ".join(failures), pytrace=False)


def var_se(d):
    s2 = d.var()
    m4 = ((d - d.mean()) ** 4).mean()
    return math.sqrt((m4 - s2**2) / d.shape[0])


def test_01_exact_test_valid_at_every_achievable_level():
    """Enumerated p-values dominate uniform: P(p <= alpha) <= alpha, all 12 statistics."""
    rng = gen(101)
    y = rng.standard_normal(8)
    x = rng.standard_normal((8, 1))
    design = CompleteDesign(8, 4)
    zmat = exhaustive_assignments(design)
    stats = stat_matrix(make_evaluator(y, x), zmat, list(ALL_SPECS))

    failures = []
    p_by_spec = {}
    for col, spec in enumerate(ALL_SPECS):
        vals = np.abs(stats[:, col])
        # a replicate within a relative 1e-9 of the observed value ties with it
        tol = 1e-9 * np.maximum(1.0, vals)
        counts = (vals[None, :] >= (vals - tol)[:, None]).sum(axis=1)
        p = counts / zmat.shape[0]
        p_by_spec[spec.label] = p
        for alpha in np.unique(p):
            mass = (p <= alpha).mean()
            if mass > alpha + 1e-12:
                failures.append(f"{spec.label}: P(p <= {alpha:.4f}) = {mass:.4f}")

    # the engine's exact mode reproduces the enumerated p at arbitrary rows
    for row in (0, 17, 42):
        data = Dataset(y, zmat[row], x)
        for idx in (0, 7, 11):
            spec = ALL_SPECS[idx]
            got = frt_p_value(data, spec, design, exact=True).p_value
            want = p_by_spec[spec.label][row]
            if got != pytest.approx(want, abs=1e-15):
                failures.append(f"engine row {row} {spec.label}: {got} vs {want}")
    verdict("exact test valid at every achievable level", failures)


def test_02_adjusted_estimators_equal_neyman_minus_slope_correction():
    """tau_R/F/L == tau_N - tau_x'gamma with gammas refit from scratch here."""

    def slopes(design_matrix, response):
        coef, *_ = np.linalg.lstsq(design_matrix, response, rcond=None)
        return coef

    failures = []
    for k in range(100):
        data = random_dataset(2000 + k)
        y, x = data.y, data.x
        z = data.z == 1
        ones = np.ones(data.n)
        p1 = data.n1 / data.n
        tau_n = y[z].mean() - y[~z].mean()
        tau_x = x[z].mean(axis=0) - x[~z].mean(axis=0)

        g_r = slopes(np.column_stack([ones, x]), y)[1:]
        g_f = slopes(np.column_stack([ones, z, x]), y)[2:]
        g1 = slopes(np.column_stack([ones[z], x[z]]), y[z])[1:]
        g0 = slopes(np.column_stack([ones[~z], x[~z]]), y[~z])[1:]
        g_l = (1 - p1) * g1 + p1 * g0

        for adjustment, gamma in (("r", g_r), ("f", g_f), ("l", g_l)):
            lhs = estimate(data, adjustment).tau_hat
            rhs = tau_n - tau_x @ gamma
            if abs(lhs - rhs) >= 1e-8:
                failures.append(f"dataset {k} {adjustment}: |{lhs} - {rhs}|")
    verdict("adjusted estimators equal Neyman minus slope correction", failures)


def test_03_closed_form_replicates_match_full_refits():
    data = random_dataset(3001, n=30, j=2, tau=0.7)
    rng = gen(3002)
    perms = np.vstack([rng.permutation(30) for _ in range(40)] + [np.arange(30)])

    failures = []
    ones = np.ones(data.n)
    w = np.column_stack([ones, data.x])
    proj = w @ np.linalg.solve(w.T @ w, w.T)
    z = data.z.astype(np.float64)
    tau_f_direct = (z @ (data.y - proj @ data.y)) / (z @ (z - proj @ z))
    if abs(tau_f_direct - estimate(data, "f").tau_hat) >= 1e-8:
        failures.append("residualized-ratio form of the ancova coefficient")

    for scheme in ("fl", "kennedy", "terbraak", "manly"):
        fast = closed_form_replicates(data, perms, scheme)
        slow = refit_replicates(data, perms, scheme)
        worst = max(float(np.max(np.abs(a - b))) for a, b in zip(fast, slow))
        if worst >= 1e-8:
            failures.append(f"{scheme}: max deviation {worst:.2e}")

    coef_k = closed_form_replicates(data, perms, "kennedy")[0]
    coef_fl = closed_form_replicates(data, perms, "fl")[0]
    gap = float(np.max(np.abs(coef_k - coef_fl)))
    if gap >= 1e-10:
        failures.append(f"kennedy vs fl coefficients differ by {gap:.2e}")
    verdict("closed-form replicates match full refits", failures)


def test_04_stratified_null_robust_holds_size_unstudentized_overrejects():
    result = run_scenario(builtin_scenario("strat-null"))
    rates = dict(zip(result.table.labels, result.table.rates))
    failures = []
    for adjustment in "nrfl":
        robust = rates[f"{adjustment}:robust"]
        plain = rates[f"{adjustment}:none"]
        if robust > 0.07:
            failures.append(f"{adjustment}:robust rejects at {robust:.3f} > 0.07")
        if plain < 0.07:
            failures.append(f"{adjustment}:none rejects at {plain:.3f} < 0.07")
    verdict("stratified null: robust-t holds size, unstudentized does not", failures)


def test_05_interacted_adjustment_has_top_power():
    result = run_scenario(builtin_scenario("strat-power"))
    rates = dict(zip(result.table.labels, result.table.rates))
    robust = {adj: rates[f"{adj}:robust"] for adj in "nrfl"}
    lin = robust["l"]
    failures = []
    for adjustment, rate in robust.items():
        if adjustment == "l":
            continue
        if lin <= rate - 0.02:
            failures.append(f"l:robust {lin:.3f} vs {adjustment}:robust {rate:.3f}")
    if lin != max(robust.values()):
        failures.append(f"l:robust {lin:.3f} is not the maximum of {robust}")
    verdict("interacted adjustment has top power under stratification", failures)


def test_06_rerandomization_acceptance_rate_matches_nominal():
    rng = gen(601)
    n, n1, attempts = 200, 100, 10_000
    x = rng.standard_normal((n, 2))
    x = (x - x.mean(axis=0)) / x.std(axis=0, ddof=1)
    a = chi2_quantile(0.5, 2)
    failures = []
    if abs(chi2_cdf(a, 2) - 0.5) > 1e-12:
        failures.append("threshold is not the chi-square median")
    zmat = np.zeros((attempts, n), dtype=np.int8)
    zmat[:, :n1] = 1
    zmat = rng.permuted(zmat, axis=1)
    rate = float((mahalanobis_many(zmat, x) < a).mean())
    if not 0.45 <= rate <= 0.55:
        failures.append(f"acceptance rate {rate:.4f} outside [0.45, 0.55]")
    verdict("rerandomization acceptance rate matches nominal", failures)


def test_07_truncated_normal_moments_match_theory():
    failures = []
    for j, a in ((1, chi2_quantile(0.05, 1)), (2, chi2_quantile(0.5, 2))):
        d = sample_truncated_L(j, a, gen((701, j)), size=100_000)
        want = r_constant(j, a)
        if abs(d.var() - want) >= 3 * var_se(d):
            failures.append(f"L variance J={j}: {d.var():.5f} vs {want:.5f}")
    a = chi2_quantile(0.5, 2)
    for rho in (0.3, 0.7):
        d = sample_U(rho, 2, a, gen((702, int(10 * rho))), size=100_000)
        want = u_variance(rho, 2, a)
        if abs(d.var() - want) >= 3 * var_se(d):
            failures.append(f"U variance rho={rho}: {d.var():.5f} vs {want:.5f}")
    verdict("truncated-normal moments match theory", failures)


def test_08_restricted_test_overrejects_only_without_adjustment():
    result = run_scenario(builtin_scenario("rem-invalid"))
    rates = dict(zip(result.table.labels, result.table.rates))
    failures = []
    if rates["n:robust"] <= 0.07:
        failures.append(f"n:robust rejects at {rates['n:robust']:.3f}, expected > 0.07")
    for adjustment in "rfl":
        rate = rates[f"{adjustment}:robust"]
        if rate > 0.07:
            failures.append(f"{adjustment}:robust rejects at {rate:.3f} > 0.07")
    verdict("restricted test overrejects only without adjustment", failures)


def test_09_inverted_interval_tracks_wald_and_covers():
    spec = StatisticSpec("l", "robust")
    design = CompleteDesign(500, 250)
    beta, tau_true = np.array([1.0]), 0.4

    def homoskedastic(seed):
        rng = gen(seed)
        x = rng.standard_normal((500, 1))
        z = np.zeros(500, dtype=np.int64)
        z[rng.permutation(500)[:250]] = 1
        y = tau_true * z + x @ beta + rng.standard_normal(500)
        return Dataset(y, z, x)

    failures = []
    data = homoskedastic(901)
    ci = invert_ci(data, spec, 0.05, design, r=2999, seed=11)
    wald = wald_ci(estimate(data, "l"), 0.05)
    step = ci.grid[2]
    for got, want, side in ((ci.lower, wald[0], "lower"), (ci.upper, wald[1], "upper")):
        if abs(got - want) > step + 1e-12:
            failures.append(f"{side} endpoint {got:.5f} vs Wald {want:.5f}, step {step:.5f}")

    covered = 0
    for rep in range(300):
        data = homoskedastic((902, rep))
        shifted = Dataset(data.y - tau_true * data.z, data.z, data.x)
        covered += frt_p_value(shifted, spec, design, r=399, seed=rep).p_value > 0.05
    coverage = covered / 300
    if not 0.92 <= coverage <= 0.98:
        failures.append(f"coverage {coverage:.4f} outside [0.92, 0.98]")
    verdict("inverted interval tracks Wald and covers", failures)


def test_10_reports_identical_across_thread_counts(tmp_path, monkeypatch, capsysbinary):
    rng = gen(1001)
    rows = ["y,z,x1"]
    z = np.zeros(200, dtype=np.int64)
    z[rng.permutation(200)[:100]] = 1
    x = rng.standard_normal(200)
    y = 0.3 * z + 0.8 * x + rng.standard_normal(200)
    rows += [f"{float(y[i])!r},{z[i]},{float(x[i])!r}" for i in range(200)]
    path = tmp_path / "data.csv"
    path.write_text("\n".join(rows) + "\n")

    stamp = re.compile(rb'"timestamp":"[^"]*"')
    commands = [
        # large enough that the replicate matrix spans several chunks
        ["analyze", str(path), "--stat", "l", "--reps", "40000", "--seed", "3"],
        ["analyze", str(path), "--stat", "l", "--reps", "500", "--seed", "3", "--ci"],
        ["simulate", "complete-null", "--reps", "24", "--permutations", "99"],
    ]
    failures = []
    for argv in commands:
        outputs = []
        reports = []
        for threads in ("1", "8"):
            monkeypatch.setenv("RANDTEST_THREADS", threads)
            assert cli_main(argv) == 0
            raw = capsysbinary.readouterr().out
            report = json.loads(raw)
            report.pop("timestamp")
            outputs.append(stamp.sub(b"", raw))
            reports.append(report)
        if outputs[0] != outputs[1]:
            failures.append(f"{argv[0]} bytes depend on RANDTEST_THREADS")
        if reports[0] != reports[1]:
            failures.append(f"{argv[0]} parsed reports differ")
    verdict("reports identical across thread counts", failures)
