"""Inputs, operations and output checks of the three benchmark workloads.

A workload is a fixed cycle of operations, each a call into one of the
library's public entry points (`randtest.cli.main` or `randtest.invert_ci`)
with library defaults. Inputs come from the benchmark seed through numpy
alone, never through the library, so a change to the library's random
streams changes no input.

The checks rely only on quantities that do not depend on the library's
random stream: the reference (refitting) estimators, an exact p-value
recorded for one fixed data set, the range the add-one rule allows, and
shapes. A stream change may move every Monte Carlo p-value without tripping
a check.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

ADJUSTMENTS = "nrfl"
SCHEMES = ("fl", "kennedy", "terbraak", "manly")
ANALYZE_REPS = 2000
CI_REPS = 500
CI_ALPHA = 0.05
# Scenario repetitions per call; only --reps departs from the built-ins.
SIMULATE_REPS = {"strat-null": 16, "rem-invalid": 8}
# Balance threshold of the ReM data set: the 0.1 quantile of chi-square(2),
# which has the closed form -2 log(0.9).
REM_A = -2.0 * math.log(0.9)

# The exact data set is fixed rather than drawn from the benchmark seed, so
# its enumerated p-values can be recorded once. Its Monte Carlo calls use a
# fixed library seed too: their 4-SE agreement check held for that seed when
# this benchmark was introduced, and a later stream change gets one fresh
# draw per adjustment.
EXACT_SEED = 18
EXACT_MC_SEED = 2020
EXACT_SPACE = math.comb(18, 9)  # 48,620 assignments
# Extreme-assignment counts of the exact robust-t tests on the fixed data
# set: first as recorded when this benchmark was introduced, then with the
# one tie ranked the other way. The complement of the observed assignment
# has the same |t| in exact arithmetic (9 of 18 treated), so rounding alone
# decides whether it counts as extreme, and a change in evaluation order
# may flip it.
EXACT_COUNTS = {
    "n": (28650, 28649),
    "r": (44231, 44232),
    "f": (43807, 43808),
    "l": (42291, 42292),
}


class CheckFailed(Exception):
    """An operation returned output that fails a correctness check."""


@dataclass(frozen=True)
class Op:
    """One call in a workload cycle.

    `kind` labels the call for per-kind medians; `units` is the work it
    completes (tests, intervals or scenario repetitions); `check` raises
    CheckFailed when the output of `call` is wrong.
    """

    kind: str
    units: int
    call: Callable[[], object]
    check: Callable[[object], None]


def _require(ok: bool, message: str):
    if not ok:
        raise CheckFailed(message)


def _close(got, want: float, what: str, tol: float = 1e-8):
    _require(
        isinstance(got, (int, float)) and abs(got - want) <= tol * max(1.0, abs(want)),
        f"{what} is {got!r}, reference {want!r}",
    )


def _mc_range(p, reps: int, what: str):
    _require(
        isinstance(p, (int, float)) and 1.0 / (reps + 1) - 1e-15 <= p <= 1.0,
        f"{what} p-value {p!r} outside [1/(R+1), 1] for R={reps}",
    )


def _rng(seed: int, stream: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([seed, stream]))


def _lib_seed(seed: int, index: int) -> int:
    """Library --seed for call `index` of a run with benchmark seed `seed`."""
    return int(np.random.SeedSequence([seed, 1000 + index]).generate_state(1)[0] >> 1)


# -- input generation ------------------------------------------------------


def _assign(rng, n: int, n1: int) -> np.ndarray:
    z = np.zeros(n, dtype=np.int64)
    z[rng.permutation(n)[:n1]] = 1
    return z


def _outcome(rng, x: np.ndarray, z: np.ndarray, tau: float) -> np.ndarray:
    beta = np.linspace(1.0, -0.5, x.shape[1])
    # Heteroskedastic noise, so classic and robust errors differ.
    noise = rng.standard_normal(z.shape[0]) * (1.0 + 0.5 * np.abs(x[:, 0]))
    return x @ beta + tau * z + noise


def _balance(z: np.ndarray, x: np.ndarray) -> float:
    # The criterion of randtest.mahalanobis, recomputed so inputs never
    # depend on the library.
    n, n1 = z.shape[0], int(z.sum())
    tau_x = x[z == 1].mean(axis=0) - x[z == 0].mean(axis=0)
    cov = n / (n1 * (n - n1)) * np.cov(x, rowvar=False, ddof=1)
    return float(tau_x @ np.linalg.solve(cov, tau_x))


def _write_csv(path: Path, y, z, x, labels_name=None, labels=None):
    columns = [y, z] + [x[:, k] for k in range(x.shape[1])]
    header = ["y", "z"] + [f"x{k + 1}" for k in range(x.shape[1])]
    formats = ["%.17g", "%d"] + ["%.17g"] * x.shape[1]
    if labels_name is not None:
        columns.append(labels)
        header.append(labels_name)
        formats.append("%d")
    table = np.empty((y.shape[0], len(columns)), dtype=object)
    for k, col in enumerate(columns):
        table[:, k] = col
    np.savetxt(path, table, fmt=formats, delimiter=",", header=",".join(header), comments="")


def _complete_data(rng, n, j, n1, tau):
    x = rng.standard_normal((n, j))
    z = _assign(rng, n, n1)
    return _outcome(rng, x, z, tau), z, x


def _exact_data():
    return _complete_data(_rng(EXACT_SEED, 0), 18, 2, 9, 0.5)


# -- CLI plumbing ------------------------------------------------------------


def run_cli(cli, argv: list[str]) -> tuple[int, bytes]:
    """Exit code and stdout bytes of one in-process `randtest.cli.main` call."""
    raw = io.BytesIO()
    stream = io.TextIOWrapper(raw, encoding="utf-8")
    with contextlib.redirect_stdout(stream):
        code = cli.main(argv)
    stream.flush()
    out = raw.getvalue()
    stream.detach()
    return code, out


def _report(output, command: str) -> dict:
    code, raw = output
    _require(code == 0, f"{command} exited with {code}: {raw[:300]!r}")
    report = json.loads(raw)
    _require(report.get("command") == command, f"report is not from {command}")
    return report


# -- analyze -------------------------------------------------------------------


def analyze(rt, seed: int, workdir: Path) -> list[Op]:
    """CLI analyze on five data sets rotating through n/r/f/l, plus permlm."""
    from randtest import cli

    rng = _rng(seed, 1)
    y, z, x = _complete_data(rng, 1000, 3, 400, 0.1)
    complete = rt.Dataset(y, z, x)
    _write_csv(workdir / "complete.csv", y, z, x)

    rng = _rng(seed, 2)
    strata = np.repeat(np.arange(40), 50)
    x = rng.standard_normal((2000, 2))
    z = np.concatenate([_assign(rng, 50, int(rng.integers(15, 36))) for _ in range(40)])
    y = _outcome(rng, x, z, 0.1)
    stratified = rt.Dataset(y, z, x, strata=strata)
    _write_csv(workdir / "stratified.csv", y, z, x, "stratum", strata)

    rng = _rng(seed, 3)
    clusters = np.repeat(np.arange(1000), 20)
    x = rng.standard_normal((20_000, 2))
    z = _assign(rng, 1000, 500)[clusters]
    y = _outcome(rng, x, z, 0.1) + rng.standard_normal(1000)[clusters]
    cluster = rt.Dataset(y, z, x, clusters=clusters)
    _write_csv(workdir / "cluster.csv", y, z, x, "cluster", clusters)

    rng = _rng(seed, 4)
    x = rng.standard_normal((200, 2))
    z = _assign(rng, 200, 100)
    while _balance(z, x) >= REM_A:
        z = _assign(rng, 200, 100)
    y = _outcome(rng, x, z, 0.1)
    rem = rt.Dataset(y, z, x)
    _write_csv(workdir / "rem.csv", y, z, x)

    y, z, x = _exact_data()
    exact = rt.Dataset(y, z, x)
    _write_csv(workdir / "exact.csv", y, z, x)

    def triple(kind, data, adjustment):
        """The reference estimate the CLI analysis of this data set targets."""
        if kind == "cluster":
            return rt.estimate(rt.cluster_collapse(data), adjustment)
        if kind == "stratified":
            return rt.estimate_stratified(data, adjustment)
        return rt.estimate(data, adjustment)

    # (kind, data, CLI flags, library seed or None for one from the run's seed)
    sets = [
        ("complete", complete, ["--design", "complete"], None),
        ("stratified", stratified, ["--design", "stratified"], None),
        ("cluster", cluster, ["--design", "cluster"], None),
        ("rem", rem, ["--design", "rem", "--rem-a", repr(REM_A)], None),
        ("exact", exact, ["--exact"], None),
        ("exact-mc", exact, [], EXACT_MC_SEED),
    ]

    def analyze_op(index, kind, data, flags, fixed_seed, adjustment):
        file = "exact" if kind.startswith("exact") else kind
        ref = triple(kind, data, adjustment)
        t_ref = rt.studentize(ref, "robust")
        lib_seed = _lib_seed(seed, index) if fixed_seed is None else fixed_seed
        argv = ["analyze", str(workdir / f"{file}.csv"), "--stat", adjustment,
                "--reps", str(ANALYZE_REPS), "--seed", str(lib_seed), *flags]

        def check(output):
            report = _report(output, "analyze")
            _close(report["t_obs"], t_ref, f"{kind}:{adjustment} t_obs")
            _close(report["estimate"]["tau_hat"], ref.tau_hat, f"{kind}:{adjustment} tau_hat")
            p = report["p_value"]
            if kind == "exact":
                _require(report["replicates"] == EXACT_SPACE, "exact run did not enumerate")
                counts = EXACT_COUNTS[adjustment]
                _require(
                    any(abs(p - c / EXACT_SPACE) <= 1e-12 for c in counts),
                    f"exact {adjustment} p-value {p!r}, recorded {counts[0]}/{EXACT_SPACE}",
                )
                return
            _require(report["replicates"] == ANALYZE_REPS, f"{kind} replicate count")
            _mc_range(p, ANALYZE_REPS, f"{kind}:{adjustment}")
            if kind == "exact-mc":
                # 4 Monte Carlo SEs, plus the add-one rule's upward shift.
                p_exact = EXACT_COUNTS[adjustment][0] / EXACT_SPACE
                se = math.sqrt(p_exact * (1 - p_exact) / ANALYZE_REPS)
                _require(
                    abs(p - p_exact) <= 4 * se + 1 / (ANALYZE_REPS + 1),
                    f"Monte Carlo {adjustment} p-value {p!r} vs exact {p_exact!r}",
                )

        return Op(f"{kind}:{adjustment}", 1, lambda: run_cli(cli, argv), check)

    def permlm_op(index, scheme):
        t_ref = rt.estimate(complete, "f").tau_hat
        argv = ["permlm", str(workdir / "complete.csv"), "--scheme", scheme,
                "--reps", str(ANALYZE_REPS), "--seed", str(_lib_seed(seed, index))]

        def check(output):
            report = _report(output, "permlm")
            _close(report["t_obs"], t_ref, f"permlm {scheme} t_obs")
            _require(report["replicates"] == ANALYZE_REPS, "permlm replicate count")
            _mc_range(report["p_value"], ANALYZE_REPS, f"permlm {scheme}")

        return Op(f"permlm:{scheme}", 1, lambda: run_cli(cli, argv), check)

    # Four rounds; round i gives data set d the adjustment (i + d) mod 4, so
    # every data set meets every adjustment once per cycle and each round
    # costs about the same.
    ops = []
    for i in range(4):
        for d, (kind, data, flags, fixed_seed) in enumerate(sets):
            ops.append(analyze_op(len(ops), kind, data, flags, fixed_seed,
                                  ADJUSTMENTS[(i + d) % 4]))
        ops.append(permlm_op(len(ops), SCHEMES[i]))
    return ops


# -- ci --------------------------------------------------------------------------


def ci(rt, seed: int, workdir: Path) -> list[Op]:
    """invert_ci with l:robust and f:robust on the default grid, N=200 and 500."""
    ops = []
    for size in (200, 500):
        y, z, x = _complete_data(_rng(seed, size), size, 2, size // 2, 0.2)
        data = rt.Dataset(y, z, x)
        design = rt.CompleteDesign(size, size // 2)
        for adjustment in "fl":
            ref = rt.estimate(data, adjustment)
            wald = rt.wald_ci(ref, CI_ALPHA)
            width = wald[1] - wald[0]
            spec = rt.StatisticSpec(adjustment, "robust")
            lib_seed = _lib_seed(seed, len(ops))

            def call(data=data, spec=spec, design=design, lib_seed=lib_seed):
                return rt.invert_ci(data, spec, CI_ALPHA, design, r=CI_REPS, seed=lib_seed)

            def check(result, ref=ref, wald=wald, width=width, label=f"N={size} {adjustment}"):
                _require(result.lower <= ref.tau_hat <= result.upper,
                         f"{label} interval {result.lower, result.upper} misses {ref.tau_hat}")
                _require(wald[0] - width <= result.lower and result.upper <= wald[1] + width,
                         f"{label} interval {result.lower, result.upper} far outside Wald {wald}")

            ops.append(Op(f"ci{size}:{adjustment}", 1, call, check))
    return ops


# -- simulate ----------------------------------------------------------------------


def simulate(rt, seed: int, workdir: Path) -> list[Op]:
    """CLI simulate on the built-in strat-null and rem-invalid scenarios.

    The built-ins fix their own population and assignment seeds, so the
    benchmark seed does not change this workload's inputs.
    """
    from randtest import cli

    ops = []
    for name, reps in SIMULATE_REPS.items():
        cfg = rt.builtin_scenario(name)
        shape = (reps, len(cfg.statistics))
        argv = ["simulate", name, "--reps", str(reps), "--full-p"]

        def check(output, name=name, shape=shape, cfg=cfg):
            report = _report(output, "simulate")
            p = np.asarray(report["p_values"], dtype=np.float64)
            _require(p.shape == shape, f"{name} p-value matrix {p.shape}, configured {shape}")
            low = 1.0 / (cfg.permutations + 1) - 1e-15
            _require(bool(np.all((p >= low) & (p <= 1.0))), f"{name} p-value outside [1/(R+1), 1]")
            rates = np.array([report["rates"][s.label] for s in cfg.statistics])
            _require(np.array_equal(rates, (p <= cfg.alpha).mean(axis=0)),
                     f"{name} rates disagree with its p-values")

        ops.append(Op(name, reps, lambda argv=argv: run_cli(cli, argv), check))
    return ops


WORKLOADS = {"analyze": analyze, "ci": ci, "simulate": simulate}
