"""Command-line surface: CSV in, deterministic JSON report out.

Subcommands:

- analyze: estimate and randomization-test one statistic on a CSV dataset,
  optionally inverting the test into a confidence interval;
- permlm: the linear-model permutation schemes on the same data format;
- simulate: run a built-in or declarative scenario and report rejection
  rates with 20-bin p-value histograms.

Exit codes: 0 ok, 1 domain error (structured JSON error object on stdout),
2 usage error. Reports serialize floats with 17 significant digits so they
round-trip losslessly; a timestamp field is the only nondeterministic part.
"""

from __future__ import annotations

import argparse
import csv
import datetime
import io
import json
import math
import sys

import numpy as np

from . import __version__
from .designs import (
    ClusterDesign,
    CompleteDesign,
    DesignSpec,
    RerandomizedDesign,
    StratifiedDesign,
)
from .engine import frt_p_value, invert_ci, wald_ci
from .errors import InvariantViolation, ParseError, RandtestError, ZeroSe
from .estimators import (
    Dataset,
    StatisticSpec,
    cluster_collapse,  # unused here; perfbench/spans.py traces cluster collapses at this name
    estimate,
    estimate_stratified,
)
from .permlm import PermLmSpec, perm_lm_p_value
from .simulate import (
    BUILTIN_SCENARIOS,
    builtin_scenario,
    config_from_dict,
    config_to_dict,
    p_histogram,
    run_scenario,
)

_DESIGN_CHOICES = ("complete", "stratified", "cluster", "rem")


# -- JSON ---------------------------------------------------------------------


def _dump(obj) -> str:
    if obj is None:
        return "null"
    if isinstance(obj, (bool, np.bool_)):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        x = float(obj)
        if math.isfinite(x):
            return format(x, ".17g")
        # JSON has no non-finite numbers; sentinel statistics become strings.
        return '"inf"' if x > 0 else ('"-inf"' if x < 0 else '"nan"')
    if isinstance(obj, str):
        return json.dumps(obj, ensure_ascii=False)
    if isinstance(obj, dict):
        items = (json.dumps(str(k), ensure_ascii=False) + ":" + _dump(v) for k, v in obj.items())
        return "{" + ",".join(items) + "}"
    if isinstance(obj, (list, tuple, np.ndarray)):
        return "[" + ",".join(_dump(v) for v in obj) + "]"
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def json_bytes(obj) -> bytes:
    """Deterministic UTF-8 JSON, newline-terminated."""
    return (_dump(obj) + "\n").encode("utf-8")


# -- input files ----------------------------------------------------------------


def _read_utf8(path: str, what: str) -> str:
    """The file's text without a leading byte-order mark; a byte sequence
    that is not UTF-8 is a ParseError on its line."""
    with open(path, "rb") as fh:
        raw = fh.read().removeprefix(b"\xef\xbb\xbf")
    try:
        return raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        row = raw.count(b"\n", 0, exc.start) + 1
        raise ParseError(f"{what}: not UTF-8 ({exc.reason})", row=row, column="") from None


def load_csv(path: str) -> Dataset:
    """Dataset from a headed CSV with columns y, z, x1..xJ, stratum, cluster.

    Covariate columns must be numbered contiguously from x1. Cells are
    stripped and parsed as Python's float() parses them. A ParseError names
    the first bad cell, in column order y, z, x1..xJ, stratum, cluster, then
    in row order, by its 1-based file row and column name. Stratum and
    cluster labels are kept as strings and may not hold a NUL character.
    """
    reader = csv.reader(io.StringIO(_read_utf8(path, "bad CSV"), newline=""))
    try:
        header = [h.strip() for h in next(reader)]
        rows = list(reader)
    except StopIteration:
        raise ParseError("empty file", row=0, column="") from None
    except csv.Error as exc:
        raise ParseError(f"bad CSV: {exc}", row=reader.line_num, column="") from None

    index = {name: i for i, name in enumerate(header)}
    if len(index) != len(header):
        raise ParseError("duplicate column names in header", row=1, column="")
    for required in ("y", "z"):
        if required not in index:
            raise ParseError(f"missing required column {required!r}", row=1, column=required)
    x_names = sorted((n for n in index if n.startswith("x")), key=lambda n: (len(n), n))
    expected = [f"x{k}" for k in range(1, len(x_names) + 1)]
    if x_names != expected:
        raise ParseError(
            f"covariate columns must be x1..xJ contiguous, got {x_names}", row=1, column=""
        )
    known = {"y", "z", "stratum", "cluster", *expected}
    unknown = [n for n in header if n not in known]
    if unknown:
        raise ParseError(f"unrecognized columns {unknown}", row=1, column=unknown[0])

    if not rows:
        raise ParseError("no data rows", row=1, column="")

    def column(name: str) -> np.ndarray:
        # One bulk parse (numpy converts each str with float()); only a
        # column that fails it is walked, to name its first bad cell.
        pos = index[name]
        cells = [row[pos].strip() if pos < len(row) else "" for row in rows]
        numeric = name not in ("stratum", "cluster")
        try:
            values = np.array(cells, dtype=np.float64 if numeric else None)
        except ValueError:
            values = None
        if numeric:
            ok = values is not None and (name != "z" or np.isin(values, (0, 1)).all())
        else:  # numpy's str dtype drops trailing NULs, merging "a" and "a\0"
            ok = "\x00" not in "".join(cells)
        if ok and "" not in cells:
            return values
        for line, text in enumerate(cells, start=2):
            if text == "":
                raise ParseError("missing value", row=line, column=name)
            if not numeric:
                if "\x00" in text:
                    raise ParseError(f"NUL character in label {text!r}", row=line, column=name)
                continue
            try:
                value = float(text)
            except ValueError:
                raise ParseError(f"not a number: {text!r}", row=line, column=name) from None
            if name == "z" and value not in (0.0, 1.0):
                raise ParseError(f"z must be 0 or 1, got {value!r}", row=line, column="z")
        raise AssertionError(f"column {name!r} failed its bulk parse with no bad cell")

    y, z = column("y"), column("z")
    x = np.column_stack([column(name) for name in expected]) if expected else None
    strata = column("stratum") if "stratum" in index else None
    clusters = column("cluster") if "cluster" in index else None
    return Dataset(y, z, x, strata=strata, clusters=clusters)


# -- report pieces -------------------------------------------------------------


def _replicate_histogram(replicates: np.ndarray) -> dict:
    finite = replicates[np.isfinite(replicates)]
    if finite.size:
        counts, edges = np.histogram(finite, bins=20)
    else:
        counts, edges = np.zeros(20, dtype=np.int64), np.linspace(0.0, 1.0, 21)
    return {
        "bin_edges": edges,
        "counts": counts,
        "nonfinite": int(replicates.size - finite.size),
    }


def _base_report(command: str) -> dict:
    return {
        "version": __version__,
        "timestamp": datetime.datetime.now(datetime.timezone.utc).isoformat(),
        "command": command,
    }


def _test_fields(args, result, triple) -> dict:
    """The report fields of one test, `seed` through `replicate_histogram`."""
    return {
        "seed": args.seed,
        "sided": args.sided,
        "mode": result.mode,
        "replicates": int(result.replicates.shape[0]),
        "t_obs": result.t_obs,
        "p_value": result.p_value,
        "mc_se": result.mc_se,
        "estimate": {
            "tau_hat": triple.tau_hat,
            "se_classic": triple.se_classic,
            "se_robust": triple.se_robust,
        },
        "replicate_histogram": _replicate_histogram(result.replicates),
    }


def _build_design(args, data: Dataset) -> tuple[DesignSpec, list[str] | None]:
    if args.design == "complete":
        return CompleteDesign(data.n, data.n1), None
    if args.design == "stratified":
        if data.strata is None:
            raise InvariantViolation("--design stratified needs a stratum column")
        return StratifiedDesign.from_observed(data.strata, data.z), None
    if args.design == "cluster":
        if data.clusters is None:
            raise InvariantViolation("dataset has no cluster labels")
        # counts alone: the design's analysis_form makes the one collapse
        m1 = np.unique(data.clusters[data.z == 1]).size
        return ClusterDesign(int(data.clusters.max()) + 1, m1), None
    if args.rem_a is None:
        raise InvariantViolation("--design rem needs --rem-a")
    if data.j < 1:
        raise InvariantViolation("--design rem needs covariate columns")
    names = [f"x{k}" for k in range(1, data.j + 1)]
    if args.rem_cols:
        chosen = [c.strip() for c in args.rem_cols.split(",") if c.strip()]
        bad = [c for c in chosen if c not in names]
        if bad:
            raise InvariantViolation(f"--rem-cols names not in the data: {bad}")
        cols = [names.index(c) for c in chosen]
    else:
        chosen, cols = names, list(range(data.j))
    design = RerandomizedDesign(
        CompleteDesign(data.n, data.n1), float(args.rem_a), data.x[:, cols]
    )
    return design, chosen


# -- subcommands ----------------------------------------------------------------


def _cmd_analyze(args) -> dict:
    data = load_csv(args.data)
    spec = StatisticSpec(args.stat, args.student)
    design, rem_cols = _build_design(args, data)
    adata, adesign = design.analysis_form(data)
    triple = (estimate if adesign.strata is None else estimate_stratified)(adata, spec.adjustment)
    described = design.describe()
    if rem_cols is not None:
        described["columns"] = rem_cols
    result = frt_p_value(
        adata, spec, adesign, r=args.reps, seed=args.seed, exact=args.exact, sided=args.sided
    )
    report = _base_report("analyze")
    report.update(
        {
            "data": {
                "path": args.data,
                "n": data.n,
                "n1": data.n1,
                "j": data.j,
                "strata": None if data.strata is None else int(data.strata.max()) + 1,
                "clusters": None if data.clusters is None else int(data.clusters.max()) + 1,
            },
            "spec": {"adjustment": spec.adjustment, "studentization": spec.studentization},
            "design": described,
            **_test_fields(args, result, triple),
        }
    )
    if args.ci:
        ci = invert_ci(
            data,
            spec,
            args.alpha,
            design,
            r=args.reps,
            seed=args.seed,
            exact=args.exact,
            sided=args.sided,
        )
        report["ci"] = {
            "lower": ci.lower,
            "upper": ci.upper,
            "alpha": ci.alpha,
            "grid": {"lo": ci.grid[0], "hi": ci.grid[1], "step": ci.grid[2]},
            "lower_at_edge": ci.lower_at_edge,
            "upper_at_edge": ci.upper_at_edge,
            "wald": list(ci.wald_init),
        }
    else:
        try:
            report["wald"] = list(wald_ci(triple, args.alpha))
        except ZeroSe:
            report["wald"] = None
    return report


def _cmd_permlm(args) -> dict:
    data = load_csv(args.data)
    spec = PermLmSpec(args.scheme, args.student)
    result = perm_lm_p_value(data, spec, r=args.reps, seed=args.seed, sided=args.sided)
    report = _base_report("permlm")
    report.update(
        {
            "data": {"path": args.data, "n": data.n, "n1": data.n1, "j": data.j},
            "spec": {"scheme": spec.scheme, "studentization": spec.studentization},
            **_test_fields(args, result, estimate(data, "f")),
        }
    )
    return report


def _cmd_simulate(args) -> dict:
    if args.scenario in BUILTIN_SCENARIOS:
        cfg = builtin_scenario(args.scenario)
    else:
        text = _read_utf8(args.scenario, "bad scenario config")
        try:
            raw = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ParseError(f"bad scenario config: {exc}", row=exc.lineno, column="") from None
        cfg = config_from_dict(raw)
    overrides = {}
    for name in ("reps", "permutations", "alpha"):
        value = getattr(args, name)
        if value is not None:
            overrides[name] = value
    if overrides:
        import dataclasses

        cfg = dataclasses.replace(cfg, **overrides)

    outcome = run_scenario(cfg)
    report = _base_report("simulate")
    report.update(
        {
            "scenario": config_to_dict(cfg),
            "reps": outcome.table.reps,
            "alpha": outcome.table.alpha,
            "rates": dict(zip(outcome.table.labels, outcome.table.rates)),
            "mc_se": dict(zip(outcome.table.labels, outcome.table.mc_se)),
            "p_histograms": {
                label: p_histogram(outcome.p_values[:, j])
                for j, label in enumerate(outcome.table.labels)
            },
        }
    )
    if args.full_p:
        report["p_values"] = outcome.p_values
    return report


# -- entry point -----------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="randtest",
        description="Randomization tests for treatment effects, with covariate adjustment.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    analyze = sub.add_parser("analyze", help="test one statistic on a CSV dataset")
    analyze.add_argument("data", help="CSV file with columns y, z, x1..xJ, stratum, cluster")
    analyze.add_argument("--stat", choices=("n", "r", "f", "l"), default="n")
    analyze.add_argument("--student", choices=("none", "classic", "robust"), default="robust")
    analyze.add_argument("--design", choices=_DESIGN_CHOICES, default="complete")
    analyze.add_argument("--rem-a", type=float, default=None, help="balance threshold")
    analyze.add_argument("--rem-cols", default=None, help="comma-separated covariate names")
    analyze.add_argument("--reps", type=int, default=1000)
    analyze.add_argument("--seed", type=int, default=0)
    analyze.add_argument("--exact", action="store_true", help="enumerate the assignment space")
    analyze.add_argument("--sided", choices=("one", "two"), default="two")
    analyze.add_argument("--ci", action="store_true", help="invert the test into an interval")
    analyze.add_argument("--alpha", type=float, default=0.05)
    analyze.set_defaults(func=_cmd_analyze)

    permlm = sub.add_parser("permlm", help="linear-model permutation tests")
    permlm.add_argument("data")
    permlm.add_argument("--scheme", choices=("fl", "kennedy", "terbraak", "manly"), default="fl")
    permlm.add_argument("--student", choices=("none", "classic", "robust"), default="none")
    permlm.add_argument("--reps", type=int, default=1000)
    permlm.add_argument("--seed", type=int, default=0)
    permlm.add_argument("--sided", choices=("one", "two"), default="two")
    permlm.set_defaults(func=_cmd_permlm)

    simulate = sub.add_parser("simulate", help="run a rejection-rate scenario")
    simulate.add_argument("scenario", help=f"built-in ({', '.join(BUILTIN_SCENARIOS)}) or JSON file")
    simulate.add_argument("--reps", type=int, default=None)
    simulate.add_argument("--permutations", type=int, default=None)
    simulate.add_argument("--alpha", type=float, default=None)
    simulate.add_argument("--full-p", action="store_true", help="include the raw p-value matrix")
    simulate.set_defaults(func=_cmd_simulate)
    return parser


def _error_payload(exc: Exception) -> dict:
    detail = {"type": type(exc).__name__, "message": str(exc)}
    for attr in ("row", "column", "tries", "acceptance_rate", "nearest", "max_p"):
        if hasattr(exc, attr):
            detail[attr] = getattr(exc, attr)
    return {"version": __version__, "error": detail}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "seed", 0) < 0:
        parser.error("--seed must be non-negative")
    try:
        report = args.func(args)
    except (RandtestError, OSError) as exc:
        sys.stdout.buffer.write(json_bytes(_error_payload(exc)))
        sys.stdout.buffer.flush()
        return 1
    sys.stdout.buffer.write(json_bytes(report))
    sys.stdout.buffer.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
