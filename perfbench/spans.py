"""Layer spans for the benchmark's traced run.

The recorder replaces module attributes of `randtest` -- the names each
layer's callers look up at call time -- with wrappers that record one span
per call: name, layer, start, end, parent span and thread. Spans stay in
memory and are written out once, at the end of the run. Nothing is patched
outside `Recorder.installed()`, so untraced calls run the library as is.
"""

from __future__ import annotations

import contextlib
import contextvars
import importlib
import itertools
import threading
import time
from collections import defaultdict
from typing import NamedTuple

import numpy as np


def _design_kind(args, result):
    return {"kind": type(args[0]).__name__}


def _arg_rows(args, result):
    return {"rows": int(np.shape(args[0])[0])}


def _result_rows(args, result):
    return {"rows": int(result.shape[0])}


def _eval_shape(args, result):
    zmat = args[1]
    return {"rows": int(zmat.shape[0]), "cols": int(zmat.shape[1])}


def _nonfinite(args, result):
    return {"nonfinite": int(np.count_nonzero(~np.isfinite(result.replicates)))}


def _ci_edge(args, result):
    # An endpoint on the edge of the search grid means the interval is cut off.
    return {"edge": int(result.lower <= result.grid[0] or result.upper >= result.grid[1])}


# (module, attribute, layer, attrs): the span is named "module.attribute",
# after the place the call is looked up, and belongs to the layer that owns
# the callee. `attrs(args, result)` adds counts measured at the boundary.
TARGETS = (
    ("cli", "load_csv", "cli", None),
    ("cli", "Dataset", "estimators", None),
    ("cli", "estimate", "estimators", None),
    ("cli", "estimate_stratified", "estimators", None),
    ("cli", "cluster_collapse", "estimators", None),
    ("cli", "frt_p_value", "engine", _nonfinite),
    ("cli", "perm_lm_p_value", "permlm", _nonfinite),
    ("cli", "run_scenario", "simulate", None),
    ("simulate", "draw", "designs", _design_kind),
    ("simulate", "Dataset", "estimators", None),
    ("simulate", "frt_p_values", "engine", None),
    ("engine", "draw", "designs", _design_kind),
    ("engine", "mahalanobis_many", "designs", _arg_rows),
    ("engine", "exhaustive_assignments", "engine", _result_rows),
    ("engine", "make_evaluator", "batch", None),
    ("engine", "stat_matrix", "batch", _eval_shape),
    ("engine", "Dataset", "estimators", None),
    ("engine", "estimate", "estimators", None),
    ("engine", "estimate_stratified", "estimators", None),
    ("engine", "cluster_collapse", "estimators", None),
    ("designs", "mahalanobis_many", "designs", _arg_rows),
    ("estimators", "Dataset", "estimators", None),
)
# The span opened around each of the benchmark's own calls, per workload.
ROOTS = {
    "analyze": ("cli.main", "cli", None),
    "ci": ("invert_ci", "engine", _ci_edge),
    "simulate": ("cli.main", "cli", None),
}
# Thread pools whose tasks become spans parented to the submitting span, so
# work fanned out to worker threads stays in the tree.
POOLS = (
    ("engine", "ThreadPoolExecutor", "engine"),
    ("simulate", "ThreadPoolExecutor", "simulate"),
)


class Span(NamedTuple):
    sid: int
    parent: int  # 0 for a root span
    name: str
    layer: str
    thread: int
    start: float
    end: float
    attrs: dict | None


def _module(name: str):
    return importlib.import_module(f"randtest.{name}")


class Recorder:
    def __init__(self):
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._current = contextvars.ContextVar("perfbench_span", default=0)
        self.missing = sorted(
            f"{module}.{attr}"
            for module, attr, *_ in TARGETS + POOLS
            if not hasattr(_module(module), attr)
        )

    def call(self, name, layer, attrs, fn, /, *args, **kwargs):
        """Run fn(*args, **kwargs) inside a span."""
        parent = self._current.get()
        sid = next(self._ids)
        token = self._current.set(sid)
        ok = False
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
            ok = True
            return result
        finally:
            end = time.perf_counter()
            self._current.reset(token)
            info = attrs(args, result) if ok and attrs is not None else None
            self.spans.append(
                Span(sid, parent, name, layer, threading.get_ident(), start, end, info)
            )

    def _wrap(self, name, layer, attrs, fn):
        def traced(*args, **kwargs):
            return self.call(name, layer, attrs, fn, *args, **kwargs)

        return traced

    def _pool(self, name, layer, base):
        recorder = self

        class TracedPool(base):
            def submit(self, fn, /, *args, **kwargs):
                context = contextvars.copy_context()
                return super().submit(
                    context.run, recorder.call, name, layer, None, fn, *args, **kwargs
                )

        return TracedPool

    @contextlib.contextmanager
    def installed(self):
        """Patch every present target for the duration of the block."""
        saved = []
        try:
            for module, attr, layer, attrs in TARGETS:
                mod = _module(module)
                if hasattr(mod, attr):
                    fn = getattr(mod, attr)
                    saved.append((mod, attr, fn))
                    setattr(mod, attr, self._wrap(f"{module}.{attr}", layer, attrs, fn))
            for module, attr, layer in POOLS:
                mod = _module(module)
                if hasattr(mod, attr):
                    base = getattr(mod, attr)
                    saved.append((mod, attr, base))
                    setattr(mod, attr, self._pool(f"{module}.pool_task", layer, base))
            yield self
        finally:
            for mod, attr, fn in reversed(saved):
                setattr(mod, attr, fn)


def _covered(intervals: list[tuple[float, float]]) -> float:
    """Length of the union of intervals."""
    total, reach = 0.0, -np.inf
    for start, end in sorted(intervals):
        if end > reach:
            total += end - max(start, reach)
            reach = end
    return total


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span id -> duration minus the time any of its children was running.

    Children on other threads count too, so a span that fans work out to a
    pool and waits for it is not charged for the wait.
    """
    children = defaultdict(list)
    for s in spans:
        children[s.parent].append((s.start, s.end))
    return {s.sid: s.end - s.start - _covered(children[s.sid]) for s in spans}


def _thread_order(spans: list[Span]) -> dict[int, int]:
    """Thread ident -> index in order of first span (the main thread is 0)."""
    order = {}
    for s in sorted(spans, key=lambda s: s.start):
        order.setdefault(s.thread, len(order))
    return order


def self_by_thread(spans: list[Span]) -> dict[str, dict[str, float]]:
    """Layer -> thread index -> self time in seconds."""
    order = _thread_order(spans)
    own = self_times(spans)
    table = defaultdict(lambda: defaultdict(float))
    for s in spans:
        table[s.layer][f"thread{order[s.thread]}"] += own[s.sid]
    return {layer: dict(threads) for layer, threads in table.items()}


_ALL = tuple(f"{module}.{attr}" for module, attr, *_ in TARGETS + POOLS)
_DRAW = ("engine.draw", "simulate.draw")
_BALANCE = ("designs.mahalanobis_many", "engine.mahalanobis_many")
_DATASET = ("cli.Dataset", "engine.Dataset", "simulate.Dataset", "estimators.Dataset")
_COLLAPSE = ("cli.cluster_collapse", "engine.cluster_collapse")
_NONFINITE = ("cli.frt_p_value", "cli.perm_lm_p_value")


def layer_metrics(spans: list[Span], missing: list[str], cycles: int) -> dict:
    """Per-layer metrics per workload cycle, as {name: (value, unit)}.

    A metric fed by a wrapped name that no longer exists is None, not zero.
    Self times need every name, since a missing child would be charged to
    its parent.
    """
    own = self_times(spans)
    named = defaultdict(list)
    for s in spans:
        named[s.name].append(s)

    def pick(names):
        return [s for n in names for s in named[n]]

    def seconds(items):
        return sum(s.end - s.start for s in items)

    def attr(items, key):
        return sum(s.attrs[key] for s in items if s.attrs)

    def layer_self(layer):
        return sum(own[s.sid] for s in spans if s.layer == layer)

    draws, balance, datasets = pick(_DRAW), pick(_BALANCE), pick(_DATASET)
    candidates = attr(named["designs.mahalanobis_many"], "rows")
    accepted = sum(1 for s in draws if s.attrs and s.attrs["kind"] == "RerandomizedDesign")
    # Only the outermost enumeration: a ReM design enumerates its base inside.
    nested = {s.sid for s in named["engine.exhaustive_assignments"]}
    enum = [s for s in named["engine.exhaustive_assignments"] if s.parent not in nested]
    evals = named["engine.stat_matrix"]
    eval_rows, eval_s = attr(evals, "rows"), seconds(evals)
    eval_bytes = sum(8 * s.attrs["rows"] * s.attrs["cols"] for s in evals if s.attrs)

    # (metric, total over the traced cycles, unit, wrapped names it needs)
    totals = [
        ("designs.draw_calls", len(draws), "count", _DRAW),
        ("designs.draw_s", seconds(draws), "s", _DRAW),
        ("designs.balance_calls", len(balance), "count", _BALANCE),
        ("designs.balance_s", seconds(balance), "s", _BALANCE),
        ("designs.rem_candidates", candidates, "count", _BALANCE),
        ("designs.rem_accepted", accepted, "count", _DRAW),
        ("engine.enumerate_s", seconds(enum), "s", ("engine.exhaustive_assignments",)),
        ("engine.enumerated_rows", attr(enum, "rows"), "count",
         ("engine.exhaustive_assignments",)),
        ("engine.self_s", layer_self("engine"), "s", _ALL),
        ("engine.nonfinite_replicates", attr(pick(_NONFINITE), "nonfinite"), "count",
         _NONFINITE),
        ("engine.ci_edge_hits", attr(named["invert_ci"], "edge"), "count", ()),
        ("batch.build_calls", len(named["engine.make_evaluator"]), "count",
         ("engine.make_evaluator",)),
        ("batch.build_s", seconds(named["engine.make_evaluator"]), "s",
         ("engine.make_evaluator",)),
        ("batch.eval_rows", eval_rows, "count", ("engine.stat_matrix",)),
        ("batch.eval_s", eval_s, "s", ("engine.stat_matrix",)),
        # Computed, not measured: bytes of the float64 assignment rows evaluated.
        ("batch.eval_bytes", eval_bytes, "B", ("engine.stat_matrix",)),
        ("estimators.dataset_calls", len(datasets), "count", _DATASET),
        ("estimators.dataset_s", seconds(datasets), "s", _DATASET),
        ("estimators.collapse_s", seconds(pick(_COLLAPSE)), "s", _COLLAPSE),
        ("permlm.self_s", layer_self("permlm"), "s", _ALL),
        ("simulate.self_s", layer_self("simulate"), "s", _ALL),
        ("cli.load_csv_s", seconds(named["cli.load_csv"]), "s", ("cli.load_csv",)),
        ("cli.self_s", layer_self("cli"), "s", _ALL),
    ]
    # A ratio with a zero base (no ReM candidates, no evaluation) reads 0;
    # its base is reported too.
    ratios = [
        ("designs.rem_useful_ratio", accepted / candidates if candidates else 0.0,
         "ratio", _DRAW + _BALANCE),
        ("batch.rows_per_s", eval_rows / eval_s if eval_s else 0.0, "rows/s",
         ("engine.stat_matrix",)),
    ]
    gone = set(missing)
    out = {}
    for name, value, unit, sources in totals:
        out[name] = (None if gone.intersection(sources) else value / cycles, unit)
    for name, value, unit, sources in ratios:
        out[name] = (None if gone.intersection(sources) else value, unit)
    return out


def dump(spans: list[Span]) -> list[list]:
    """Spans as JSON rows, times relative to the first span's start."""
    if not spans:
        return []
    origin = min(s.start for s in spans)
    order = _thread_order(spans)
    return [
        [s.sid, s.parent, s.name, s.layer, order[s.thread],
         round(s.start - origin, 9), round(s.end - origin, 9), s.attrs]
        for s in sorted(spans, key=lambda s: s.sid)
    ]
