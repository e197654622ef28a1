"""The benchmark's traced run wraps library names by module attribute; a
name that disappears makes its per-layer metrics read null."""

import importlib.util
from pathlib import Path


def test_benchmark_trace_targets_exist():
    path = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
    spec = importlib.util.spec_from_file_location("perfbench_spans", path)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    assert spans.Recorder().missing == []
