"""The benchmark tracer still binds every function and metric it names.

``perfbench/tracing.py`` looks up each traced function when it is imported,
so loading it fails at once when one of them was renamed or deleted.
"""

import importlib
import importlib.util
import json
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _load_tracing():
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracing", ROOT / "perfbench" / "tracing.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_binds_every_traced_function():
    tracing = _load_tracing()
    for name, (fn, _) in tracing.FUNCTIONS.items():
        module, attr = name.split(".")
        assert getattr(importlib.import_module(f"gaugelab.{module}"), attr) is fn, name
    for name, methods in tracing.METHODS.items():
        for cls, attr, _ in methods:
            assert callable(getattr(cls, attr)), name


def test_every_benchmark_metric_has_its_spans():
    tracing = _load_tracing()
    spans = set(tracing.FUNCTIONS) | set(tracing.METHODS)
    for metric, (names, _) in tracing.LAYER_METRICS.items():
        assert set(names) <= spans, metric
    per_layer = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    assert {m["name"] for m in per_layer} - {"trace.overhead_s"} <= set(tracing.LAYER_METRICS)
