"""Every function and method that the benchmark's tracer wraps exists, so a
deleted or renamed traced name fails here and not only in a traced run."""

import importlib
import importlib.util
from pathlib import Path


def _tracing():
    path = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("bench_tracing", path)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_traced_functions_resolve():
    targets = [t for ts in _tracing().FUNCTIONS.values() for t in ts]
    missing = [(m, a) for m, a in targets
               if not callable(getattr(importlib.import_module(m), a, None))]
    assert targets and missing == []


def test_traced_methods_resolve():
    # the tracer swaps the entry of the class's own __dict__
    targets = list(_tracing().METHODS.values())
    missing = [(m, c, a) for m, c, a in targets
               if a not in vars(getattr(importlib.import_module(m), c, object))]
    assert targets and missing == []
