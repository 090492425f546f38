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


def test_wave_api_that_the_benchmark_reads():
    # bench/checks.py synthesizes and weighs waves from the four cone-side
    # views, the tracer hashes them, and the workloads call embed and
    # normalize_mass; the side a wave does not hold reads as empty arrays
    import numpy as np
    from conewave.config import RunConfig
    from conewave.lattice import lattice_for
    from conewave.waves import random_colored_wave
    cfg = RunConfig(box=20.0, half_window=4.0, dt=0.25)
    lat0, lat1 = lattice_for(cfg, 0), lattice_for(cfg, 1)
    for color in ("red", "blue"):
        w = random_colored_wave(lat0, color, 0, 1 / 20, seed=7)
        views = {"plus": (w.modes_plus, w.vals_plus), "minus": (w.modes_minus, w.vals_minus)}
        held, other = (views["plus"], views["minus"]) if color == "red" \
            else (views["minus"], views["plus"])
        assert held[0] is w.modes and held[1] is w.vals and len(held[1]) > 0
        assert other[0].shape == (0, 2) and other[0].dtype == np.int64
        assert other[1].shape == (0,) and other[1].dtype == np.complex128
        e = w.embed(lat1)
        assert e.lattice is lat1 and (e.color, e.k) == (color, 0)
        assert e.modes is w.modes and e.vals is w.vals
        n = w.normalize_mass(3.0)
        assert n.color == color and abs(n.mass() - 3.0) <= 1e-12
