"""Spans and counters recorded around conewave's public functions.

The program itself is not instrumented.  ``Tracer.install`` replaces each
wrapped function or method on every conewave module or class that holds it
(callers that imported a name directly see the wrapper too) and ``uninstall``
puts the originals back.  Spans carry parent links, so a layer's self time is
its duration minus the time covered by its child spans.
"""

from __future__ import annotations

import functools
import hashlib
import sys
import time
from collections import Counter

# (module, attribute) of every wrapped module-level function, by span name:
# the layers' public functions that the workloads' passes reach
FUNCTIONS = {
    "waves.construct": [("conewave.waves", "make_wave"),
                        ("conewave.waves", "random_colored_wave"),
                        ("conewave.waves", "make_blue_tube_wave"),
                        ("conewave.waves", "make_red_cube_train")],
    "norms.product_slice_sums": [("conewave.norms", "product_slice_sums")],
    "norms.lp_product": [("conewave.norms", "lp_product")],
    "norms.region_slice_mask": [("conewave.norms", "region_slice_mask")],
    "extraction.extract_profile": [("conewave.extraction", "extract_profile")],
    "extraction.find_concentrating_tube": [("conewave.extraction",
                                            "find_concentrating_tube")],
    "extraction.dual_witness": [("conewave.extraction", "dual_witness")],
    "extraction.build_extractor": [("conewave.extraction", "build_extractor")],
    "extraction.optimal_multiple": [("conewave.extraction", "optimal_multiple")],
    "harness.universal_tube_family": [("conewave.harness", "universal_tube_family")],
    "harness.verify_profile": [("conewave.harness", "verify_profile")],
    "harness.tube_sup_profile": [("conewave.harness", "tube_sup_profile")],
    "harness.fungibility_partition": [("conewave.harness", "fungibility_partition")],
    "harness.sharpness_experiment": [("conewave.harness", "sharpness_experiment")],
    "blue_exceptional.exceptional_tubes_for_blue": [
        ("conewave.blue_exceptional", "exceptional_tubes_for_blue")],
    "blue_exceptional.sector_weights": [("conewave.blue_exceptional", "sector_weights")],
    "blue_exceptional.frequency_cells": [("conewave.blue_exceptional", "frequency_cells")],
    "blue_exceptional.unit_cube_masses": [("conewave.blue_exceptional",
                                           "unit_cube_masses")],
    "tube_cover.greedy_tube_cover": [("conewave.tube_cover", "greedy_tube_cover")],
    "tube_cover.verify_pointwise_bound": [("conewave.tube_cover",
                                           "verify_pointwise_bound")],
}

# (module, class, method) of every wrapped method, by span name
METHODS = {
    "waves.evaluate": ("conewave.waves", "SpectralWave", "evaluate"),
    "extraction.search.init": ("conewave.extraction", "_TubeSearch", "__init__"),
    "extraction.search.bound": ("conewave.extraction", "_TubeSearch", "upper_bounds"),
    "extraction.search.exact": ("conewave.extraction", "_TubeSearch", "exact_norms"),
}

LATTICE_SIZES = (160, 320, 640, 1280)


def wave_digest(w) -> bytes:
    h = hashlib.blake2b(digest_size=16)
    for a in (w.modes_plus, w.vals_plus, w.modes_minus, w.vals_minus):
        h.update(a.tobytes())
    return h.digest()


class Tracer:
    """In-memory spans [name, start, end, parent] plus named counters."""

    def __init__(self):
        self.spans: list = []
        self.counters: Counter = Counter()
        self._stack: list = []
        self._restore: list = []
        self._digests: dict = {}       # id(wave) -> (wave, digest)
        self._synthesized: set = set()  # (digest, t, N) seen in this trace

    # -- spans ---------------------------------------------------------------

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent])
        idx = len(self.spans) - 1
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    def span(self, name: str, fn, before=None, after=None):
        """Wrap fn in a span; `before` may rewrite the keyword arguments and
        `after` reads the arguments and the result."""
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if before is not None:
                kwargs = before(args, kwargs)
            idx = self._open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if after is not None:
                after(args, kwargs, out)
            return out
        return wrapper

    # -- per-layer counters ----------------------------------------------------

    def _count_evaluate(self, args, kwargs):
        wave, t = args[0], args[1]
        lat = args[2] if len(args) > 2 else kwargs.get("lattice")
        n = (lat or wave.lattice).size
        self.counters[f"waves.evaluate.calls.N{n}"] += 1
        entry = self._digests.get(id(wave))
        if entry is None or entry[0] is not wave:
            entry = (wave, wave_digest(wave))
            self._digests[id(wave)] = entry
        key = (entry[1], float(t), n)
        if key in self._synthesized:
            self.counters["waves.evaluate.repeats"] += 1
        else:
            self._synthesized.add(key)
        return kwargs

    def _hooks(self) -> dict:
        """(before, after) per span name."""
        c = self.counters

        def count(key, amount):
            def after(args, kwargs, out):
                c[key] += amount(args, kwargs, out)
            return after

        def with_diagnostics(args, kwargs):
            # the cover reports its rounds only through a diagnostics object
            if len(args) < 4 and kwargs.get("diagnostics") is None:
                from conewave.tube_cover import CoverDiagnostics
                kwargs = dict(kwargs, diagnostics=CoverDiagnostics())
            return kwargs

        def cover(args, kwargs, out):
            diag = args[3] if len(args) > 3 else kwargs["diagnostics"]
            c["tube_cover.rounds"] += diag.rounds
            c["tube_cover.family_tubes"] += len(args[0])
            c["tube_cover.tubes_emitted"] += len(out)

        def verify_points(args, kwargs, out):
            family = args[0]
            samples = args[3] if len(args) > 3 else kwargs["samples"]
            axis = len(family) * (4 * 2 ** family.k + 1)   # axis samples every 1/2
            return max(samples, axis) if len(family) else 0

        return {
            "waves.evaluate": (self._count_evaluate, None),
            "tube_cover.greedy_tube_cover": (with_diagnostics, cover),
            "tube_cover.verify_pointwise_bound": (
                None, count("tube_cover.verify_points", verify_points)),
            "extraction.extract_profile": (
                None, count("extraction.steps", lambda a, k, o: len(o[2].steps))),
            "extraction.search.bound": (
                None, count("extraction.search.candidates", lambda a, k, o: int(o.size))),
            "extraction.search.exact": (
                None, count("extraction.search.exact_evaluated", lambda a, k, o: len(o))),
            "blue_exceptional.sector_weights": (
                None, count("blue_exceptional.sector_weights.calls", lambda a, k, o: 1)),
            "blue_exceptional.frequency_cells": (
                None, count("blue_exceptional.cells", lambda a, k, o: len(o))),
            "norms.region_slice_mask": (
                None, count("norms.region_slice_mask.calls", lambda a, k, o: 1)),
        }

    # -- installing the wrappers -----------------------------------------------

    def install(self) -> None:
        hooks = self._hooks()
        modules = [m for name, m in sys.modules.items()
                   if name == "conewave" or name.startswith("conewave.")]
        for name, targets in FUNCTIONS.items():
            for mod_name, attr in targets:
                orig = getattr(sys.modules[mod_name], attr)
                wrapped = self.span(name, orig, *hooks.get(name, (None, None)))
                for mod in modules:
                    if getattr(mod, attr, None) is orig:
                        self._restore.append((mod, attr, orig))
                        setattr(mod, attr, wrapped)
        for name, (mod_name, cls_name, attr) in METHODS.items():
            cls = getattr(sys.modules[mod_name], cls_name)
            orig = cls.__dict__[attr]
            self._restore.append((cls, attr, orig))
            setattr(cls, attr, self.span(name, orig, *hooks.get(name, (None, None))))

    def uninstall(self) -> None:
        for owner, attr, orig in reversed(self._restore):
            setattr(owner, attr, orig)
        self._restore.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    # -- reading the trace -------------------------------------------------------

    def total(self, name: str) -> float:
        """Time inside spans of this name, nested repeats counted once."""
        out = 0.0
        for s in self.spans:
            if s[0] != name:
                continue
            p = s[3]
            while p >= 0 and self.spans[p][0] != name:
                p = self.spans[p][3]
            if p < 0:
                out += s[2] - s[1]
        return out

    def self_time(self, name: str) -> float:
        """Time inside spans of this name not covered by their child spans."""
        dur = [s[2] - s[1] for s in self.spans]
        child = [0.0] * len(self.spans)
        for i, s in enumerate(self.spans):
            if s[3] >= 0:
                child[s[3]] += dur[i]
        return sum(dur[i] - child[i] for i, s in enumerate(self.spans) if s[0] == name)

    def layer_metrics(self) -> dict:
        """Every per-layer metric of one traced pass, by name: (value, unit)."""
        c = self.counters
        out = {f"waves.evaluate.calls.N{n}": (c[f"waves.evaluate.calls.N{n}"], "count")
               for n in LATTICE_SIZES}
        cand = c["extraction.search.candidates"]
        out.update({
            "waves.evaluate.s": (self.total("waves.evaluate"), "s"),
            "waves.evaluate.repeats": (c["waves.evaluate.repeats"], "count"),
            "waves.construct.s": (self.total("waves.construct"), "s"),
            "norms.product_slice_sums.s": (self.self_time("norms.product_slice_sums"), "s"),
            "norms.lp_product.s": (self.self_time("norms.lp_product"), "s"),
            "norms.region_slice_mask.s": (self.total("norms.region_slice_mask"), "s"),
            "norms.region_slice_mask.calls": (c["norms.region_slice_mask.calls"], "count"),
            "extraction.search.init.s": (self.total("extraction.search.init"), "s"),
            "extraction.search.bound.s": (self.total("extraction.search.bound"), "s"),
            "extraction.search.exact.s": (self.total("extraction.search.exact"), "s"),
            "extraction.search.candidates": (cand, "count"),
            "extraction.search.exact_evaluated": (c["extraction.search.exact_evaluated"],
                                                  "count"),
            "extraction.search.exact_share": (
                c["extraction.search.exact_evaluated"] / cand if cand else 0.0, "ratio"),
            "extraction.dual_witness.s": (self.total("extraction.dual_witness"), "s"),
            "extraction.build_extractor.s": (self.total("extraction.build_extractor"), "s"),
            "extraction.optimal_multiple.s": (self.total("extraction.optimal_multiple"), "s"),
            "extraction.steps": (c["extraction.steps"], "count"),
            "harness.verify_profile.s": (self.self_time("harness.verify_profile"), "s"),
            "harness.tube_sup_profile.s": (self.total("harness.tube_sup_profile"), "s"),
            "blue_exceptional.sector_weights.s": (
                self.self_time("blue_exceptional.sector_weights"), "s"),
            "blue_exceptional.sector_weights.calls": (
                c["blue_exceptional.sector_weights.calls"], "count"),
            "blue_exceptional.cells": (c["blue_exceptional.cells"], "count"),
            "blue_exceptional.unit_cube_masses.s": (
                self.total("blue_exceptional.unit_cube_masses"), "s"),
            "tube_cover.greedy_tube_cover.s": (self.total("tube_cover.greedy_tube_cover"), "s"),
            "tube_cover.rounds": (c["tube_cover.rounds"], "count"),
            "tube_cover.family_tubes": (c["tube_cover.family_tubes"], "count"),
            "tube_cover.tubes_emitted": (c["tube_cover.tubes_emitted"], "count"),
            "tube_cover.verify_pointwise_bound.s": (
                self.total("tube_cover.verify_pointwise_bound"), "s"),
            "tube_cover.verify_points": (c["tube_cover.verify_points"], "count"),
        })
        return out

    def dump(self) -> dict:
        return {"spans": [{"name": s[0], "start": s[1], "end": s[2], "parent": s[3]}
                          for s in self.spans],
                "counters": dict(self.counters)}
