"""Tests of the benchmark itself: every check passes on a correct result and
reports a failure on a perturbed one; the tracer counts and restores.

    python3 bench/selftest.py
"""

from __future__ import annotations

import copy
import math
import sys
import unittest
from unittest import mock
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import conewave.constants as C  # noqa: E402
from conewave.blue_exceptional import exceptional_tubes_for_blue, find_bad_cubes, \
    unit_cube_masses  # noqa: E402
from conewave.harness import PsiSpec, ProfileRecord, verify_profile  # noqa: E402
from conewave.lattice import lattice_for  # noqa: E402
from conewave import norms  # noqa: E402
from conewave.norms import Quadrature, product_slice_sums  # noqa: E402
from conewave.tube_cover import CoverDiagnostics, greedy_tube_cover, \
    verify_pointwise_bound  # noqa: E402
from conewave.waves import SpectralWave, make_blue_tube_wave, \
    random_colored_wave  # noqa: E402
from conewave.geometry import unit_dir  # noqa: E402

import checks  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

CFG = workloads.CONFIG
TIMES = CFG.time_samples()


def _pair(k=0):
    lat = lattice_for(CFG, k)
    phi = random_colored_wave(lattice_for(CFG, 0), "red", 0, 0.05, 11).embed(lat)
    psi = random_colored_wave(lat, "blue", k, 0.05, 12)
    return phi, psi, Quadrature(CFG, lat)


class BilinearChecks(unittest.TestCase):
    def test_slice_sums(self):
        phi, psi, quad = _pair()
        sums = product_slice_sums(phi, psi, quad)
        idx = [3, 30, 61]
        self.assertEqual(checks.check_slice_sums(phi, psi, sums, TIMES, 160, CFG.box, idx), [])
        bad = sums.copy()
        bad[30] *= 1.0 + 1e-9
        self.assertEqual(len(checks.check_slice_sums(phi, psi, bad, TIMES, 160, CFG.box, idx)),
                         1)

    def test_plancherel_fails_on_a_grid_that_folds_modes(self):
        # N = 80 folds the k=1 modes m and m - 80 onto one grid point
        phi, psi, quad = _pair(1)
        sums = product_slice_sums(phi, psi, quad)
        fails = checks.check_slice_sums(phi, psi, sums, TIMES, 80, CFG.box, [0])
        self.assertTrue(any("Plancherel fails for psi" in f for f in fails))

    def test_ratios(self):
        self.assertEqual(checks.check_bilinear_ratios({0: .1, 1: .1, 2: .1, 3: .1}), [])
        self.assertEqual(len(checks.check_bilinear_ratios({0: .1, 1: .1, 2: .1, 3: .17})), 1)
        self.assertEqual(len(checks.check_bilinear_ratios({0: .05, 1: .1, 2: .1, 3: .11})), 1)

    def test_sharpness(self):
        rows = [{"rho": 0.5, "lp_scaled": 0.6}, {"rho": 0.45, "lp_scaled": 0.62}]
        self.assertEqual(checks.check_sharpness(rows), [])
        for bad in ({"rho": 0.2, "lp_scaled": 0.6}, {"rho": 0.5, "lp_scaled": 0.81},
                    {"rho": 1.6, "lp_scaled": 0.6}):
            self.assertEqual(len(checks.check_sharpness(rows + [bad])), 1, bad)


class ProfileChecks(unittest.TestCase):
    def test_trace(self):
        floor = checks.decrement_floor(0.02)
        steps = [SimpleNamespace(mass_before=1.0, mass_after=1.0 - 2 * floor)]
        trace = SimpleNamespace(steps=steps, completed=True)
        self.assertEqual(checks.check_trace(trace, 0.02), [])
        steps.append(SimpleNamespace(mass_before=0.5, mass_after=0.5 - 0.9 * floor))
        self.assertEqual(len(checks.check_trace(trace, 0.02)), 1)
        trace.completed = False
        self.assertEqual(len(checks.check_trace(trace, 0.02)), 2)

    def test_remainder(self):
        self.assertEqual(checks.check_remainder(0.0199, 0.02), [])
        self.assertEqual(len(checks.check_remainder(0.02, 0.02)), 1)

    def test_records(self):
        good = [ProfileRecord("random", 0, 1, 0.03, 0.1),
                ProfileRecord("packet", 0, 0, 0.002, 0.4)]
        self.assertEqual(checks.check_profile_records(good, 0.2), [])
        for bad in (ProfileRecord("random", 1, 2, 0.051, 0.1),
                    ProfileRecord("random", 1, 2, 0.03, 0.029),
                    ProfileRecord("packet", 1, 0, 0.002, 0.25)):
            self.assertEqual(len(checks.check_profile_records(good + [bad], 0.2)), 1, bad)

    def test_ratio_full_and_intervals(self):
        phi = workloads._train()
        spec = PsiSpec("random", 0, seed=5)
        report = verify_profile(phi, [], 0.2, [spec], CFG, keep_slice_sums=True)
        rec = report.records[0]
        args = (TIMES, CFG.dt, 160, CFG.box)
        self.assertEqual(checks.check_ratio_full(phi, spec.build(CFG), rec, *args), [])
        off = copy.copy(rec)
        off.slice_sums = rec.slice_sums.copy()
        off.slice_sums[17] *= 1.0 + 1e-9
        self.assertEqual(len(checks.check_ratio_full(phi, spec.build(CFG), off, *args)), 1)
        off = replace(rec, ratio_full=rec.ratio_full * (1.0 + 1e-9))
        self.assertEqual(len(checks.check_ratio_full(phi, spec.build(CFG), off, *args)), 1)

        intervals = [(-8.0, -2.5), (-2.5, 4.0), (4.0, 8.0)]
        rows = []
        for lo, hi in intervals:
            sel = (TIMES >= lo) & (TIMES < hi)
            rows.append({"kind": rec.kind, "k": rec.k, "seed": rec.seed,
                         "ratio": math.sqrt(CFG.dt * rec.slice_sums[sel].sum()) / rec.denom})
        self.assertEqual(checks.check_intervals(intervals, rows, [rec], -8.0, 8.0), [])
        gap = [(-8.0, -2.5), (-2.25, 4.0), (4.0, 8.0)]
        self.assertEqual(len(checks.check_intervals(gap, rows, [rec], -8.0, 8.0)), 1)
        short = [(-8.0, -2.5), (-2.5, 4.0), (4.0, 7.75)]
        self.assertEqual(len(checks.check_intervals(short, rows, [rec], -8.0, 8.0)), 1)
        rows[1] = dict(rows[1], ratio=rows[1]["ratio"] * (1.0 + 1e-9))
        self.assertEqual(len(checks.check_intervals(intervals, rows, [rec], -8.0, 8.0)), 1)


class BlueChecks(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        lat = lattice_for(CFG, 0)
        cls.psi = make_blue_tube_wave(lat, 1.0, (12.0, 7.0), unit_dir(0.1), 0)
        cls.quad = Quadrature(CFG, lat)
        cls.t_corners, cls.masses = unit_cube_masses(cls.psi, cls.quad)
        cls.bad = checks.bad_cube_centers(cls.masses, cls.t_corners[0], 0.04 * cls.psi.mass())
        cls.tubes = exceptional_tubes_for_blue(cls.psi, 0.2, cls.quad)

    def test_mass_total(self):
        self.assertEqual(checks.check_cube_mass_total(self.masses, self.psi.mass(), 16.0), [])
        m = self.masses.copy()
        m[8, 12, 7] *= 1.0 + 1e-6
        self.assertEqual(len(checks.check_cube_mass_total(m, self.psi.mass(), 16.0)), 1)

    def test_coverage(self):
        self.assertTrue(self.bad)
        self.assertEqual(checks.check_blue_tubes(self.bad, self.tubes, CFG.box, 0.2), [])
        cube = sorted(self.bad)[0]
        t, x = checks.cube_samples(cube)
        kept = [tb for tb in self.tubes
                if not checks.in_tube(tb, t, x, CFG.box, 3.0).any()]
        self.assertLess(len(kept), len(self.tubes))
        self.assertTrue(checks.check_blue_tubes(self.bad, kept, CFG.box, 0.2))
        budget = int(C.K_EXC * 0.2 ** -C.K_E)
        many = (self.tubes * (budget // len(self.tubes) + 1))[:budget + 1]
        self.assertEqual(len(checks.check_blue_tubes(self.bad, many, CFG.box, 0.2)), 1)

    def test_bad_cube_lists(self):
        own = checks.cube_masses(self.psi, TIMES, CFG.dt, 160, CFG.box)
        own_bad = checks.bad_cube_centers(own, -8.0, 0.04 * self.psi.mass())
        listed = {c.center for c in find_bad_cubes(self.psi, 0.2, self.quad)}
        self.assertEqual(checks.check_bad_cube_lists(listed, own_bad, 0.2), [])
        self.assertEqual(len(checks.check_bad_cube_lists(set(sorted(listed)[1:]), own_bad,
                                                         0.2)), 1)


class CoverChecks(unittest.TestCase):
    def test_cover_with_its_class_removed(self):
        # one heavy bundle: a single round, whose tubes alone cover the bundle
        with mock.patch.object(workloads, "BUNDLE_WEIGHTS", (0.6,)):
            fam = workloads._cover_family(np.random.default_rng(3), 1, 120)
        delta = 0.25
        diag = CoverDiagnostics()
        tubes = greedy_tube_cover(fam, delta, diagnostics=diag)
        res = verify_pointwise_bound(fam, tubes, delta, 20_000, seed=1)
        own = checks.brute_force_residual(fam, tubes, 5_000, seed=2)
        self.assertEqual(diag.rounds, 1)
        self.assertEqual(checks.check_cover(diag.rounds, tubes, res, own, delta, True), [])
        dropped = [t for t in tubes if t not in diag.class_tubes[0]]
        own = checks.brute_force_residual(fam, dropped, 5_000, seed=2)
        self.assertEqual(len(checks.check_cover(diag.rounds, dropped, res, own, delta, True)),
                         1)

    def test_cover_bounds(self):
        t = []
        self.assertEqual(len(checks.check_cover(0, t, 0.0, 0.0, 0.25, True)), 1)
        self.assertEqual(checks.check_cover(0, t, 0.0, 0.0, 0.25, False), [])
        self.assertEqual(len(checks.check_cover(9, t, 0.0, 0.0, 0.25, False)), 1)
        self.assertEqual(len(checks.check_cover(1, t, 0.26, 0.0, 0.25, False)), 1)
        self.assertEqual(len(checks.check_cover(1, [None] * 4097, 0.0, 0.0, 0.25, False)), 1)

    def test_brute_force_residual_counts_every_tube_through_a_point(self):
        fam = workloads._cover_family(np.random.default_rng(4), 0, 60)
        self.assertAlmostEqual(checks.brute_force_residual(fam, [], 0, seed=0),
                               float(np.max(fam.membership(*_axis(fam)) @ fam.weights)))


def _axis(fam):
    ts = np.arange(-1.0, 1.25, 0.5)
    pts = np.concatenate([t.axis_at(ts) % fam.box for t in fam.tubes])
    return np.tile(ts, len(fam)), pts


class TracerTests(unittest.TestCase):
    def test_counts_repeats_and_restores(self):
        phi, psi, quad = _pair()
        original = SpectralWave.__dict__["evaluate"]
        with tracing.Tracer() as tr:
            norms.product_slice_sums(phi, psi, quad)
            norms.product_slice_sums(phi, psi, quad)
        self.assertIs(SpectralWave.__dict__["evaluate"], original)
        self.assertEqual(tr.counters["waves.evaluate.calls.N160"], 256)
        self.assertEqual(tr.counters["waves.evaluate.repeats"], 128)
        m = tr.layer_metrics()
        self.assertGreater(m["norms.product_slice_sums.s"][0], 0.0)
        self.assertLess(m["norms.product_slice_sums.s"][0],
                        tr.total("norms.product_slice_sums"))
        self.assertAlmostEqual(tr.total("norms.product_slice_sums"),
                               m["norms.product_slice_sums.s"][0] + tr.total("waves.evaluate")
                               + tr.total("norms.region_slice_mask"), places=9)


if __name__ == "__main__":
    unittest.main()
