import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conewave.geometry import Tube, unit_dir
from conewave.extraction import extract_profile
from conewave.harness import (DEFAULT_KS, TRAIN_THETA, TRAIN_X0, PsiSpec,
                              fungibility_partition, interval_ratios_from_report,
                              sharpness_experiment, standard_suite, tube_sup_profile,
                              universal_tube_family, verify_profile)
from conewave.norms import (Quadrature, exact_product_quadrature, product_densities,
                            product_l2, region_slice_mask)
from conewave.waves import (SpectralWave, make_blue_tube_wave, make_red_cube_train,
                            plane_wave, zero_wave)
from conewave.lattice import lattice_for


def _outside_l2(phi, psi, tubes, quad):
    """Reference for the norm outside the tubes: the full-grid sums of
    |phi|^2 |psi|^2 on quad's grid, each field synthesized by ``evaluate``
    and masked by ``region_slice_mask``."""
    total = 0.0
    for t in quad.times:
        dens = (np.abs(phi.evaluate(t, quad.lattice)) * np.abs(psi.evaluate(t, quad.lattice))) ** 2
        mask = region_slice_mask(tubes, t, quad.lattice)
        total += float(dens.sum() if mask is None else dens[mask].sum())
    return math.sqrt(quad.dt * quad.cell_weight() * total)


@pytest.fixture(scope="module")
def train(small_config, lat0):
    tube = Tube(0.0, (6.0, 12.0), tuple(unit_dir(0.21)), half_length=4.0)
    w = make_red_cube_train(lat0, tube, None, seed=7,
                            half_window=small_config.half_window)
    return w.normalize_mass(1.0), tube


def test_universal_family_zero_wave(quad0, lat0):
    tubes, rem, trace = universal_tube_family(zero_wave(lat0, color="red"),
                                              0.2, quad0)
    assert tubes == [] and rem.mass() == 0.0


def test_universal_family_train(quad0, train):
    w, tube = train
    tubes, rem, trace = universal_tube_family(w, 0.3, quad0)
    assert tubes
    from conewave.geometry import dir_angle
    best = min(abs(dir_angle(t.omega) - 0.21) for t in tubes)
    assert best <= 1.0 / 16.0


def test_verify_profile_full_cover_gives_zero(small_config, lat0, train):
    w, _ = train
    # a tube wider than the torus removes everything
    blanket = Tube(0.0, (0.0, 0.0), (1.0, 0.0), half_length=None, radius=30.0)
    suite = [PsiSpec("random", 0, seed=1), PsiSpec("random", 1, seed=2)]
    report = verify_profile(w, [blanket], 0.2, suite, small_config)
    assert report.max_outside() == 0.0
    assert all(r.ratio_full > 0 for r in report.records)


def test_verify_profile_universality_records(small_config, train):
    w, tube = train
    suite = [PsiSpec("random", 0, seed=3),
             PsiSpec("packet", 0, t0=0.0, x0=tuple(tube.x0), theta=0.21)]
    report = verify_profile(w, [], 0.2, suite, small_config)
    # with no tubes excluded the outside ratio equals the full ratio
    for r in report.records:
        assert r.ratio_outside == pytest.approx(r.ratio_full, rel=1e-12)
    assert report.min_adversarial_full() >= max(
        r.ratio_full for r in report.records if r.kind == "random")


def test_tube_sup_profile_and_partition(quad0, small_config, lat0):
    # constant-modulus wave and a single window tube: g is constant, the split
    # is the arithmetic tiling
    w = plane_wave(lat0, (25, 2), lat0.box)   # mass 1, |field| = 1/L
    tube = Tube(0.0, (5.0, 5.0), (1.0, 0.0), half_length=None)
    g = tube_sup_profile(w, [tube], quad0)
    assert np.allclose(g, g[0])
    delta = 0.2
    intervals = fungibility_partition(w, [tube], delta, quad0)
    total = g.sum() * quad0.dt
    expect = math.ceil(total / delta ** 2)
    assert abs(len(intervals) - expect) <= 1
    # every interval re-verified by direct quadrature
    for lo, hi in intervals:
        sel = (quad0.times >= lo - 1e-12) & (quad0.times < hi - 1e-12)
        assert quad0.dt * g[sel].sum() <= delta ** 2 + 1e-12
    # intervals tile the window
    assert intervals[0][0] == quad0.times[0]
    for a, b in zip(intervals[:-1], intervals[1:]):
        assert a[1] == b[0]


def test_fungibility_empty_tubes_single_interval(quad0, train):
    w, _ = train
    intervals = fungibility_partition(w, [], 0.2, quad0)
    assert len(intervals) == 1


def test_fungibility_rows_from_the_report(small_config, quad0, train):
    w, tube = train
    tubes, _, _ = universal_tube_family(w, 0.3, quad0)
    intervals = fungibility_partition(w, tubes, 0.3, quad0)
    suite = [PsiSpec("random", 0, seed=5), PsiSpec("random", 2, seed=6),
             PsiSpec("packet", 2, x0=(4.0, 6.0), theta=0.1)]
    report = verify_profile(w, [], 0.3, suite, small_config, keep_slice_sums=True)
    rows = interval_ratios_from_report(report, intervals, small_config)
    assert len(rows) == len(suite) * len(intervals)
    assert [(r["kind"], r["k"], r["t_lo"], r["t_hi"]) for r in rows] == \
        [(spec.kind, spec.k, lo, hi) for spec in suite for lo, hi in intervals]
    # interval squared ratios recombine to the record's full ratio
    for rec in report.records:
        ratios = [r["ratio"] for r in rows if (r["kind"], r["k"]) == (rec.kind, rec.k)]
        assert sum(r * r for r in ratios) == pytest.approx(rec.ratio_full ** 2, rel=1e-12)


@settings(max_examples=6, deadline=None)
@given(parts=st.lists(st.tuples(st.sampled_from(["random", "packet"]),
                                st.integers(0, 3), st.integers(0, 10_000)),
                      min_size=1, max_size=3))
def test_no_tube_sums_run_exactly_on_the_halved_grid(small_config, train, parts):
    # with no tubes excluded, verify_profile sums each scale on
    # exact_product_quadrature's grid: its kept slice sums are the fine-grid
    # definition's, and phi and each partner are synthesized once per slice
    w, _ = train
    suite = [PsiSpec(kind, k, seed=seed, x0=(seed % 20, 6.0), theta=0.1)
             for kind, k, seed in parts]
    psis = [spec.build(small_config) for spec in suite]
    real = SpectralWave.evaluate
    sizes = []

    def counting(self, t, lattice=None):
        sizes.append((lattice or self.lattice).size)
        return real(self, t, lattice)

    with mock.patch.object(SpectralWave, "evaluate", counting):
        report = verify_profile(w, [], 0.2, suite, small_config, keep_slice_sums=True)
    n_t = len(small_config.time_samples())
    at = 0
    for k in sorted({spec.k for spec in suite}):
        scale = [psi for spec, psi in zip(suite, psis) if spec.k == k]
        quad = Quadrature(small_config, lattice_for(small_config, k))
        n = exact_product_quadrature(quad, w, scale).lattice.size
        if k >= 2:                       # e.g. 160, not 320, at k = 2
            assert n <= quad.lattice.size // 2
        calls = n_t * (1 + len(scale))
        assert sizes[at:at + calls] == [n] * calls
        at += calls
    assert at == len(sizes)
    by_k = sorted(range(len(suite)), key=lambda j: suite[j].k)     # the records' order
    for j, rec in zip(by_k, report.records):
        quad = Quadrature(small_config, psis[j].lattice)
        fine = [quad.cell_weight() * float(dens.sum())
                for _, _, _, dens in product_densities(w, (psis[j],), quad)]
        np.testing.assert_allclose(rec.slice_sums, fine, rtol=1e-12, atol=0.0)


def test_composition_soundness(small_config, quad0, train):
    # removing the partner's own exceptional tubes on top of the universal
    # family can only shrink the outside norm
    from conewave.blue_exceptional import exceptional_tubes_for_blue
    w, tube = train
    tubes, _, _ = universal_tube_family(w, 0.3, quad0)
    lat = lat0 = w.lattice
    quad = quad0
    psi = make_blue_tube_wave(lat, 0.0, tuple(tube.x0), tube.omega, 0)
    blue = exceptional_tubes_for_blue(psi, 0.3, quad)
    a = _outside_l2(w, psi, tuple(tubes), quad)
    b = _outside_l2(w, psi, tuple(tubes) + tuple(blue), quad)
    assert b <= a + 1e-12


def test_fungibility_vacuous_at_ratio_ceiling(small_config, quad0, train):
    # one full-window interval passes once delta reaches the plain bilinear
    # ratio ceiling of the random suite
    w, _ = train
    suite = [PsiSpec("random", 0, seed=11)]
    lat = lattice_for(small_config, 0)
    quad = Quadrature(small_config, lat)
    psi = suite[0].build(small_config)
    ceiling = product_l2(w, psi, quad) / math.sqrt(w.mass() * psi.mass())
    delta = 2.0 * ceiling
    whole = [(-small_config.half_window, small_config.half_window)]
    report = verify_profile(w, [], delta, suite, small_config, keep_slice_sums=True)
    rows = interval_ratios_from_report(report, whole, small_config)
    from conewave.constants import C_F
    assert all(r["ratio"] <= C_F * delta for r in rows)


def test_sharpness_rows_match_direct(small_config):
    rows = sharpness_experiment(small_config, ks=(0,), seeds=(3,),
                                theta=0.21, x0=(6.0, 12.0))
    assert len(rows) == 1
    r = rows[0]
    lat = lattice_for(small_config, 0)
    quad = Quadrature(small_config, lat)
    tube = Tube(0.0, (6.0, 12.0), tuple(unit_dir(0.21)), half_length=1.0)
    train = make_red_cube_train(lat, tube, None, seed=3).normalize_mass(1.0)
    psi = make_blue_tube_wave(lat, 0.0, (6.0, 12.0), unit_dir(0.21), 0)
    direct = product_l2(train, psi, quad) / math.sqrt(train.mass() * psi.mass())
    assert r["rho"] == pytest.approx(direct, rel=1e-12)
    assert r["p"] == pytest.approx(5.0 / 3.0)


def test_standard_suite_shapes():
    suite = standard_suite(seeds_per_k=2, base_seed=7)
    kinds = [s.kind for s in suite]
    assert kinds.count("random") == 8 and kinds.count("packet") == 4
    # the random partners scale by scale, then one packet per scale, aimed
    # along the standard train
    assert [(s.kind, s.k) for s in suite] == [("random", k) for k in DEFAULT_KS
                                             for _ in range(2)] + [("packet", k) for k in DEFAULT_KS]
    packets = [s for s in suite if s.kind == "packet"]
    assert all((s.t0, s.x0, s.theta) == (0.0, TRAIN_X0, TRAIN_THETA) for s in packets)
    # deterministic seeds
    suite2 = standard_suite(seeds_per_k=2, base_seed=7)
    assert [s.seed for s in suite] == [s.seed for s in suite2]


# ---------------------------------------------------------------------------
# one synthesis per field and time slice

def test_verify_profile_synthesizes_phi_once_per_slice(small_config, train,
                                                      evaluate_calls):
    w, tube = train
    suite = [PsiSpec("random", 0, seed=21), PsiSpec("random", 0, seed=22),
             PsiSpec("packet", 0, t0=0.0, x0=tuple(tube.x0), theta=0.21)]
    report = verify_profile(w, [tube.dilate(2.0)], 0.2, suite, small_config)
    n_t = len(small_config.time_samples())
    assert len(evaluate_calls) == n_t * (1 + len(suite))
    assert len(set(evaluate_calls)) == len(evaluate_calls)
    assert len(report.records) == len(suite)
    # the records match one pair at a time
    lat = lattice_for(small_config, 0)
    quad = Quadrature(small_config, lat)
    for spec, rec in zip(suite, report.records):
        psi = spec.build(small_config)
        out = _outside_l2(w, psi, (tube.dilate(2.0),), quad) / rec.denom
        assert rec.ratio_outside == pytest.approx(out, rel=1e-12)


def test_sharpness_synthesizes_each_field_once_per_slice(small_config,
                                                        evaluate_calls):
    sharpness_experiment(small_config, ks=(0, 1), seeds=(3,), theta=0.21,
                         x0=(6.0, 12.0))
    n_t = len(small_config.time_samples())
    assert len(evaluate_calls) == 2 * 2 * n_t
    assert len(set(evaluate_calls)) == len(evaluate_calls)


def test_calibration_measures_the_artifacts_it_is_given(small_config, quad0, train,
                                                        monkeypatch):
    from conewave import calibration
    tubes, _, trace = extract_profile(train[0], 0.3, quad0, max_iter=200)
    extraction = (tubes, trace, 0.1)
    universal = universal_tube_family(train[0], 0.3, quad0)
    suite = [s for s in standard_suite(seeds_per_k=1) if s.k == 0]
    report = verify_profile(train[0], universal[0], 0.2, suite, small_config)
    rows = sharpness_experiment(small_config, ks=(0,), seeds=(42,))
    for name in ("standard_train", "extract_profile", "find_concentrating_tube",
                 "universal_tube_family", "verify_profile", "sharpness_experiment"):
        monkeypatch.setattr(calibration, name, None)     # a rebuild raises TypeError
    out = calibration.measure(small_config, train, extraction, universal, report, rows)
    assert out["extract0.2(steps)"] == len(trace)
    assert out["extract0.2(remainder conc)"] == 0.1
    assert out["universal(tubes)"] == len(universal[0])
    assert out["profile(time s)"] == round(report.elapsed, 1)
    assert out["sharpness_rho(min,max)"] == (rows[0]["rho"],) * 2


def test_calibrate_builds_each_artifact_once_and_measures_it(monkeypatch):
    from conewave import calibration
    calls = {}
    train = ("train wave", "train tube")
    universal = ("universal tubes", "universal remainder", "universal trace")
    built = {"standard_train": train,
             "extract_profile": ("tubes", "remainder", "trace"),
             "find_concentrating_tube": ("tube", 0.125),
             "universal_tube_family": universal,
             "verify_profile": "report",
             "sharpness_experiment": "rows"}

    def recording(name, result):
        def fake(*args, **kwargs):
            calls.setdefault(name, []).append(args)
            return result
        return fake

    for name, result in built.items():
        monkeypatch.setattr(calibration, name, recording(name, result))
    monkeypatch.setattr(calibration, "measure", recording("measure", {"measured": 1.0}))
    out = calibration.calibrate()
    assert {name: len(args) for name, args in calls.items()} == dict.fromkeys(
        [*built, "measure"], 1)
    # measure gets the built artifacts themselves, and the extraction of the
    # train's remainder is the one it searched
    _, got_train, extraction, got_universal, report, rows = calls["measure"][0]
    assert got_train is train and got_universal is universal
    assert extraction == ("tubes", "trace", 0.125)
    assert (report, rows) == ("report", "rows")
    assert calls["extract_profile"][0][0] == "train wave"
    assert calls["find_concentrating_tube"][0][0] == "remainder"
    assert calls["verify_profile"][0][:2] == ("train wave", "universal tubes")
    # the two wall times are added to measure's output
    assert set(out) == {"measured", "universal(time s)", "total calibration s"}
    assert out["measured"] == 1.0
