import math

import numpy as np
import pytest

from conewave.geometry import Region, Tube, unit_dir
from conewave.harness import (ProfileReport, PsiSpec, fungibility_partition,
                              sharpness_experiment, standard_suite,
                              tube_sup_profile, universal_tube_family,
                              verify_fungibility, verify_profile)
from conewave.norms import Quadrature, product_l2, product_slice_sums
from conewave.waves import (make_blue_tube_wave, make_red_cube_train, mass,
                            plane_wave, random_colored_wave, zero_wave)
from conewave.lattice import lattice_for


@pytest.fixture(scope="module")
def train(small_config, lat0):
    tube = Tube(0.0, (6.0, 12.0), tuple(unit_dir(0.21)), half_length=4.0)
    w = make_red_cube_train(lat0, tube, None, seed=7,
                            half_window=small_config.half_window)
    return w.normalize_mass(1.0), tube


def test_universal_family_zero_wave(quad0, lat0):
    tubes, rem, trace = universal_tube_family(zero_wave(lat0, color="red"),
                                              0.2, quad0)
    assert tubes == [] and mass(rem) == 0.0


def test_universal_family_train(quad0, train):
    w, tube = train
    tubes, rem, trace = universal_tube_family(w, 0.3, quad0, max_iter=200)
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


def test_verify_fungibility_rows(small_config, quad0, train):
    w, tube = train
    tubes, _, _ = universal_tube_family(w, 0.3, quad0, max_iter=100)
    intervals = fungibility_partition(w, tubes, 0.3, quad0)
    suite = [PsiSpec("random", 0, seed=5)]
    rows = verify_fungibility(w, intervals, suite, 0.3, small_config)
    assert len(rows) == len(intervals)
    # interval squared ratios recombine to the full-window ratio
    lat = lattice_for(small_config, 0)
    quad = Quadrature(small_config, lat)
    psi = suite[0].build(small_config)
    full = product_l2(w.embed(lat), psi, None, quad)
    denom = math.sqrt(mass(w) * mass(psi))
    recomb = math.sqrt(sum(r["ratio"] ** 2 for r in rows)) * denom
    assert recomb == pytest.approx(full, rel=1e-9)


def test_composition_soundness(small_config, quad0, train):
    # removing the partner's own exceptional tubes on top of the universal
    # family can only shrink the outside norm
    from conewave.blue_exceptional import exceptional_tubes_for_blue
    w, tube = train
    tubes, _, _ = universal_tube_family(w, 0.3, quad0, max_iter=100)
    lat = lat0 = w.lattice
    quad = quad0
    psi = make_blue_tube_wave(lat, 0.0, tuple(tube.x0), tube.omega, 0)
    blue = exceptional_tubes_for_blue(psi, 0.3, quad)
    r_uni = Region(-small_config.half_window, small_config.half_window, tuple(tubes))
    r_both = Region(-small_config.half_window, small_config.half_window,
                    tuple(tubes) + tuple(blue))
    a = product_l2(w, psi, r_uni, quad)
    b = product_l2(w, psi, r_both, quad)
    assert b <= a + 1e-12


def test_fungibility_vacuous_at_ratio_ceiling(small_config, quad0, train):
    # one full-window interval passes once delta reaches the plain bilinear
    # ratio ceiling of the random suite
    w, _ = train
    suite = [PsiSpec("random", 0, seed=11)]
    lat = lattice_for(small_config, 0)
    quad = Quadrature(small_config, lat)
    psi = suite[0].build(small_config)
    ceiling = product_l2(w, psi, None, quad) / math.sqrt(mass(w) * mass(psi))
    delta = 2.0 * ceiling
    whole = [(-small_config.half_window, small_config.half_window)]
    rows = verify_fungibility(w, whole, suite, delta, small_config)
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
    direct = product_l2(train, psi, None, quad) / math.sqrt(mass(train) * mass(psi))
    assert r["rho"] == pytest.approx(direct, rel=1e-12)
    assert r["p"] == pytest.approx(5.0 / 3.0)


def test_standard_suite_shapes():
    suite = standard_suite(ks=(0, 1), seeds_per_k=2, base_seed=7,
                           adversarial_axis=(0.0, (1.0, 2.0), 0.1))
    kinds = [s.kind for s in suite]
    assert kinds.count("random") == 4 and kinds.count("packet") == 2
    # deterministic seeds
    suite2 = standard_suite(ks=(0, 1), seeds_per_k=2, base_seed=7,
                            adversarial_axis=(0.0, (1.0, 2.0), 0.1))
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
    region = Region(-small_config.half_window, small_config.half_window,
                    (tube.dilate(2.0),))
    for spec, rec in zip(suite, report.records):
        psi = spec.build(small_config)
        out = product_l2(w.embed(lat), psi, region, quad) / rec.denom
        assert rec.ratio_outside == pytest.approx(out, rel=1e-12)


def test_verify_fungibility_synthesizes_phi_once_per_slice(small_config, train,
                                                           evaluate_calls):
    w, _ = train
    suite = [PsiSpec("random", 0, seed=5), PsiSpec("random", 0, seed=6)]
    whole = [(-small_config.half_window, small_config.half_window)]
    verify_fungibility(w, whole, suite, 0.3, small_config)
    n_t = len(small_config.time_samples())
    assert len(evaluate_calls) == n_t * (1 + len(suite))


def test_sharpness_synthesizes_each_field_once_per_slice(small_config,
                                                        evaluate_calls):
    sharpness_experiment(small_config, ks=(0, 1), seeds=(3,), theta=0.21,
                         x0=(6.0, 12.0))
    n_t = len(small_config.time_samples())
    assert len(evaluate_calls) == 2 * 2 * n_t
    assert len(set(evaluate_calls)) == len(evaluate_calls)
