"""Acceptance suite: one test per criterion, at the default configuration.

Every criterion test prints a single "ACCEPTANCE <n> PASS/FAIL" line with its
measured quantities, then asserts the frozen bound.  The expensive artifacts
(the standard cube train, its delta = 0.2 extraction, universal tube family and
partner-suite report, the sharpness rows) are module fixtures, shared with the
calibration check; criterion 10 closes with the wall-clock and
bit-reproducibility checks.
"""

import hashlib
import math
import time
from dataclasses import replace

import numpy as np
import pytest

import conewave.constants as C
from conewave.blue_exceptional import exceptional_tubes_for_blue, unit_cube_masses
from conewave.calibration import measure
from conewave.config import RunConfig
from conewave.extraction import (_TubeSearch, build_extractor, dual_witness,
                                 extract_profile, find_concentrating_tube,
                                 optimal_multiple)
from conewave.geometry import Cube, Tube, cube_touches_tube, dir_angle, unit_dir
from conewave.harness import (TRAIN_THETA, interval_ratios_from_report, sharpness_experiment,
                              split_window, standard_suite, standard_train,
                              tube_sup_profile, universal_tube_family, verify_profile)
from conewave.lattice import lattice_for
from conewave.norms import Quadrature, product_l2
from conewave.tube_cover import (CoverDiagnostics, WeightedTubeFamily,
                                 greedy_tube_cover, verify_pointwise_bound)
from conewave.waves import inner_product, make_blue_tube_wave, random_colored_wave

pytestmark = pytest.mark.acceptance

T_SUITE_START = time.time()

DELTA = 0.2


def _announce(num, ok, detail):
    print(f"\nACCEPTANCE {num} {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {num}: {detail}"


@pytest.fixture(scope="module")
def config():
    return RunConfig()


@pytest.fixture(scope="module")
def quad0(config):
    return Quadrature(config, lattice_for(config, 0))


@pytest.fixture(scope="module")
def train(config):
    return standard_train(config)


@pytest.fixture(scope="module")
def extraction(train, quad0):
    """((tubes, trace, remainder concentration), seconds) of the train's
    extraction at delta and of the search on its remainder."""
    t0 = time.time()
    tubes, rem, trace = extract_profile(train[0], DELTA, quad0, max_iter=400)
    _, rem_conc = find_concentrating_tube(rem, DELTA, quad0, threshold=0.0)
    return (tubes, trace, rem_conc), time.time() - t0


@pytest.fixture(scope="module")
def universal(train, quad0):
    w, _ = train
    return universal_tube_family(w, DELTA, quad0)


@pytest.fixture(scope="module")
def profile_report(train, universal, config):
    w, _ = train
    tubes, _, _ = universal
    suite = standard_suite(seeds_per_k=10, base_seed=1000)
    return verify_profile(w, tubes, DELTA, suite, config, keep_slice_sums=True)


@pytest.fixture(scope="module")
def sharpness_rows(config):
    return sharpness_experiment(config, seeds=(42, 43))


def test_c01_conservation(config):
    t0 = time.time()
    worst = 0.0
    count = 0
    plan = [(0, 40), (1, 30), (2, 20), (3, 10)]
    times = np.linspace(-config.half_window, config.half_window, 9)
    for k, n in plan:
        lat = lattice_for(config, k)
        for j in range(n):
            color = "red" if j % 2 == 0 else "blue"
            w = random_colored_wave(lat, color, k, 1 / 20, seed=2000 + 13 * k + j)
            ref = math.sqrt(w.mass())
            for t in times:
                nrm = math.sqrt(float((np.abs(w.evaluate(t)) ** 2).sum())
                                * lat.spacing ** 2)
                worst = max(worst, abs(nrm - ref) / ref)
            count += 1
    elapsed = time.time() - t0
    ok = worst <= 1e-9 and count == 100 and elapsed < 60.0
    _announce(1, ok, f"max relative L2 drift {worst:.2e} over 100 waves x 9 times "
                     f"(tol 1e-9), {elapsed:.1f}s < 60s")


def test_c02_pairing_duality(config, quad0, train):
    # four extraction steps on each of five waves; the witness tube is the
    # argmax of the concentration search whatever its level, since the
    # criterion measures the spectral/time-domain pairing agreement
    w0, _ = train
    waves = [w0] + [random_colored_wave(lattice_for(config, 0), "red", 0,
                                        1 / 20, seed=2100 + j) for j in range(4)]
    worst = 0.0
    collected = 0
    for w in waves:
        current = w
        m_target = current.margin() - 1.0 / config.box
        for _ in range(4):
            search = _TubeSearch(current, quad0)
            tube, _ = find_concentrating_tube(current, 0.25, quad0, threshold=0.0, search=search)
            if tube is None:
                break
            wit = dual_witness(current, tube, quad0, search)
            F = build_extractor(current.lattice, wit, m_target)
            spectral = inner_product(current, F)
            timedom = wit.pairing_time_domain()
            worst = max(worst, abs(spectral - timedom) / abs(timedom))
            collected += 1
            step = optimal_multiple(current, F)
            current = current.sub(F, coeff=step.mu)
    ok = collected >= 20 and worst <= 1e-6
    _announce(2, ok, f"{collected} witnesses, max relative pairing gap "
                     f"{worst:.2e} (tol 1e-6)")


def test_c03_bilinear_uniformity(config):
    t0 = time.time()
    lat0 = lattice_for(config, 0)
    max_ratio = {}
    for k in (0, 1, 2, 3):
        lat = lattice_for(config, k)
        quad = Quadrature(config, lat)
        vals = []
        for j in range(25):
            phi = random_colored_wave(lat0, "red", 0, 1 / 20,
                                      seed=3000 + j).embed(lat)
            psi = random_colored_wave(lat, "blue", k, 1 / 20, seed=4000 + 97 * k + j)
            vals.append(product_l2(phi, psi, quad))
        max_ratio[k] = max(vals)
    elapsed = time.time() - t0
    ok = (max_ratio[3] <= 2.0 * max_ratio[0]
          and all(v <= C.C_STAR for v in max_ratio.values())
          and elapsed < 300.0)
    _announce(3, ok, "max ratios " +
              " ".join(f"k{k}={v:.4f}" for k, v in max_ratio.items()) +
              f" (k3 <= 2*k0; all <= C*={C.C_STAR}), {elapsed:.0f}s < 300s")


def test_c04_sharpness(sharpness_rows):
    rhos = [r["rho"] for r in sharpness_rows]
    lp = max(r["lp_scaled"] for r in sharpness_rows)
    spread = max(rhos) / min(rhos)
    ok = (min(rhos) >= C.RHO_MIN and spread <= C.RHO_SPREAD_MAX
          and lp <= C.C_LP_SCALED)
    _announce(4, ok, f"rho in [{min(rhos):.3f},{max(rhos):.3f}] spread "
                     f"{spread:.2f} <= {C.RHO_SPREAD_MAX}, floor {C.RHO_MIN}; "
                     f"scaled Lp max {lp:.3f} <= {C.C_LP_SCALED}")


def _random_family(config, seed, k, n_tubes):
    rng = np.random.default_rng(seed)
    half = 2.0 ** k
    anchors = []
    dirs = []
    tubes = []
    while len(tubes) < n_tubes:
        x0 = rng.uniform(0.0, config.box, size=2)
        th = rng.uniform(-math.pi / 8, math.pi / 8)
        om = unit_dir(th)
        ok = True
        for a, d in zip(anchors, dirs):
            dx = x0 - a
            dx -= config.box * np.round(dx / config.box)
            if np.linalg.norm(dx) + half * np.linalg.norm(om - d) < C.S_MIN:
                ok = False
                break
        if ok:
            anchors.append(x0)
            dirs.append(om)
            tubes.append(Tube(0.0, tuple(x0), tuple(om), half_length=half))
    w = rng.uniform(0.1, 1.0, size=n_tubes)
    w /= w.sum()
    return WeightedTubeFamily(tuple(tubes), w, k, config.box)


def test_c05_covering_lemma(config):
    t0 = time.time()
    worst_residual = 0.0
    for i in range(20):
        k = i % 4
        n = 80 + (i * 17) % 121      # up to 200 tubes
        fam = _random_family(config, seed=5000 + i, k=k, n_tubes=n)
        fam.check_separation()
        for delta in (0.5, 0.25, 0.1):
            diag = CoverDiagnostics()
            exc = greedy_tube_cover(fam, delta, diagnostics=diag)
            assert diag.rounds <= math.ceil(2.0 / delta), "round budget"
            assert len(exc) <= C.K_COV * delta ** -3, "tube budget"
            res = verify_pointwise_bound(fam, exc, delta, 100_000, seed=i)
            worst_residual = max(worst_residual, res / delta)
            assert res <= delta, f"residual {res} above {delta}"
    elapsed = time.time() - t0
    ok = elapsed < 300.0
    _announce(5, ok, f"20 families x 3 deltas: rounds/budget/residual hold, "
                     f"worst residual/delta {worst_residual:.3f}, "
                     f"{elapsed:.0f}s < 300s")


def test_c06_blue_exceptional(config):
    t0 = time.time()
    cases = []
    for k in (0, 1, 2, 3):
        lat = lattice_for(config, k)
        for j in range(5):
            cases.append(("random", random_colored_wave(
                lat, "blue", k, 1 / 20, seed=6000 + 11 * k + j)))
        th = 0.05 + 0.07 * k
        cases.append(("packet", make_blue_tube_wave(
            lat, 0.0, (8.0 + 3 * k, 15.0 + 2 * k), unit_dir(th), k)))
    worst_count = 0
    uncovered = 0
    for label, psi in cases:
        quad = Quadrature(config, psi.lattice)
        t_corners, masses = unit_cube_masses(psi, quad)
        for delta in (0.2, 0.1):
            cut = delta * delta * psi.mass()
            bad = [(t_corners[i] + 0.5, a + 0.5, b + 0.5)
                   for i, a, b in zip(*np.where(masses > cut))]
            tubes = exceptional_tubes_for_blue(psi, delta, quad)
            budget = C.K_EXC * delta ** -C.K_E
            worst_count = max(worst_count, len(tubes) / budget)
            assert len(tubes) <= budget
            for center in bad:
                if not any(cube_touches_tube(Cube(center), t, config.box, 3.0)
                           for t in tubes):
                    uncovered += 1
    elapsed = time.time() - t0
    ok = uncovered == 0
    _announce(6, ok, f"24 waves x 2 deltas: {uncovered} uncovered bad cubes, "
                     f"max count/budget {worst_count:.3f}, {elapsed:.0f}s")


def test_c07_extraction(extraction):
    (tubes, trace, rem_conc), elapsed = extraction
    floor = C.C_DEC * DELTA ** 2 / math.log(1.0 / DELTA)
    budget = math.ceil(1.0 / (C.C_DEC * DELTA ** 3))
    first_dir = dir_angle(tubes[0].omega)
    ok = (trace.completed
          and abs(first_dir - TRAIN_THETA) <= 1.0 / 16.0
          and all(s.decrement >= floor for s in trace.steps)
          and len(trace) <= budget
          and rem_conc < DELTA
          and elapsed < 600.0)
    _announce(7, ok, f"first dir {first_dir:.4f} vs {TRAIN_THETA:.4f} "
                     f"(tol 1/16); min decrement "
                     f"{min(s.decrement for s in trace.steps):.4f} >= {floor:.4f}; "
                     f"{len(trace)} <= {budget} steps; remainder conc "
                     f"{rem_conc:.4f} < {DELTA}; {elapsed:.0f}s < 600s")


def test_c08_profile_theorem(universal, profile_report, config, quad0):
    tubes, _, trace = universal
    report = profile_report
    bound = C.C_V * DELTA
    contrast_floor = C.ADVERSARIAL_MARGIN * bound
    adversarial = [r for r in report.records if r.kind == "packet"]
    randoms = [r for r in report.records if r.kind == "random"]
    budget = C.K_U * DELTA ** -C.K_P
    # budget stability: a fresh train seed lands within x1.5 of this count
    train2, _ = standard_train(config, seed=43)
    tubes2, _, _ = universal_tube_family(train2, DELTA, quad0)
    stable = len(tubes) / 1.5 <= len(tubes2) <= 1.5 * len(tubes)
    ok = (len(randoms) == 40 and len(adversarial) == 4
          and report.max_outside() <= bound
          and all(r.ratio_full > contrast_floor for r in adversarial)
          and len(tubes) <= budget and len(tubes2) <= budget and stable
          and report.elapsed < 600.0)
    _announce(8, ok, f"{len(tubes)} tubes (budget {budget:.0f}, seed-43 run "
                     f"{len(tubes2)}); max outside "
                     f"{report.max_outside():.4f} <= {bound:.3f}; adversarial "
                     f"full min {report.min_adversarial_full():.4f} > "
                     f"{contrast_floor:.3f}; verify {report.elapsed:.0f}s < 600s")


def test_c08_fails_when_the_tubes_miss_the_ray(train, universal, config):
    # the mutant: every universal tube moved by (20, 0), half the torus, off
    # the train's ray; the packets along the ray then read above the bound
    tubes, _, _ = universal
    moved = [replace(t, x0=(t.x0[0] + 20.0, t.x0[1])) for t in tubes]
    packets = [s for s in standard_suite(seeds_per_k=0) if s.k <= 2]
    report = verify_profile(train[0], moved, DELTA, packets, config)
    outside = [r.ratio_outside for r in report.records]
    print(f"\nc08 mutant: packets k = 0, 1, 2 outside the moved tubes "
          f"{', '.join(f'{v:.4f}' for v in outside)} > {C.C_V * DELTA:.3f}")
    assert len(outside) == 3 and min(outside) > C.C_V * DELTA


def test_c09_fungibility(train, universal, profile_report, quad0, config):
    w, _ = train
    tubes, _, _ = universal
    g = tube_sup_profile(w, tubes, quad0)
    g_total = float(g.sum() * quad0.dt)
    intervals = split_window(g, DELTA, quad0)
    rows = interval_ratios_from_report(profile_report, intervals, config)
    worst = max(r["ratio"] for r in rows)
    int_budget = C.K_I * DELTA ** -C.K_P
    ok = (len(intervals) <= int_budget
          and g_total <= C.K_G * DELTA ** -C.K_P
          and worst <= C.C_F * DELTA
          and all(quad0.dt * g[(quad0.times >= lo - 1e-12)
                               & (quad0.times < hi - 1e-12)].sum()
                  <= DELTA ** 2 + 1e-12 or (hi - lo) <= quad0.dt + 1e-12
                  for lo, hi in intervals))
    _announce(9, ok, f"{len(intervals)} intervals (budget {int_budget:.0f}); "
                     f"int g = {g_total:.2f} <= {C.K_G * DELTA ** -C.K_P:.0f}; "
                     f"worst (interval,psi) ratio {worst:.4f} <= "
                     f"{C.C_F * DELTA:.3f}")


def test_calibration_reproduces_the_recorded_measurements(
        config, train, extraction, universal, profile_report, sharpness_rows):
    """``calibration.measure`` of the fixtures' artifacts (none is built twice)
    against each measurement that constants.py records, at its printed
    precision.  The one acceptance check that reaches ``l2t_linf_on_tube`` and
    ``dual_witness`` without a search; with c09 it reaches ``tube_sup_profile``."""
    out = measure(config, train, extraction[0], universal, profile_report, sharpness_rows)
    out["random ratio"] = max(out[f"random_ratio_max(k={k})"] for k in range(4))
    out["rho min"], out["rho max"] = out["sharpness_rho(min,max)"]
    recorded = {"kappa_cube(min)": 0.3057, "kappa_tube(min over k,t)": 0.8587,
                "bernstein_sup(max/100)": 0.0914, "random ratio": 0.1002,
                "rho min": 0.4854, "rho max": 0.5055,
                "sharpness_lp_scaled(max)": 0.6196,
                "extract0.2(min decrement)": 0.0411, "universal(maxM(F))": 1.26,
                "extractor_off_ratio(max)": 0.387, "profile(max outside)": 0.0326,
                "profile(min adversarial full)": 0.4075, "fungibility(int g)": 8.26,
                "universal(tubes)": 23, "fungibility(intervals)": 64}
    digits = {"universal(maxM(F))": 2, "extractor_off_ratio(max)": 3,
              "fungibility(int g)": 2}
    assert {key: round(out[key], digits.get(key, 4)) for key in recorded} == recorded


def test_c10_runtime_and_reproducibility(config, quad0):
    # bit-reproducibility of the seeded pipeline pieces
    lat = lattice_for(config, 1)
    h1 = hashlib.sha256()
    h2 = hashlib.sha256()
    for h in (h1, h2):
        w = random_colored_wave(lat, "blue", 1, 1 / 20, seed=777)
        h.update(w.vals_minus.tobytes())
        fam = _random_family(config, seed=777, k=1, n_tubes=60)
        exc = greedy_tube_cover(fam, 0.25)
        for t in exc:
            h.update(repr((t.t0, t.x0, t.omega, t.half_length, t.lam)).encode())
        tr, _ = standard_train(config)
        tb, val = find_concentrating_tube(tr, DELTA, quad0)
        h.update(repr((val, tb.x0, tb.omega)).encode())
    identical = h1.hexdigest() == h2.hexdigest()
    elapsed = time.time() - T_SUITE_START
    ok = identical and elapsed < 1800.0
    _announce(10, ok, f"seeded reruns bit-identical={identical}; acceptance "
                      f"wall clock {elapsed:.0f}s < 1800s")
