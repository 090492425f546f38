"""One-time calibration of the frozen constants in constants.py.

Run as ``python -m conewave.calibration``.  Uses the default RunConfig and
fixed seeds; the printed measurements are the provenance for the values frozen
in constants.py (each frozen bound is the measurement plus documented slack).
``calibrate`` builds each expensive artifact once and ``measure`` computes every
measurement from them, so the acceptance suite measures its own fixtures.
"""

from __future__ import annotations

import math
import time

import numpy as np

from .config import RunConfig
from .extraction import (build_extractor, dual_witness, extract_profile,
                         find_concentrating_tube)
from .geometry import Tube, unit_dir
from .harness import (TRAIN_X0, sharpness_experiment, split_window, standard_suite,
                      standard_train, tube_sup_profile, universal_tube_family,
                      verify_profile)
from .lattice import lattice_for
from .norms import Quadrature, l2t_linf_on_tube, product_l2, region_slice_mask
from .waves import make_blue_tube_wave, make_red_cube_bump, random_colored_wave

DELTA = 0.2


def calibrate():
    config = RunConfig()
    t0 = time.time()
    quad0 = Quadrature(config, lattice_for(config, 0))
    train = standard_train(config)
    tubes, remainder, trace = extract_profile(train[0], DELTA, quad0)
    _, remainder_conc = find_concentrating_tube(remainder, DELTA, quad0, threshold=0.0)
    t1 = time.time()
    universal = universal_tube_family(train[0], DELTA, quad0)
    universal_s = time.time() - t1
    report = verify_profile(train[0], universal[0], DELTA,
                            standard_suite(seeds_per_k=10, base_seed=1000), config)
    rows = sharpness_experiment(config, seeds=(42, 43))
    out = measure(config, train, (tubes, trace, remainder_conc), universal, report, rows)
    out["universal(time s)"] = round(universal_s, 1)
    out["total calibration s"] = round(time.time() - t0, 1)
    for key, value in out.items():
        print(f"  {key:28s} {value}")
    return out


def measure(config: RunConfig, train, extraction, universal, profile_report,
            sharpness_rows) -> dict:
    """Every calibration measurement, from the artifacts that ``calibrate``
    builds (none is rebuilt here; the profile time is the report's own); the
    train's delta = 0.2 ``extraction`` is (tubes, trace, remainder conc)."""
    out = {}
    lat0 = lattice_for(config, 0)
    quad0 = Quadrature(config, lat0)

    # bump floor over the unit cube
    b = make_red_cube_bump(lat0, (0.0, 5.0, 7.0))
    h = lat0.spacing
    i = slice(int(4.5 / h), int(5.5 / h) + 1)
    j = slice(int(6.5 / h), int(7.5 / h) + 1)
    out["kappa_cube(min)"] = min(float(np.abs(b.evaluate(t))[i, j].min())
                                 for t in (-0.5, -0.25, 0.0, 0.25, 0.5))

    # packet cross-section mass and localization across k
    kt = []
    for k in (0, 1, 2, 3):
        lat = lattice_for(config, k)
        om = unit_dir(0.21)
        psi = make_blue_tube_wave(lat, 0.0, TRAIN_X0, om, k)
        for s in (0.0, 2.0 ** (k - 1), -2.0 ** (k - 1)):
            f2 = np.abs(psi.evaluate(s)) ** 2
            m = ~region_slice_mask((Tube(0.0, TRAIN_X0, om, None),), s, lat)
            kt.append(float((f2 * m).sum()) * lat.spacing ** 2)
    out["kappa_tube(min over k,t)"] = min(kt)

    # Bernstein ceiling
    out["bernstein_sup(max/100)"] = max(float(np.abs(
        random_colored_wave(lat0, "red", 0, 1 / 20, seed=seed).evaluate(0.0)).max())
        for seed in range(100))

    # bilinear ratio ceiling on random pairs (small sample; the acceptance
    # suite reruns the full 25-per-k version)
    for k in (0, 1, 2, 3):
        lat = lattice_for(config, k)
        quad = Quadrature(config, lat)
        out[f"random_ratio_max(k={k})"] = max(product_l2(
            random_colored_wave(lat0, "red", 0, 1 / 20, seed=500 + seed),
            random_colored_wave(lat, "blue", k, 1 / 20, seed=900 + 31 * k + seed),
            quad) for seed in range(5))

    # sharpness table
    rho = [r["rho"] for r in sharpness_rows]
    out["sharpness_rho(min,max)"] = (min(rho), max(rho))
    out["sharpness_lp_scaled(max)"] = max(r["lp_scaled"] for r in sharpness_rows)

    # extraction at delta = 0.2 on the standard train
    w0, _ = train
    tubes1, trace1, remainder_conc = extraction
    out["extract0.2(steps)"] = len(trace1)
    out["extract0.2(min decrement)"] = min(s.decrement for s in trace1.steps)
    out["extract0.2(max M(F))"] = max(s.mass_extractor for s in trace1.steps)
    out["extract0.2(remainder conc)"] = remainder_conc

    # extractor off-tube ratio (20 probes per first extractor)
    wit = dual_witness(w0, Tube(0.0, tuple(tubes1[0].x0), tubes1[0].omega, None), quad0)
    F = build_extractor(lat0, wit, margin_target=w0.margin() - 1.0 / config.box)
    fat = tubes1[0]
    rng = np.random.default_rng(0)
    ts = np.linspace(-config.half_window, config.half_window, 17)
    offr, checked = 0.0, 0
    while checked < 20:
        x0 = rng.uniform(0, config.box, size=2)
        th = rng.uniform(-math.pi / 8, math.pi / 8)
        probe = Tube(0.0, tuple(x0), tuple(unit_dir(th)), half_length=None)
        if fat.contains(ts, probe.axis_at(ts), config.box).any():
            continue
        checked += 1
        offr = max(offr, l2t_linf_on_tube(F, probe, quad0) / math.sqrt(F.mass()))
    out["extractor_off_ratio(max)"] = offr

    # profile pipeline at delta = 0.2
    tubes, _, trace = universal
    out["universal(tubes)"] = len(tubes)
    out["universal(steps)"] = len(trace)
    out["universal(maxM(F))"] = max(s.mass_extractor for s in trace.steps)
    out["universal(min dec)"] = min(s.decrement for s in trace.steps)
    out["profile(time s)"] = round(profile_report.elapsed, 1)
    out["profile(max outside)"] = profile_report.max_outside()
    out["profile(min adversarial full)"] = profile_report.min_adversarial_full()
    out["profile(random outside max)"] = max(
        r.ratio_outside for r in profile_report.records if r.kind == "random")

    # fungibility at delta = 0.2
    g = tube_sup_profile(w0, tubes, quad0)
    out["fungibility(int g)"] = float(g.sum() * quad0.dt)
    out["fungibility(intervals)"] = len(split_window(g, DELTA, quad0))
    return out


if __name__ == "__main__":
    print("calibration run (default config, fixed seeds)")
    calibrate()
