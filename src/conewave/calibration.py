"""One-time calibration of the frozen constants in constants.py.

Run as ``python -m conewave.calibration``.  Uses the default RunConfig and
fixed seeds; the printed measurements are the provenance for the values frozen
in constants.py (each frozen bound is the measurement plus documented slack).
"""

from __future__ import annotations

import math
import time

import numpy as np

from .config import RunConfig
from .extraction import (build_extractor, dual_witness, extract_profile,
                         find_concentrating_tube)
from .geometry import Tube, unit_dir
from .harness import (fungibility_partition, sharpness_experiment, standard_suite,
                      standard_train, tube_sup_profile, universal_tube_family,
                      verify_profile)
from .lattice import lattice_for
from .norms import Quadrature, disk_pixel_indices, l2t_linf_on_tube, product_l2
from .waves import make_blue_tube_wave, make_red_cube_bump, random_colored_wave


def calibrate(config: RunConfig = None, verbose: bool = True):
    config = config or RunConfig()
    out = {}

    def report(k, v):
        out[k] = v
        if verbose:
            print(f"  {k:28s} {v}")

    t0 = time.time()
    lat0 = lattice_for(config, 0)
    quad0 = Quadrature(config, lat0)

    # bump floor over the unit cube
    b = make_red_cube_bump(lat0, (0.0, 5.0, 7.0))
    vals = []
    h = lat0.spacing
    for t in (-0.5, -0.25, 0.0, 0.25, 0.5):
        f = np.abs(b.evaluate(t))
        i = slice(int(4.5 / h), int(5.5 / h) + 1)
        j = slice(int(6.5 / h), int(7.5 / h) + 1)
        vals.append(float(f[i, j].min()))
    report("kappa_cube(min)", min(vals))

    # packet cross-section mass and localization across k
    kt = []
    for k in (0, 1, 2, 3):
        lat = lattice_for(config, k)
        om = unit_dir(0.21)
        psi = make_blue_tube_wave(lat, 0.0, (10.0, 20.0), om, k)
        for s in (0.0, 2.0 ** (k - 1), -2.0 ** (k - 1)):
            f2 = np.abs(psi.evaluate(s)) ** 2
            m = np.zeros(f2.shape, dtype=bool)
            m[disk_pixel_indices(lat, np.array([10.0, 20.0]) + om * s, 1.0)] = True
            kt.append(float((f2 * m).sum()) * lat.spacing ** 2)
    report("kappa_tube(min over k,t)", min(kt))

    # Bernstein ceiling
    worst = 0.0
    for seed in range(100):
        w = random_colored_wave(lat0, "red", 0, 1 / 20, seed=seed)
        worst = max(worst, float(np.abs(w.evaluate(0.0)).max()))
    report("bernstein_sup(max/100)", worst)

    # bilinear ratio ceiling on random pairs (small sample; the acceptance
    # suite reruns the full 25-per-k version)
    ratios = {k: [] for k in (0, 1, 2, 3)}
    for k in (0, 1, 2, 3):
        lat = lattice_for(config, k)
        quad = Quadrature(config, lat)
        for seed in range(5):
            phi = random_colored_wave(lat0, "red", 0, 1 / 20, seed=500 + seed).embed(lat)
            psi = random_colored_wave(lat, "blue", k, 1 / 20, seed=900 + 31 * k + seed)
            ratios[k].append(product_l2(phi, psi, None, quad))
    for k in (0, 1, 2, 3):
        report(f"random_ratio_max(k={k})", max(ratios[k]))

    # sharpness table
    rows = sharpness_experiment(config, seeds=(42, 43))
    rho = [r["rho"] for r in rows]
    report("sharpness_rho(min,max)", (min(rho), max(rho)))
    report("sharpness_lp_scaled(max)", max(r["lp_scaled"] for r in rows))

    # extraction at delta = 0.2 on the standard train
    train, tube = standard_train(config)
    tubes1, rem1, trace1 = extract_profile(train, 0.2, quad0, max_iter=200)
    decs = [s.decrement for s in trace1.steps]
    report("extract0.2(steps)", len(trace1))
    report("extract0.2(min decrement)", min(decs))
    report("extract0.2(max M(F))", max(s.mass_extractor for s in trace1.steps))
    _, vrem = find_concentrating_tube(rem1, 0.2, quad0, threshold=0.0)
    report("extract0.2(remainder conc)", vrem)

    # extractor off-tube ratio (20 probes per first extractor)
    wit = dual_witness(train, Tube(0.0, tuple(tubes1[0].x0), tubes1[0].omega, None), quad0)
    F = build_extractor(lat0, wit, margin_target=train.margin() - 1.0 / config.box)
    fat = tubes1[0]
    rng = np.random.default_rng(0)
    offr, checked = 0.0, 0
    while checked < 20:
        x0 = rng.uniform(0, config.box, size=2)
        th = rng.uniform(-math.pi / 8, math.pi / 8)
        probe = Tube(0.0, tuple(x0), tuple(unit_dir(th)), half_length=None)
        ts = np.linspace(-config.half_window, config.half_window, 17)
        if fat.contains(ts, probe.axis_at(ts), config.box).any():
            continue
        checked += 1
        offr = max(offr, l2t_linf_on_tube(F, probe, quad0) / math.sqrt(F.mass()))
    report("extractor_off_ratio(max)", offr)

    # profile pipeline at delta = 0.2
    t1 = time.time()
    tubes, remainder, trace = universal_tube_family(train, 0.2, quad0)
    report("universal(tubes)", len(tubes))
    report("universal(steps)", len(trace))
    report("universal(time s)", round(time.time() - t1, 1))
    report("universal(maxM(F))", max(s.mass_extractor for s in trace.steps))
    report("universal(min dec)", min(s.decrement for s in trace.steps))
    suite = standard_suite(seeds_per_k=10, base_seed=1000)
    t1 = time.time()
    rep = verify_profile(train, tubes, 0.2, suite, config)
    report("profile(time s)", round(time.time() - t1, 1))
    report("profile(max outside)", rep.max_outside())
    report("profile(min adversarial full)", rep.min_adversarial_full())
    ro = [r.ratio_outside for r in rep.records if r.kind == "random"]
    report("profile(random outside max)", max(ro))

    # fungibility at delta = 0.2
    g = tube_sup_profile(train, tubes, quad0)
    report("fungibility(int g)", float(g.sum() * quad0.dt))
    intervals = fungibility_partition(train, tubes, 0.2, quad0)
    report("fungibility(intervals)", len(intervals))

    report("total calibration s", round(time.time() - t0, 1))
    return out


if __name__ == "__main__":
    print("calibration run (default config, fixed seeds)")
    calibrate()
