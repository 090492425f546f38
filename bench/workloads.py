"""The four benchmark workloads: inputs from a seed, one pass, checks.

Every workload is a triple of functions:

* ``setup(seed)`` builds the inputs through conewave's public constructors;
* ``run(inputs)`` makes one pass and returns ``(outputs, attempted, failed)``,
  where an operation is one public call listed in the workload's docstring
  and a failed operation is one that raised;
* ``check(inputs, outputs)`` returns the failure messages of the checks in
  ``checks.py``.

All workloads use the default RunConfig (torus 40, window [-8, 8], dt 1/4), so
the frequency scales k = 0..3 live on lattices of N = 160, 320, 640, 1280.
"""

from __future__ import annotations

import math

import numpy as np

import conewave.constants as C
from conewave import blue_exceptional, harness, norms, tube_cover, waves
from conewave.config import RunConfig
from conewave.extraction import find_concentrating_tube
from conewave.geometry import Tube, unit_dir
from conewave.harness import PsiSpec
from conewave.lattice import lattice_for
from conewave.norms import Quadrature
from conewave.tube_cover import CoverDiagnostics, WeightedTubeFamily

# Public functions are called through their modules, so that the traced run's
# wrappers (installed on those modules) see every call.
import checks

CONFIG = RunConfig()
KS = (0, 1, 2, 3)
MARGIN = 1.0 / 20.0
TRAIN_THETA = math.radians(12.0)     # the standard cube train of the suite
TRAIN_X0 = (10.0, 20.0)
TRAIN_SEED = 42
PROFILE_DELTA = 0.2
BLUE_DELTAS = (0.2, 0.1)
COVER_DELTAS = (0.25, 0.1)
COVER_SIZES = {0: 240, 1: 360, 2: 480, 3: 600}
# bundle weights through shared points: two clear the delta = 0.25 round
# threshold 0.125, five the delta = 0.1 threshold 0.05, none sits near either
BUNDLE_WEIGHTS = (0.30, 0.20, 0.09, 0.07, 0.06, 0.03)
# the shared points (t / 2^k, x1, x2) are fixed: each round's stout tube
# (radius 16) removes the points around one of them from the verifier's work,
# so seeded positions would make the pass time depend on their overlap
BUNDLE_POINTS = ((-0.4, 6.0, 9.0), (0.3, 26.0, 28.0), (-0.1, 31.0, 5.0),
                 (0.45, 12.0, 30.0), (0.2, 20.0, 17.0), (-0.3, 36.0, 19.0))
BACKGROUND_WEIGHT = 0.2
VERIFY_SAMPLES = 40_000
OWN_RESIDUAL_POINTS = 10_000
CONE_EDGE = math.pi / 8 - 0.01


def _seeds(seed: int, n: int) -> list:
    """n independent 32-bit seeds derived from the workload seed."""
    return [int(s) for s in np.random.SeedSequence(seed).generate_state(n)]


def _call(fn, *args, **kwargs):
    """(result, failed) of one operation."""
    try:
        return fn(*args, **kwargs), 0
    except Exception as exc:           # a raising operation is counted, not fatal
        return exc, 1


def _ok(x) -> bool:
    """The operation ran and returned."""
    return x is not None and not isinstance(x, Exception)


# ---------------------------------------------------------------------------
# bilinear

def setup_bilinear(seed: int) -> dict:
    """Random red k=0 and blue k waves per scale; a seeded sharpness axis."""
    s = _seeds(seed, 2 * len(KS) + 4)
    lat0 = lattice_for(CONFIG, 0)
    pairs = {}
    for k in KS:
        lat = lattice_for(CONFIG, k)
        phi = waves.random_colored_wave(lat0, "red", 0, MARGIN, s[2 * k]).embed(lat)
        psi = waves.random_colored_wave(lat, "blue", k, MARGIN, s[2 * k + 1])
        pairs[k] = (phi, psi)
    rng = np.random.default_rng(s[-1])
    sharp = {"seed": s[-2] % 100_000,
             "theta": float(rng.uniform(-0.3, 0.3)),
             "x0": tuple(float(v) for v in rng.uniform(0.0, CONFIG.box, 2))}
    return {"pairs": pairs, "sharp": sharp, "pick": s[-3]}


def run_bilinear(inp: dict):
    """Operations: full-window slice sums of |phi psi|^2 per scale (the sum
    under product_l2) and one sharpness_experiment over k = 0, 1, 2."""
    out, failed = {"sums": {}}, 0
    for k, (phi, psi) in inp["pairs"].items():
        quad = Quadrature(CONFIG, lattice_for(CONFIG, k))
        out["sums"][k], f = _call(norms.product_slice_sums, phi, psi, quad)
        failed += f
    sp = inp["sharp"]
    out["sharp"], f = _call(harness.sharpness_experiment, CONFIG, ks=(0, 1, 2),
                            seeds=(sp["seed"],), theta=sp["theta"], x0=sp["x0"])
    return out, len(KS) + 1, failed + f


def check_bilinear(inp: dict, out: dict) -> list:
    fails = []
    times = CONFIG.time_samples()
    pick = np.random.default_rng(inp["pick"])
    ratios = {}
    for k, (phi, psi) in inp["pairs"].items():
        sums = out["sums"][k]
        if not _ok(sums):
            continue
        n = lattice_for(CONFIG, k).size
        idx = sorted(pick.choice(len(times), 3, replace=False))
        fails += checks.check_slice_sums(phi, psi, sums, times, n, CONFIG.box, idx)
        denom = math.sqrt(checks.coefficient_mass(phi, CONFIG.box)
                          * checks.coefficient_mass(psi, CONFIG.box))
        ratios[k] = math.sqrt(CONFIG.dt * float(sums.sum())) / denom
    if len(ratios) == len(KS):
        fails += checks.check_bilinear_ratios(ratios)
    if _ok(out["sharp"]):
        fails += checks.check_sharpness(out["sharp"])
    return fails


# ---------------------------------------------------------------------------
# profile

def _train():
    tube = Tube(0.0, TRAIN_X0, tuple(unit_dir(TRAIN_THETA)), half_length=8.0)
    w = waves.make_red_cube_train(lattice_for(CONFIG, 0), tube, None, seed=TRAIN_SEED,
                            half_window=CONFIG.half_window)
    return w.normalize_mass(1.0)


def setup_profile(seed: int) -> dict:
    """The standard cube train and a reduced partner suite: one seeded random
    blue wave and one packet aimed along the train per scale k = 0, 1, 2."""
    s = _seeds(seed, 3)
    suite = []
    for k in (0, 1, 2):
        suite.append(PsiSpec("random", k, seed=s[k] % 1_000_000))
        suite.append(PsiSpec("packet", k, t0=0.0, x0=TRAIN_X0, theta=TRAIN_THETA))
    return {"phi": _train(), "suite": suite}


def run_profile(inp: dict):
    """Operations: universal_tube_family (ray extraction at delta' = 0.02),
    verify_profile with slice sums kept, fungibility_partition and the
    per-interval ratios."""
    phi, delta = inp["phi"], PROFILE_DELTA
    quad0 = Quadrature(CONFIG, lattice_for(CONFIG, 0))
    out = dict.fromkeys(("universal", "report", "intervals", "rows"))
    out["universal"], failed = _call(harness.universal_tube_family, phi, delta, quad0)
    if failed:                         # the later operations need the tubes
        return out, 4, 4
    tubes = out["universal"][0]
    out["report"], f1 = _call(harness.verify_profile, phi, tubes, delta, inp["suite"],
                              CONFIG, keep_slice_sums=True)
    out["intervals"], f2 = _call(harness.fungibility_partition, phi, tubes, delta, quad0)
    if f1 or f2:
        return out, 4, 1 + f1 + f2
    out["rows"], f3 = _call(harness.interval_ratios_from_report, out["report"],
                            out["intervals"], CONFIG)
    return out, 4, f1 + f2 + f3


def check_profile(inp: dict, out: dict) -> list:
    fails = []
    delta_prime = PROFILE_DELTA ** 2 / 2.0
    quad0 = Quadrature(CONFIG, lattice_for(CONFIG, 0))
    if _ok(out["universal"]):
        tubes, rem, trace = out["universal"]
        fails += checks.check_trace(trace, delta_prime)
        _, conc = find_concentrating_tube(rem, delta_prime, quad0, threshold=0.0)
        fails += checks.check_remainder(conc, delta_prime)
    report = out["report"]
    if _ok(report):
        fails += checks.check_profile_records(report.records, PROFILE_DELTA)
        rec = next(r for r in report.records if r.kind == "random" and r.k == 0)
        psi = next(s for s in inp["suite"] if s.kind == "random" and s.k == 0)
        fails += checks.check_ratio_full(inp["phi"], psi.build(CONFIG), rec,
                                         CONFIG.time_samples(), CONFIG.dt,
                                         lattice_for(CONFIG, 0).size, CONFIG.box)
        if _ok(out["rows"]):
            fails += checks.check_intervals(out["intervals"], out["rows"], report.records,
                                            -CONFIG.half_window, CONFIG.half_window)
    return fails


# ---------------------------------------------------------------------------
# blue

def setup_blue(seed: int) -> dict:
    """One random blue wave per k = 0, 1, 2 and one packet per k = 0..3 with
    seeded position and time.  The packet direction is fixed per k: it sets
    the packet's frequency support, hence the number of cells and FFTs, which
    thus do not depend on the seed."""
    s = _seeds(seed, 5)
    rng = np.random.default_rng(s[4])
    cases = []
    for k in KS:
        lat = lattice_for(CONFIG, k)
        if k < 3:
            cases.append(("random", waves.random_colored_wave(lat, "blue", k, MARGIN, s[k])))
        t0 = float(rng.uniform(-4.0, 4.0))
        x0 = tuple(float(v) for v in rng.uniform(0.0, CONFIG.box, 2))
        theta = 0.05 + 0.07 * k
        cases.append(("packet", waves.make_blue_tube_wave(lat, t0, x0, unit_dir(theta), k)))
    return {"waves": cases}


def run_blue(inp: dict):
    """Operations per wave: the brute-force unit-cube scan
    (unit_cube_masses, whose cut at delta^2 M gives the bad cubes) and
    exceptional_tubes_for_blue at each delta."""
    out, attempted, failed = [], 0, 0
    for _, psi in inp["waves"]:
        quad = Quadrature(CONFIG, psi.lattice)
        scan, f = _call(blue_exceptional.unit_cube_masses, psi, quad)
        tubes = {}
        for delta in BLUE_DELTAS:
            tubes[delta], g = _call(blue_exceptional.exceptional_tubes_for_blue,
                                    psi, delta, quad)
            f += g
        out.append({"scan": scan, "tubes": tubes})
        attempted += 1 + len(BLUE_DELTAS)
        failed += f
    return out, attempted, failed


def check_blue(inp: dict, out: list) -> list:
    fails = []
    window = 2.0 * CONFIG.half_window
    times = CONFIG.time_samples()
    for (kind, psi), res in zip(inp["waves"], out):
        tag = f"{kind} k={psi.k}: "
        if not _ok(res["scan"]):
            continue
        t_corners, masses = res["scan"]
        mass = checks.coefficient_mass(psi, CONFIG.box)
        fails += [tag + m for m in checks.check_cube_mass_total(masses, mass, window)]
        quad = Quadrature(CONFIG, psi.lattice)
        own = None
        if psi.k <= 1:
            own = checks.cube_masses(psi, times, CONFIG.dt, psi.lattice.size, CONFIG.box)
        for delta, tubes in res["tubes"].items():
            bad = checks.bad_cube_centers(masses, t_corners[0], delta * delta * mass)
            if _ok(tubes):
                fails += [tag + m for m in checks.check_blue_tubes(bad, tubes, CONFIG.box,
                                                                   delta)]
            if own is not None:
                listed = {c.center for c in blue_exceptional.find_bad_cubes(psi, delta, quad)}
                own_bad = checks.bad_cube_centers(own, t_corners[0], delta * delta * mass)
                fails += [tag + m for m in checks.check_bad_cube_lists(listed, own_bad,
                                                                       delta)]
    return fails


# ---------------------------------------------------------------------------
# cover

def _cover_family(rng, k: int, n: int) -> WeightedTubeFamily:
    """Separated unit tubes of half length 2^k: bundles with seeded
    directions through BUNDLE_POINTS carrying BUNDLE_WEIGHTS (split
    heavy-tailed inside each bundle), then seeded background tubes sharing
    BACKGROUND_WEIGHT."""
    half = 2.0 ** k
    xs, ws, weights = [], [], []

    def separated(x, w):
        if not xs:
            return True
        d = x - np.array(xs)
        d -= CONFIG.box * np.round(d / CONFIG.box)
        sep = np.hypot(d[:, 0], d[:, 1]) + half * np.linalg.norm(w - np.array(ws), axis=1)
        return bool(sep.min() >= C.S_MIN + 1e-9)

    for bundle_weight, (t_frac, p1, p2) in zip(BUNDLE_WEIGHTS, BUNDLE_POINTS):
        tb = t_frac * half
        p = np.array([p1, p2])
        step = 1.05 * C.S_MIN / (abs(tb) + half)   # keeps the bundle separated
        m = min(int(2 * CONE_EDGE / step) + 1, 12)
        th0 = rng.uniform(-CONE_EDGE, CONE_EDGE - (m - 1) * step)
        members = 0
        for j in range(m):
            om = unit_dir(th0 + j * step)
            x = (p - om * tb) % CONFIG.box
            if separated(x, om):
                xs.append(x)
                ws.append(om)
                members += 1
        split = rng.pareto(1.5, members) + 1.0
        weights.extend(bundle_weight * split / split.sum())
    n_bundled = len(xs)
    while len(xs) < n:
        x = rng.uniform(0.0, CONFIG.box, 2)
        om = unit_dir(rng.uniform(-CONE_EDGE, CONE_EDGE))
        if separated(x, om):
            xs.append(x)
            ws.append(om)
    background = rng.pareto(2.0, n - n_bundled) + 1.0
    weights.extend(BACKGROUND_WEIGHT * background / background.sum())
    tubes = tuple(Tube(0.0, tuple(x), tuple(w), half_length=half) for x, w in zip(xs, ws))
    return WeightedTubeFamily(tubes, np.array(weights), k, CONFIG.box)



def setup_cover(seed: int) -> dict:
    """One separated weighted family per k = 0..3 (240 to 600 tubes)."""
    s = _seeds(seed, len(KS) + 1)
    families = []
    for k in KS:
        fam = _cover_family(np.random.default_rng(s[k]), k, COVER_SIZES[k])
        fam.check_separation()
        families.append(fam)
    return {"families": families, "verify_seed": s[-1] % 100_000}


def run_cover(inp: dict):
    """Operations: greedy_tube_cover then verify_pointwise_bound, per family
    and delta."""
    out, failed = [], 0
    for fam in inp["families"]:
        for delta in COVER_DELTAS:
            diag = CoverDiagnostics()
            tubes, f = _call(tube_cover.greedy_tube_cover, fam, delta, diagnostics=diag)
            res, g = (None, 0) if f else _call(tube_cover.verify_pointwise_bound, fam, tubes, delta,
                                               VERIFY_SAMPLES, seed=inp["verify_seed"])
            out.append({"delta": delta, "rounds": diag.rounds, "tubes": tubes,
                        "residual": res})
            failed += f + g
    return out, 2 * len(out), failed


def check_cover(inp: dict, out: list) -> list:
    fails = []
    fams = [f for f in inp["families"] for _ in COVER_DELTAS]
    for j, (fam, res) in enumerate(zip(fams, out)):
        if not (_ok(res["tubes"]) and _ok(res["residual"])):
            continue
        own = checks.brute_force_residual(fam, res["tubes"], OWN_RESIDUAL_POINTS,
                                          seed=inp["verify_seed"] + j)
        fails += [f"k={fam.k}: " + m for m in checks.check_cover(
            res["rounds"], res["tubes"], res["residual"], own, res["delta"],
            need_round=res["delta"] == min(COVER_DELTAS))]
    return fails


WORKLOADS = {
    "bilinear": (setup_bilinear, run_bilinear, check_bilinear),
    "profile": (setup_profile, run_profile, check_profile),
    "blue": (setup_blue, run_blue, check_blue),
    "cover": (setup_cover, run_cover, check_cover),
}
