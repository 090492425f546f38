"""Command line interface.

    conewave gen-wave | cover | blue-tubes | extract | profile | fungibility | sharpness

The global flags before the command are the only settings of a run: the
torus, window and quadrature step of its RunConfig, the seed and the output
directory.  Exit status: 0 when every asserted bound holds, 1 on a
violation, 2 on usage errors.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import constants as C
from .blue_exceptional import exceptional_tubes_for_blue, find_bad_cubes, unit_cell_pixels
from .config import RunConfig
from .errors import ConewaveError, InfeasibleMarginError
from .extraction import extract_profile, search_cell
from .geometry import Tube, cube_touches_tube, unit_dir, wrap_delta
from .harness import (TRAIN_THETA, TRAIN_X0, fungibility_partition,
                      interval_ratios_from_report, matched_train, sharpness_experiment,
                      standard_suite, standard_train, universal_tube_family,
                      verify_profile)
from .lattice import lattice_for
from .norms import Quadrature
from .render import field_to_ppm
from .tube_cover import (CoverDiagnostics, WeightedTubeFamily, greedy_tube_cover,
                         verify_pointwise_bound)
from .wave_io import load_wave, save_wave
from .waves import make_blue_tube_wave, make_red_cube_bump, random_colored_wave


def tube_to_dict(t: Tube) -> dict:
    return {"t0": t.t0, "x0": list(t.x0), "omega": list(t.omega),
            "halflength": "window" if t.half_length is None else t.half_length,
            "radius": t.radius, "lambda": t.lam}


def tube_from_dict(d: dict) -> Tube:
    hl = d["halflength"]
    return Tube(d["t0"], tuple(d["x0"]), tuple(d["omega"]),
                None if hl == "window" else float(hl),
                d.get("radius", 1.0), d.get("lambda", 1.0))


def write_tubes(tubes, path) -> None:
    Path(path).write_text(json.dumps([tube_to_dict(t) for t in tubes], indent=1))


def read_family(path, k: int, box: float) -> WeightedTubeFamily:
    """Weighted family from a {"tubes": [...], "weights": [...]} JSON file;
    its tubes must be S_MIN-separated, as the covering lemma assumes."""
    data = json.loads(Path(path).read_text())
    tubes = tuple(tube_from_dict(d) for d in data["tubes"])
    family = WeightedTubeFamily(tubes, np.array(data["weights"]), k, box)
    family.check_separation()
    return family


def _write_csv(path, rows, fieldnames) -> None:
    with open(path, "w", newline="") as fh:
        w = csv.DictWriter(fh, fieldnames=fieldnames)
        w.writeheader()
        for r in rows:
            w.writerow(r)


def _global_parser(**kwargs) -> argparse.ArgumentParser:
    """The flags that come before the command."""
    ap = argparse.ArgumentParser(prog="conewave", **kwargs)
    # the dataclass's class attributes are its field defaults
    ap.add_argument("--box-L", type=float, default=RunConfig.box, help="torus side")
    ap.add_argument("--window", type=float, default=RunConfig.half_window,
                    help="half time window")
    ap.add_argument("--dt", type=float, default=RunConfig.dt, help="time step")
    ap.add_argument("--seed", type=int, default=42)
    ap.add_argument("--out-dir", default=".")
    return ap


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="conewave", description="bilinear cone-wave laboratory",
                                 parents=[_global_parser(add_help=False)])
    sub = ap.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen-wave", help="synthesize a wave file")
    g.add_argument("--kind", choices=("random", "bump", "packet", "train"),
                   default="random")
    g.add_argument("--color", choices=("red", "blue"), default="red")
    g.add_argument("--k", type=int, default=0)
    g.add_argument("--margin", type=float, default=1.0 / 18.0)
    g.add_argument("--theta", type=float, default=TRAIN_THETA)
    g.add_argument("--x0", type=float, nargs=2, default=TRAIN_X0)
    g.add_argument("--t0", type=float, default=0.0)
    g.add_argument("--out", default="wave.cwav")

    c = sub.add_parser("cover", help="greedy cover of a random separated family")
    c.add_argument("--delta", type=float, required=True)
    c.add_argument("--tubes", type=int, default=120)
    c.add_argument("--k", type=int, default=2)
    c.add_argument("--samples", type=int, default=100_000)
    c.add_argument("--family", help="tube-list JSON with weights sidecar")

    b = sub.add_parser("blue-tubes", help="exceptional tubes of a blue wave")
    b.add_argument("--delta", type=float, required=True)
    b.add_argument("--k", type=int, default=None)
    b.add_argument("--wave", help="CWAV1 file (default: aimed packet)")

    e = sub.add_parser("extract", help="iterative ray extraction of a red wave")
    e.add_argument("--delta", type=float, required=True)
    e.add_argument("--max-iter", type=int, default=400)
    e.add_argument("--wave", help="CWAV1 file (default: the standard train)")

    p = sub.add_parser("profile", help="universal family + partner suite check")
    p.add_argument("--delta", type=float, required=True)
    p.add_argument("--wave", help="CWAV1 file (default: the standard train)")
    p.add_argument("--suite-size", type=int, default=3)

    f = sub.add_parser("fungibility", help="interval split + per-interval check")
    f.add_argument("--delta", type=float, required=True)
    f.add_argument("--wave")
    f.add_argument("--suite-size", type=int, default=2)

    s = sub.add_parser("sharpness", help="matched-pair ratio table over k")
    s.add_argument("--kmax", type=int, default=3)
    s.add_argument("--seeds", type=int, nargs="+", default=[42])
    return ap


def _red_wave(cfg, args):
    """--wave, or the standard cube train of --seed."""
    if args.wave:
        return args.wave
    return standard_train(cfg, args.seed)[0]


def _out(args, name) -> Path:
    d = Path(args.out_dir)
    d.mkdir(parents=True, exist_ok=True)
    return d / name


def _generated_wave(cfg, args):
    """The wave that gen-wave writes, on the lattice of its scale --k."""
    lat = lattice_for(cfg, args.k)
    if args.kind == "random":
        return random_colored_wave(lat, args.color, args.k, args.margin, args.seed)
    if args.kind == "bump":
        return make_red_cube_bump(lat, (args.t0, *args.x0), args.margin)
    if args.kind == "packet":
        return make_blue_tube_wave(lat, args.t0, tuple(args.x0),
                                   unit_dir(args.theta), args.k)
    return matched_train(cfg, args.k, args.seed, args.theta, args.x0)[0]


def cmd_gen_wave(cfg, args) -> int:
    w = args.generated
    out = _out(args, args.out)
    save_wave(w, out)
    print(f"wrote {out}  mass={w.mass():.6f} modes={w.num_modes}")
    return 0


def _random_family(cfg, args) -> WeightedTubeFamily:
    """--tubes seeded tubes, each drawn until it lies S_MIN from the earlier
    ones in the torus separation of check_separation."""
    rng = np.random.default_rng(args.seed)
    half = 2.0 ** args.k
    xs, ws = np.zeros((0, 2)), np.zeros((0, 2))
    while len(xs) < args.tubes:
        x0 = rng.uniform(0.0, cfg.box, size=2)
        om = unit_dir(rng.uniform(-math.pi / 8, math.pi / 8))
        d = wrap_delta(x0 - xs, cfg.box)
        e = om - ws
        if np.all(np.hypot(d[:, 0], d[:, 1]) + half * np.hypot(e[:, 0], e[:, 1]) >= C.S_MIN):
            xs = np.vstack([xs, x0])
            ws = np.vstack([ws, om])
    w = rng.uniform(0.2, 1.0, size=len(xs))
    return WeightedTubeFamily.from_arrays(xs, ws, w / w.sum(), args.k, cfg.box)


def cmd_cover(cfg, args) -> int:
    fam = args.family if args.family is not None else _random_family(cfg, args)
    exc = greedy_tube_cover(fam, args.delta)
    diag = CoverDiagnostics()
    residual = verify_pointwise_bound(fam, exc, args.delta, args.samples,
                                      seed=args.seed, diagnostics=diag)
    write_tubes(exc, _out(args, "cover_tubes.json"))
    budget = C.K_COV * args.delta ** -3
    print(f"family={len(fam)} exceptional={len(exc)} (budget {budget:.0f}) "
          f"residual={residual:.4f} (delta {args.delta}) "
          f"outside={diag.samples_outside}/{diag.samples_checked}")
    return 0 if residual <= args.delta and len(exc) <= budget else 1


def cmd_blue_tubes(cfg, args) -> int:
    if args.wave:
        psi = args.wave
        k = psi.k
    else:
        k = args.k if args.k is not None else 2
        lat = lattice_for(cfg, k)
        psi = make_blue_tube_wave(lat, 0.0, (12.0, 8.0), unit_dir(0.15), k)
    quad = Quadrature(cfg, psi.lattice)
    bad = find_bad_cubes(psi, args.delta, quad)
    tubes = exceptional_tubes_for_blue(psi, args.delta, quad)
    write_tubes(tubes, _out(args, "blue_tubes.json"))
    _write_csv(_out(args, "bad_cubes.csv"),
               [{"t": c.center[0], "x1": c.center[1], "x2": c.center[2]} for c in bad],
               ["t", "x1", "x2"])
    covered = all(any(cube_touches_tube(c, t, cfg.box, 3.0) for t in tubes)
                  for c in bad)
    budget = C.K_EXC * args.delta ** -C.K_E
    print(f"k={k} bad_cubes={len(bad)} tubes={len(tubes)} (budget {budget:.0f}) "
          f"covered={covered}")
    return 0 if covered and len(tubes) <= budget else 1


def cmd_extract(cfg, args) -> int:
    phi = _red_wave(cfg, args)
    quad = Quadrature(cfg, phi.lattice)
    tubes, remainder, trace = extract_profile(phi, args.delta, quad,
                                              max_iter=args.max_iter)
    write_tubes(tubes, _out(args, "extract_tubes.json"))
    save_wave(remainder, _out(args, "remainder.cwav"))
    rows = [{"iteration": i, "value": s.value, "mu": s.mu,
             "mass_before": s.mass_before, "mass_after": s.mass_after}
            for i, s in enumerate(trace.steps)]
    _write_csv(_out(args, "extract_trace.csv"), rows,
               ["iteration", "value", "mu", "mass_before", "mass_after"])
    floor = C.C_DEC * args.delta ** 2 / math.log(1.0 / args.delta)
    ok = trace.completed and all(s.decrement >= floor for s in trace.steps)
    print(f"steps={len(trace)} remainder_mass={remainder.mass():.5f} "
          f"completed={trace.completed} decrement_floor_ok={ok}")
    return 0 if ok else 1


def cmd_profile(cfg, args) -> int:
    phi = _red_wave(cfg, args)
    quad = Quadrature(cfg, phi.lattice)
    tubes, remainder, trace = universal_tube_family(phi, args.delta, quad)
    suite = standard_suite(seeds_per_k=args.suite_size, base_seed=args.seed)
    report = verify_profile(phi, tubes, args.delta, suite, cfg)
    write_tubes(tubes, _out(args, "universal_tubes.json"))
    rows = [{"kind": r.kind, "k": r.k, "seed": r.seed,
             "ratio_outside": r.ratio_outside, "ratio_full": r.ratio_full}
            for r in report.records]
    _write_csv(_out(args, "profile_report.csv"), rows,
               ["kind", "k", "seed", "ratio_outside", "ratio_full"])
    # heatmap of |phi psi| at t = 0 with the tubes' cross-sections
    psi = next(s for s in suite if s.kind == "packet").build(cfg)
    f = np.abs(phi.evaluate(0.0, psi.lattice)) * np.abs(psi.evaluate(0.0))
    circles = [(*t.axis_at(0.0), t.eff_radius) for t in tubes if t.time_active(0.0)]
    field_to_ppm(f, _out(args, "profile_t0.ppm"), circles, box=cfg.box)
    bound = C.C_V * args.delta
    contrast = report.min_adversarial_full()
    ok = report.max_outside() <= bound and contrast > C.ADVERSARIAL_MARGIN * bound
    print(f"tubes={len(tubes)} max_outside={report.max_outside():.4f} "
          f"(bound {bound:.4f}) adversarial_full={contrast:.4f} pass={ok}")
    return 0 if ok else 1


def cmd_fungibility(cfg, args) -> int:
    phi = _red_wave(cfg, args)
    quad = Quadrature(cfg, phi.lattice)
    tubes, _, _ = universal_tube_family(phi, args.delta, quad)
    intervals = fungibility_partition(phi, tubes, args.delta, quad)
    suite = standard_suite(seeds_per_k=args.suite_size, base_seed=args.seed)
    report = verify_profile(phi, [], args.delta, suite, cfg, keep_slice_sums=True)
    rows = interval_ratios_from_report(report, intervals, cfg)
    _write_csv(_out(args, "fungibility.csv"), rows,
               ["k", "seed", "kind", "t_lo", "t_hi", "ratio"])
    worst = max(r["ratio"] for r in rows)
    budget = C.K_I * args.delta ** -C.K_P
    ok = worst <= C.C_F * args.delta and len(intervals) <= budget
    print(f"intervals={len(intervals)} (budget {budget:.0f}) "
          f"worst_ratio={worst:.4f} (bound {C.C_F * args.delta:.4f}) pass={ok}")
    return 0 if ok else 1


def cmd_sharpness(cfg, args) -> int:
    rows = sharpness_experiment(cfg, ks=tuple(range(args.kmax + 1)),
                                seeds=tuple(args.seeds))
    _write_csv(_out(args, "sharpness.csv"), rows,
               ["k", "seed", "rho", "lp_scaled", "p"])
    rhos = [r["rho"] for r in rows]
    spread = max(rhos) / min(rhos)
    ok = (min(rhos) >= C.RHO_MIN and spread <= C.RHO_SPREAD_MAX
          and max(r["lp_scaled"] for r in rows) <= C.C_LP_SCALED)
    print(f"rho range [{min(rhos):.3f}, {max(rhos):.3f}] spread={spread:.2f} "
          f"lp_scaled_max={max(r['lp_scaled'] for r in rows):.3f} pass={ok}")
    return 0 if ok else 1


_COMMANDS = {"gen-wave": cmd_gen_wave, "cover": cmd_cover,
             "blue-tubes": cmd_blue_tubes, "extract": cmd_extract,
             "profile": cmd_profile, "fungibility": cmd_fungibility,
             "sharpness": cmd_sharpness}


def _check_usage(ap: argparse.ArgumentParser, args) -> RunConfig:
    """The run config of the arguments, with --wave and --family read and
    gen-wave's wave built (args.generated); any invalid value or input file
    is a usage error (one line, exit status 2) before work starts."""
    try:
        cfg = RunConfig(box=args.box_L, half_window=args.window, dt=args.dt)
        lattice_for(cfg, 0)         # a torus too small for the k = 0 lattice
    except ValueError as exc:
        ap.error(str(exc))
    delta = getattr(args, "delta", None)
    if delta is not None and not 0.0 < delta < 1.0:
        ap.error(f"--delta must lie in (0, 1), got {delta}")
    for flag, least in (("k", 0), ("kmax", 0), ("margin", 0), ("samples", 0),
                        ("seed", 0), ("suite_size", 0), ("tubes", 1), ("max_iter", 1)):
        val = getattr(args, flag, None)
        if val is not None and val < least:
            ap.error(f"--{flag.replace('_', '-')} must be >= {least}, got {val}")
    if min(getattr(args, "seeds", [0])) < 0:
        ap.error(f"--seeds must be >= 0, got {min(args.seeds)}")
    # input files are read here, so a bad file is a usage error too
    try:
        if getattr(args, "wave", None):
            args.wave = load_wave(args.wave)
        if getattr(args, "family", None):
            args.family = read_family(args.family, args.k, cfg.box)
    except (OSError, ValueError, KeyError, TypeError, ConewaveError) as exc:
        ap.error(f"cannot read input: {exc}")
    if getattr(args, "wave", None):
        blue = args.command == "blue-tubes"
        color = "blue" if blue else "red"
        if args.wave.color != color:
            ap.error(f"{args.command} needs a {color} --wave, got a {args.wave.color} one")
        # the torus of the config, and unit cells or the search's offset grid
        # on the pixels
        try:
            Quadrature(cfg, args.wave.lattice)
            (unit_cell_pixels if blue else search_cell)(args.wave.lattice)
        except ValueError as exc:
            ap.error(f"--wave: {exc}")
    if args.command == "gen-wave":
        # a margin or direction that the wave cannot keep is a usage error
        try:
            args.generated = _generated_wave(cfg, args)
        except (ValueError, InfeasibleMarginError) as exc:
            ap.error(f"cannot build the wave: {exc}")
    return cfg


def _unknown_global_args(argv: list) -> list:
    """The arguments before the command that no global flag takes (argparse
    would read an unknown flag's value as the command): the command is the
    first command name whose head parses, as --out-dir may take one."""
    flags = _global_parser(add_help=False, exit_on_error=False)
    for i, arg in enumerate(argv):
        if arg in _COMMANDS:
            try:
                _, unknown = flags.parse_known_args(argv[:i])
            except argparse.ArgumentError:
                continue
            return [a for a in unknown if a not in ("-h", "--help")]
    return []


def main(argv=None) -> int:
    ap = build_parser()
    if unknown := _unknown_global_args(sys.argv[1:] if argv is None else argv):
        ap.error(f"unrecognized arguments before the command: {' '.join(unknown)}")
    args = ap.parse_args(argv)
    cfg = _check_usage(ap, args)
    return _COMMANDS[args.command](cfg, args)


if __name__ == "__main__":
    sys.exit(main())
