"""Benchmark of conewave: one workload per run, measured end to end or traced.

    python3 bench/run.py --workload bilinear --seed 1 --seconds 10 --trace 0
    python3 bench/run.py --workload all          # every workload, one process each

A run builds the workload's inputs from the seed, repeats whole passes until
--seconds have elapsed (at least one pass), checks the first pass's outputs,
and prints one JSON object as its last line of output:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics: wall_s (median pass), setup_s
(import time plus the median input build) and peak_rss_mb.  --trace 1 runs
untraced and traced passes alternately (at least one untraced and two
traced), checks that the traced passes count the same work, writes the spans
to .bench_out/ and reports the per-layer metrics of tracing.py plus the
tracing overhead.  The exit status is 1 when a check fails and 2 when the
program cannot be imported from src/.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
MIN_SETUPS = 3
NAMES = ("bilinear", "profile", "blue", "cover")


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", default="all", choices=NAMES + ("all",))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, default=0, choices=(0, 1))
    return ap.parse_args(argv)


def run_all(args) -> int:
    """Each workload in its own child process, one after the other."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    status = 0
    for name in NAMES:
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode == 2 or not lines:
            return proc.returncode or 2
        status = max(status, proc.returncode)
        res = json.loads(lines[-1])
        merged["correct"] &= res["correct"]
        merged["attempted"] += res["attempted"]
        merged["failed"] += res["failed"]
        for key, val in res["metrics"].items():
            merged["metrics"][f"{name}.{key}"] = val
    print(json.dumps(merged))
    return status


def _timed(fn, *args):
    t = time.perf_counter()
    out = fn(*args)
    return out, time.perf_counter() - t


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)

    t_import = time.perf_counter()
    sys.path.insert(0, str(ROOT / "src"))
    try:
        import conewave
    except ImportError as exc:
        print(f"cannot import conewave from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return 2
    if ROOT / "src" not in Path(conewave.__file__).resolve().parents:
        print(f"conewave imported from {conewave.__file__}, not {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    import tracing
    import workloads
    import_s = time.perf_counter() - t_import

    setup, run, check = workloads.WORKLOADS[args.workload]
    setups, walls, traced_walls, tracers = [], [], [], []
    attempted = failed = 0
    first = None
    start = time.perf_counter()

    def one_pass(traced: bool):
        nonlocal attempted, failed, first
        tracer = tracing.Tracer() if traced else None
        if tracer:
            tracer.install()
        try:
            inp, s = _timed(setup, args.seed)
            (out, a, f), w = _timed(run, inp)
        finally:
            if tracer:
                tracer.uninstall()
        setups.append(s)
        (traced_walls if traced else walls).append(w)
        if tracer:
            tracers.append(tracer)
        attempted += a
        failed += f
        if first is None:
            first = (inp, out)

    plan = [False, True, True] if args.trace else [False]
    while plan or time.perf_counter() - start < args.seconds:
        one_pass(plan.pop(0) if plan else bool(args.trace and len(walls) >= len(traced_walls)))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    while len(setups) < MIN_SETUPS:
        setups.append(_timed(setup, args.seed)[1])

    fails = check(*first)
    if args.trace:
        counts = [t.counters for t in tracers]
        if any(c != counts[0] for c in counts[1:]):
            fails.append(f"traced passes counted different work: {counts}")
        metrics = _layer_metrics(tracers)
        metrics["trace.overhead_s"] = {
            "value": statistics.median(traced_walls) - statistics.median(walls), "unit": "s"}
        out_dir = ROOT / ".bench_out"
        out_dir.mkdir(exist_ok=True)
        (out_dir / f"trace-{args.workload}-{args.seed}.json").write_text(
            json.dumps(tracers[0].dump()))
    else:
        metrics = {"wall_s": {"value": statistics.median(walls), "unit": "s"},
                   "setup_s": {"value": import_s + statistics.median(setups), "unit": "s"},
                   "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"}}

    for msg in fails:
        print(f"CHECK FAILED [{args.workload}]: {msg}", file=sys.stderr)
    print(f"{args.workload}: {len(walls)} untraced and {len(traced_walls)} traced passes, "
          f"{attempted} operations, {failed} failed, {len(fails)} check failures")
    print(json.dumps({"correct": not fails, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 1 if fails else 0


def _layer_metrics(tracers) -> dict:
    """Per-layer values of the traced passes: medians of the times, counts
    from the first pass (the passes agree on them)."""
    per_pass = [t.layer_metrics() for t in tracers]
    out = {}
    for name, (value, unit) in per_pass[0].items():
        if unit == "s":
            value = statistics.median(m[name][0] for m in per_pass)
        out[name] = {"value": value, "unit": unit}
    return out


if __name__ == "__main__":
    sys.exit(main())
