"""Run one diffrelay benchmark workload, check its outputs, print its metrics.

    python3 perfbench/run.py --workload psk_mc --seed 1 --seconds 30 --trace 0

Workloads: psk_mc, qam_mc, fig6_cli (see workloads.py and README.md).  With
``--trace 0`` the run reports the end-to-end metrics; with ``--trace 1`` it
alternates untraced and traced repeats and reports the per-layer metrics,
the tracing overhead among them, and writes the spans to ``perfbench/out``.
``--smoke`` runs every workload at a tiny size.  The last line of standard
output is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_PROBES = 5
MIN_TRACED = 2  # traced repeats, each paired with an untraced one

END_TO_END = (
    ("setup_s", "s"), ("wall_s", "s"), ("mc_msym_per_s", "Msym/s"),
    ("point_s_p50", "s"), ("point_s_tail", "s"), ("calibrate_s", "s"),
    ("peak_rss_mb", "MB"),
)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("psk_mc", "qam_mc", "fig6_cli"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="time to spend on measured repeats")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny workload sizes, for the benchmark's own tests")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    return args


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def load_package():
    """Import diffrelay from this checkout's src/, never from elsewhere."""
    package = SRC / "diffrelay"
    if not (package / "__init__.py").is_file():
        fail(f"no diffrelay sources at {package}; run from a checkout of the repository")
    sys.path.insert(0, str(SRC))
    import diffrelay

    if Path(diffrelay.__file__).resolve().parent != package.resolve():
        fail(f"imported diffrelay from {diffrelay.__file__}, not from {package}")


def machine(args):
    import numpy
    import scipy
    import yaml

    git_rev = None
    if (ROOT / ".git").exists():
        res = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=30)
        git_rev = res.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted((SRC / "diffrelay").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "smoke": args.smoke,
        "nproc": os.cpu_count(), "usable_cpus": len(os.sched_getaffinity(0)),
        "platform": platform.platform(), "python": platform.python_version(),
        "numpy": numpy.__version__, "scipy": scipy.__version__,
        "pyyaml": yaml.__version__, "git_rev": git_rev,
        "src_sha256": digest.hexdigest()[:16],
    }


def setup_time(args):
    """Seconds to import diffrelay and build the plans, in a fresh interpreter."""
    res = subprocess.run(
        [sys.executable, str(HERE / "setup_probe.py"), args.workload,
         str(args.seed), "1" if args.smoke else "0"],
        capture_output=True, text=True, timeout=120, cwd=ROOT)
    if res.returncode != 0:
        fail(f"set-up probe failed:\n{res.stderr}")
    return float(res.stdout.strip().splitlines()[-1])


@dataclass
class Repeat:
    wall_s: float
    outputs: object
    points: list  # (plan, SerPoint, seconds)
    row_s: list
    checks: list  # (name, ok, detail)
    calibrate_s: list  # the repeat's calibration, then the extra ones


def run_repeat(workloads, workload, reference, tracer=None, run_id=None):
    extra = []  # calibrations between points and rows, outside wall_s

    def calibrate():
        out = workloads.Outputs()
        with workloads.workdir(OUT / "work") as wd:
            workload.calibrate(wd, out)
        extra.append(out)

    between = calibrate if tracer is None and workload.calibrate_between else None
    recorder = workloads.Recorder(between)
    recorder.install()
    if tracer is not None:
        tracer.begin(run_id)
        tracer.install(callers(workloads))
    try:
        with workloads.workdir(OUT / "work") as wd:
            gc.collect()
            start = time.perf_counter()
            if tracer is None:
                outputs = workload.run(wd)
            else:
                with tracer.span(f"bench.{workload.name}"):
                    outputs = workload.run(wd)
            wall = time.perf_counter() - start - recorder.between_s
    finally:
        if tracer is not None:
            tracer.patches.undo()
        recorder.patches.undo()
    checks = workload.check(outputs, recorder.points, reference)
    calibrate_s = [outputs.calibrate_s] + [out.calibrate_s for out in extra]
    checks += [c for out in extra for c in out.extra_checks]
    return Repeat(wall, outputs, recorder.points, recorder.row_s, checks, calibrate_s)


def callers(workloads):
    """Every module that calls into a diffrelay layer: the package and the workloads."""
    import diffrelay
    import spans

    return [getattr(diffrelay, layer) for layer in spans.LAYERS] + [workloads]


def tail_level(n_min):
    """Highest quantile with at least ten of ``n_min`` samples beyond it (>= median)."""
    return max(0.5, 1.0 - 10.0 / n_min)


def end_to_end(workload, setup, repeats):
    import numpy as np

    point_s = [p[2] for r in repeats for p in r.points]
    n_min = workload.points_per_repeat * workload.min_repeats
    level = tail_level(n_min)
    rates = [sum(p[1].trials for p in r.points) / sum(p[2] for p in r.points) / 1e6
             for r in repeats]
    values = {
        "setup_s": statistics.median(setup),
        "wall_s": statistics.median(r.wall_s for r in repeats),
        "mc_msym_per_s": statistics.median(rates),
        "point_s_p50": statistics.median(
            statistics.median(p[2] for p in r.points) for r in repeats),
        "point_s_tail": float(np.quantile(point_s, level)),
        "calibrate_s": statistics.median(s for r in repeats for s in r.calibrate_s),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    notes = {
        "setup_s": f"median of {len(setup)} fresh interpreters",
        "wall_s": f"median of {len(repeats)} repeats",
        "mc_msym_per_s": "median over repeats of sum(trials) / sum(point seconds)",
        "point_s_p50": f"median over {len(repeats)} repeats of the median of "
                       f"{workload.points_per_repeat} points",
        "point_s_tail": f"p{100 * level:.1f} of {len(point_s)} points "
                        f"(ten or more beyond it at {n_min})",
        "calibrate_s": f"median of {sum(len(r.calibrate_s) for r in repeats)} "
                       f"calibrations in {len(repeats)} repeats",
        "peak_rss_mb": "peak resident set of this process",
    }
    rows = [r for r in repeats if r.row_s]
    if rows:
        values["analytic_s_per_point"] = statistics.median(
            sum(r.row_s) / len(r.row_s) for r in rows)
        notes["analytic_s_per_point"] = (
            f"median over repeats of analytic seconds per (curve, SNR) row, "
            f"{len(rows[0].row_s)} rows per repeat")
    return values, notes


def per_layer(tracer, run_ids, plain, traced):
    import spans

    own = tracer.self_times()
    runs = [spans.layer_metrics(tracer, run_id, own) for run_id in run_ids]
    values = {}
    for name, unit, _ in spans.PER_LAYER:
        if name == "trace.overhead_s":
            values[name] = (statistics.median(r.wall_s for r in traced)
                            - statistics.median(r.wall_s for r in plain))
        elif unit == "s":
            values[name] = statistics.median(run[name] for run in runs)
        else:
            values[name] = runs[0][name]
    return values


def main(argv=None):
    args = parse_args(argv)
    load_package()
    import spans
    import workloads

    with open(workloads.REFERENCE) as fh:
        reference = json.load(fh)[args.workload]
    info = machine(args)
    print("machine: " + json.dumps(info, sort_keys=True), flush=True)
    workload = workloads.make(args.workload, args.seed, smoke=args.smoke)
    workload.setup()
    checks = []
    if not args.smoke:  # let lazy imports and caches settle before timing
        warm = workloads.make(args.workload, args.seed, smoke=True)
        warm.setup()
        checks += run_repeat(workloads, warm, reference).checks
    if hasattr(workload, "workers_invariance"):
        checks.append(workload.workers_invariance())

    # Set-up probes run between untraced repeats, so that they sample the
    # machine's load over the whole run rather than at one moment.
    plain, traced, run_ids, setup = [], [], [], []
    tracer = spans.Tracer() if args.trace else None
    start = time.perf_counter()
    while True:
        plain.append(run_repeat(workloads, workload, reference))
        if tracer is None:
            setup.append(setup_time(args))
        else:
            run_ids.append(f"{args.workload}-seed{args.seed}-r{len(run_ids)}")
            traced.append(run_repeat(workloads, workload, reference, tracer, run_ids[-1]))
        need = MIN_TRACED if tracer is not None else workload.min_repeats
        step = (time.perf_counter() - start) / len(plain)
        if len(plain) >= need and time.perf_counter() - start + step > args.seconds:
            break
    while tracer is None and len(setup) < SETUP_PROBES:
        setup.append(setup_time(args))
    elapsed = time.perf_counter() - start

    repeats = plain + traced
    for r in repeats:
        checks += r.checks
    if tracer is not None:
        first = dict(tracer.counts[run_ids[0]])
        same = all(dict(tracer.counts[r]) == first for r in run_ids)
        checks.append(("traced counts repeat exactly", same, f"{len(run_ids)} traced repeats"))
    ops = sum(len(r.points) + len(r.outputs.rows) for r in repeats) + len(checks)
    failed_ops = sum(1 for r in repeats for p in r.points if p[1].failure is not None)
    failed_checks = [c for c in checks if not c[1]]
    failed_ops += len(failed_checks)

    if tracer is None:
        values, notes = end_to_end(workload, setup, plain)
        units = dict(END_TO_END)
        reported = [name for name, _ in END_TO_END]
    else:
        values = per_layer(tracer, run_ids, plain, traced)
        notes = {}
        units = {name: unit for name, unit, _ in spans.PER_LAYER}
        reported = list(units)

    print(f"workload {args.workload} seed {args.seed}: {len(plain)} untraced and "
          f"{len(traced)} traced repeats in {elapsed:.1f} s")
    shown = list(values) if tracer is None else reported
    for name in shown:
        unit = units.get(name, "s")
        print(f"  {name:<42} {values[name]:>14.6g} {unit:<7} {notes.get(name, '')}")
    print(f"  {'fail_ratio':<42} {failed_ops / ops:>14.6g} {'ratio':<7} "
          f"{failed_ops} failed of {ops} operations (points, rows, output checks)")
    for name, _, detail in failed_checks[:50]:
        print(f"  FAILED {name}: {detail}")

    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}" + ("-smoke" if args.smoke else "")
    if tracer is not None:
        tracer.write(OUT / f"spans-{stem}.json")
    report = {
        "machine": info, "metrics": values, "notes": notes,
        "setup_s_samples": setup,
        "wall_s_untraced": [r.wall_s for r in plain],
        "wall_s_traced": [r.wall_s for r in traced],
        "checks": {"total": len(checks), "failed": [list(c) for c in failed_checks]},
    }
    with open(OUT / f"report-{stem}.json", "w") as fh:
        json.dump(report, fh, indent=1)

    result = {
        "correct": not failed_ops,
        "attempted": ops,
        "failed": failed_ops,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in reported},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
