"""Run every workload on sets of seeds and summarize each metric's spread.

    python3 perfbench/baseline.py --seeds 201-210 --seeds 211-220 \
        --out perfbench/baseline.json

Each ``--seeds`` range is one set; sets run one after another, every workload
within a set.  For each set, workload and metric it records the values,
their median, the first and third quartiles (``statistics.quantiles(values,
n=4)``) and the interquartile range as a share of the median, which
``BENCHMARK.json``'s bounds are set against.  For every later set it also
records each metric's shift: the change of its median from the first set's,
as a share of the first set's median.  Runs are sequential; each run's full
output is kept in ``perfbench/out/baseline/``.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def seed_range(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_set(name, seeds, run_seconds, bounds, logs):
    values, machine, correct = {}, None, True
    for seed in seeds:
        res = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", name, "--seed",
             str(seed), "--seconds", str(run_seconds), "--trace", "0"],
            cwd=ROOT, capture_output=True, text=True, timeout=900)
        (logs / f"{name}-seed{seed}.out").write_text(res.stdout + res.stderr)
        if res.returncode != 0:
            sys.exit(f"{name} seed {seed} failed:\n{res.stderr}")
        lines = res.stdout.strip().splitlines()
        machine = json.loads(lines[0].partition("machine: ")[2])
        result = json.loads(lines[-1])
        correct = correct and result["correct"]
        for metric, entry in result["metrics"].items():
            values.setdefault(metric, {"unit": entry["unit"], "values": []})
            values[metric]["values"].append(entry["value"])
    for metric, entry in values.items():
        vals = entry["values"]
        q1, med, q3 = statistics.quantiles(vals, n=4)
        entry.update(median=med, q1=q1, q3=q3, spread=(q3 - q1) / med,
                     bound=bounds[metric])
        print(f"{name:<9} seeds {seeds[0]}-{seeds[-1]} {metric:<14} median "
              f"{med:<12.6g} {entry['unit']:<7} spread {entry['spread']:.3f}",
              flush=True)
    machine.pop("seed", None)
    return {"seeds": seeds, "correct": correct, "machine": machine, "metrics": values}


def main(argv=None):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=seed_range, action="append", required=True,
                        help="one set of seeds, e.g. 101-110 (repeatable)")
    parser.add_argument("--workload", action="append",
                        help="limit to these workloads (repeatable)")
    parser.add_argument("--out", type=Path, help="write the summary here as JSON")
    args = parser.parse_args(argv)
    names = args.workload or [w["name"] for w in spec["workloads"]]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    logs = HERE / "out" / "baseline"
    logs.mkdir(parents=True, exist_ok=True)

    sets = {name: [] for name in names}
    for seeds in args.seeds:
        for name in names:
            sets[name].append(run_set(name, seeds, spec["run_seconds"], bounds, logs))
    summary = {"run_seconds": spec["run_seconds"], "workloads": {}}
    for name, runs in sets.items():
        first = runs[0]["metrics"]
        shifts = [{metric: entry["median"] / first[metric]["median"] - 1.0
                   for metric, entry in later["metrics"].items()} for later in runs[1:]]
        for shift in shifts:
            for metric, value in shift.items():
                print(f"{name:<9} {metric:<14} median shift {value:+.3f} "
                      f"(bound {bounds[metric]})", flush=True)
        summary["workloads"][name] = {"sets": runs, "shifts": shifts}
    if args.out:
        args.out.write_text(json.dumps(summary, indent=1) + "\n")


if __name__ == "__main__":
    main()
