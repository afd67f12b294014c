"""Regenerate reference.json, the outputs the benchmark's checks compare with.

    python3 perfbench/make_reference.py

Runs every workload once at a seed no benchmark run uses, with ten times the
trial budgets (Monte Carlo calibration included), and records each SER point
with its Wilson interval, each analytic row and each calibrated epsilon.
fig6_cli's budgets come from its config, so its points are re-simulated
through simkit with the same plans and ten times the budget.
"""

import json
import sys
from dataclasses import replace
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import workloads  # noqa: E402
from diffrelay.simkit import TrialsPolicy, run_sweep  # noqa: E402

REF_SEED = 987654321
SCALE = 10


def record(workload):
    recorder = workloads.Recorder()
    recorder.install()
    try:
        with workloads.workdir(HERE / "out" / "work") as wd:
            outputs = workload.run(wd)
    finally:
        recorder.patches.undo()
    return outputs, recorder.points


def fig6_points(workload, outputs):
    table = workloads._eps_table(outputs.epsilons)
    recorder = workloads.Recorder()
    recorder.install()
    try:
        for job in workload.config.jobs:
            pol = job.plan.trials
            run_sweep(replace(job.plan, epsilon_table=table,
                              trials=TrialsPolicy(pol.min_errors * SCALE,
                                                  pol.max_trials * SCALE)),
                      workers=2)
    finally:
        recorder.patches.undo()
    return recorder.points


def main():
    reference = {}
    for name in workloads.WORKLOADS:
        workload = workloads.make(name, REF_SEED, scale=1 if name == "fig6_cli" else SCALE)
        workload.setup()
        outputs, points = record(workload)
        if name == "fig6_cli":
            points = fig6_points(workload, outputs)
        reference[name] = {
            "seed": REF_SEED,
            "scale": SCALE,
            "points": [
                {"key": workloads.curve_key(plan), "snr_db": p.snr_db, "ser": p.ser,
                 "ci_low": p.ci_low, "ci_high": p.ci_high, "errors": p.errors,
                 "trials": p.trials}
                for plan, p, _ in points
            ],
            "rows": [{"key": k, "source": src, "snr_db": snr, "value": v}
                     for k, src, snr, v in outputs.rows],
            "epsilons": [
                {"kind": k, "M": m, "snr_db": snr, "value": est.value,
                 "std_err": est.std_err, "trials": est.trials}
                for (k, m, snr), est in sorted(outputs.epsilons.items())
            ],
        }
        print(f"{name}: {len(points)} points, {len(outputs.rows)} rows, "
              f"{len(outputs.epsilons)} epsilons", file=sys.stderr)
    with open(workloads.REFERENCE, "w") as fh:
        json.dump(reference, fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    main()
