"""Smoke tests of the benchmark itself; they run every workload at a tiny size.

    python3 -m pytest perfbench/test_perfbench.py -q
"""

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run(workload, trace, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=300)


def result_of(res):
    assert res.returncode == 0, res.stderr
    result = json.loads(res.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, res.stdout
    assert result["failed"] == 0 and result["attempted"] >= 1
    return result


def test_spec_names_and_bounds():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads", "end_to_end",
                         "per_layer"}
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert len(names) == len(set(names))
    setup = [m for m in SPEC["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"
    assert all(0 < m["bound"] <= setup[0]["bound"] <= 0.25 for m in SPEC["end_to_end"])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_prints_every_end_to_end_metric(workload):
    metrics = result_of(run(workload, 0))["metrics"]
    expected = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in metrics.items()} == expected
    assert all(v["value"] > 0 for v in metrics.values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_prints_every_per_layer_metric_and_spans_add_up(workload):
    metrics = result_of(run(workload, 1))["metrics"]
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: v["unit"] for k, v in metrics.items()} == expected
    assert metrics["trace.spans"]["value"] > 0

    trace = json.loads((HERE / "out" / f"spans-{workload}-seed3-trace1-smoke.json").read_text())
    spans = trace["spans"]
    assert spans and trace["counts"]
    by_id = {s["id"]: s for s in spans}
    for s in spans:
        assert s["start"] <= s["end"]
        assert -1e-9 <= s["self_s"] <= s["end"] - s["start"] + 1e-9
        assert s["parent"] is None or s["parent"] in by_id
        assert s["run_id"] is not None
    roots = [s for s in spans if s["parent"] is None]
    assert {s["name"] for s in roots} == {f"bench.{workload}"}
    root_total = sum(s["end"] - s["start"] for s in roots)
    self_total = sum(s["self_s"] for s in spans)
    if len({s["thread"] for s in spans}) == 1:
        assert self_total == pytest.approx(root_total, rel=1e-9)
    else:  # pool threads overlap, so their spans add busy time beyond the wall
        assert self_total >= root_total * (1 - 1e-9)


@pytest.mark.parametrize("workload", ["psk_mc", "fig6_cli"])
def test_a_missing_point_or_row_fails_the_checks(workload):
    sys.path.insert(0, str(HERE))
    import run

    run.load_package()
    import workloads

    reference = json.loads(workloads.REFERENCE.read_text())[workload]
    bench = workloads.make(workload, 3, smoke=True)
    bench.setup()
    repeat = run.run_repeat(workloads, bench, reference)
    assert all(ok for _, ok, _ in repeat.checks), repeat.checks
    assert repeat.points and repeat.outputs.rows

    def failed(outputs, points):
        return [name for name, ok, _ in bench.check(outputs, points, reference) if not ok]

    # fig6_cli also fails its CSV-versus-points check on a changed point list
    plan, point, _ = repeat.points[0]
    entry = (workloads.curve_key(plan), point.snr_db)
    assert f"missing point {entry}" in failed(repeat.outputs, repeat.points[1:])
    assert f"unexpected point {entry}" in failed(repeat.outputs,
                                                 repeat.points + repeat.points[:1])
    key, source, snr_db, _ = repeat.outputs.rows[0]  # fig6_cli: a CSV row
    short = dataclasses.replace(repeat.outputs, rows=repeat.outputs.rows[1:])
    assert failed(short, repeat.points) == [f"missing row {(key, source, snr_db)}"]


def test_ser_check_allows_a_small_sample_without_a_bad_frame():
    sys.path.insert(0, str(HERE))
    import run

    run.load_package()
    import workloads
    from diffrelay.simkit import SerPoint, wilson_interval

    reference = json.loads(workloads.REFERENCE.read_text())["psk_mc"]
    ref = next(p for p in reference["points"]
               if p["key"] == "psk16_ml_n1" and p["snr_db"] == 30.0)

    def ok(errors, trials):
        lo, hi = wilson_interval(errors, trials)
        point = SerPoint(30.0, errors, trials, errors / trials, lo, hi)
        return workloads._wilson_check("psk16_ml_n1@30dB", point, ref)[1]

    # one smoke batch that caught no bad frame, or a single error
    assert ok(0, 8192) and ok(1, 8192)
    # at full size (about 30 bad frames expected) no errors, or five times
    # the reference rate, still fail
    trials = 2 * workloads.ROUND
    assert ok(round(ref["ser"] * trials), trials)
    assert not ok(0, trials)
    assert not ok(round(5 * ref["ser"] * trials), trials)


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    res = run(WORKLOADS[0], 0, cwd=tmp_path)
    assert res.returncode != 0
    assert '"metrics"' not in res.stdout
