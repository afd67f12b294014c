"""Batch front end: config-driven calibration, sweeps, and reports.

A run is described by a small YAML document (version 1).  The document
either spells out one experiment (constellation, decoder, grid, relays)
or names a figure preset.  A preset is a list of the same experiment keys,
one fragment per job, plus its comparisons; every fragment goes through
the checks of a spelled-out config, and scalar settings given next to a
preset override every job.  Sweeps emit one CSV of curve rows with the
fixed column order of ``CSV_COLUMNS``

    source,kind,M,N_relays,decoder,snr_db,ser,ci_low,ci_high,errors,trials,seed

plus a JSON summary holding slope fits and curve comparisons.  Analytic
rows (closed_form, quadrature, asymptotic) carry errors=0, trials=0 and
collapse the interval onto the value; closed_form rows are the paper's
closed-form SER evaluated by ``analysis.pep_exact``.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
from dataclasses import asdict, dataclass, replace

import yaml

from .analysis import (
    PepTermsConfig,
    SnrPoint,
    fit_diversity_slope,
    pep_asymptotic_multirelay,
    pep_exact,
    pep_quadrature_approx,
    ser_nearest_neighbor,
)
from .channel import LinkParams, calibration_stream
from .constellation import make_psk, make_qam
from .decoders import DecoderConfig, count_ops
from .relay import calibrate_epsilon, load_epsilon_table, save_epsilon_table
from .simkit import (
    ExperimentPlan,
    SerCurve,
    SerPoint,
    TrialsPolicy,
    compare_curves,
    resolve_epsilons,
    run_sweep,
)

# column -> type of a curve row, in the CSV's column order
_CSV_TYPES = {
    "source": str, "kind": str, "M": int, "N_relays": int, "decoder": str,
    "snr_db": float, "ser": float, "ci_low": float, "ci_high": float,
    "errors": int, "trials": int, "seed": int,
}
CSV_COLUMNS = tuple(_CSV_TYPES)
OUTPUT_DIR_ENV = "DIFFRELAY_OUTPUT_DIR"
_ANALYSIS_SOURCES = ("closed_form", "quadrature", "asymptotic")
_COMPARE_MODES = ("ratio", "horizontal_db")
_SELECTOR_KEYS = ("kind", "M", "N_relays", "decoder", "seed")
# the SerPoint fields each JSON point reports, in order
_POINT_FIELDS = ("snr_db", "errors", "trials", "fallbacks", "stop_reason", "rounds",
                 "deff", "wall_s")


class ConfigError(ValueError):
    """A config document that fails schema or value validation."""


# ---------------------------------------------------------------------------
# config schema


_TOP_KEYS = {
    "version", "preset", "constellation", "decoder", "grid_db", "n_relays",
    "tying", "sr_offsets_db", "rd_offsets_db", "trials", "seed", "frame_len",
    "sr_eps", "zero_noise", "analysis", "calibration", "compare", "output",
}
_PRESET_OVERRIDE_KEYS = {
    "version", "preset", "grid_db", "trials", "seed", "frame_len",
    "calibration", "output",
}
_CONSTELLATION_KEYS = {"kind", "M"}
_DECODER_KEYS = {"kind", "epsilons"}
_TRIALS_KEYS = {"min_errors", "max_trials"}
_CALIBRATION_KEYS = {"path", "grid_db", "method", "trials", "target_std_err"}
_COMPARE_KEYS = {"a", "b", "mode"}
_OUTPUT_KEYS = {"dir", "basename"}


def _fragments(kind, sizes, decoders, **keys):
    """Job fragments for every (M, decoder), M outermost."""
    return [{"constellation": {"kind": kind, "M": m}, "decoder": {"kind": d}, **keys}
            for m in sizes for d in decoders]


def _horizontal(pairs):
    return [{"a": a, "b": b, "mode": "horizontal_db"} for a, b in pairs]


# preset -> (job fragments, compare entries), written in the keys of a
# spelled-out config; the preset's grid_db (default _PRESET_GRID) joins each
_PRESETS = {
    "fig4_psk": (_fragments("psk", (4, 16, 32), ("ml", "pl")),
                 _horizontal((f"psk{m}_pl", f"psk{m}_ml") for m in (4, 16, 32))),
    "fig4_qam": (_fragments("qam", (8, 16, 32, 64), ("ml", "pl", "genie_reference")),
                 _horizontal((f"qam{m}_ml", f"qam{m}_genie_reference")
                             for m in (8, 16, 32, 64))),
    "fig5": (_fragments("psk", (8,), ("pl", "naive_eps0")),
             _horizontal([("psk8_pl", "psk8_naive_eps0")])),
    "fig6": (_fragments("psk", (4, 16, 32), ("pl",),
                        analysis={"closed_form": True, "quadrature": True}), []),
    "fig7": ([frag for n in (2, 3) for frag in _fragments(
        "psk", (4,), ("pl",), n_relays=n, analysis={"asymptotic": True})], []),
}
_PRESET_GRID = {"start": 0, "stop": 36, "step": 3}
_MAX_GRID_POINTS = 10_000


def _check_keys(mapping, allowed, where):
    if not isinstance(mapping, dict):
        raise ConfigError(f"{where} must be a mapping, got {type(mapping).__name__}")
    unknown = sorted(set(mapping) - allowed)
    if unknown:
        raise ConfigError(f"{where} has unrecognized keys: {', '.join(unknown)}")


def _number(value, where):
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{where} must be a number, got {value!r}")
    if not abs(value) <= sys.float_info.max:  # nan, +-inf, or an int past float range
        raise ConfigError(f"{where} must be finite, got {value!r}")
    return float(value)


def _numbers(value, where):
    if not isinstance(value, (list, tuple)):
        raise ConfigError(f"{where} must be a list of numbers, got {value!r}")
    return tuple(_number(v, f"{where}[{i}]") for i, v in enumerate(value))


def _integer(value, where):
    """A whole number; a fraction is refused rather than truncated."""
    if isinstance(value, bool) or not (
        isinstance(value, int) or isinstance(value, float) and value.is_integer()
    ):
        raise ConfigError(f"{where} must be an integer, got {value!r}")
    return int(value)


def _text(value, where):
    if not isinstance(value, str):
        raise ConfigError(f"{where} must be a string, got {value!r}")
    return value


def _flag(value, where):
    """A YAML boolean; a string such as "off" or a number is refused."""
    if not isinstance(value, bool):
        raise ConfigError(f"{where} must be true or false, got {value!r}")
    return value


def _grid_from(value, where):
    if isinstance(value, dict):
        _check_keys(value, {"start", "stop", "step"}, where)
        try:
            start, stop, step = (_number(value[k], f"{where}.{k}")
                                 for k in ("start", "stop", "step"))
        except KeyError as exc:
            raise ConfigError(f"{where} range needs start, stop, step") from exc
        if step <= 0.0 or stop < start:
            raise ConfigError(f"{where} range must have step > 0 and stop >= start")
        # floor with a little slack, so no point lands past stop
        steps = (stop - start) / step + 1e-9
        if not steps < _MAX_GRID_POINTS:  # an infinite quotient too
            raise ConfigError(f"{where} range must have at most {_MAX_GRID_POINTS} points")
        count = int(steps) + 1
        return tuple(round(start + i * step, 9) for i in range(count))
    if isinstance(value, (list, tuple)):
        if not value:
            raise ConfigError(f"{where} must not be empty")
        return _numbers(value, where)
    raise ConfigError(f"{where} must be a list or a start/stop/step mapping")


def _spec_from(mapping, where):
    _check_keys(mapping, _CONSTELLATION_KEYS, where)
    kind = mapping.get("kind")
    if kind not in ("psk", "qam"):
        raise ConfigError(f"{where}.kind must be 'psk' or 'qam', got {kind!r}")
    m = _integer(mapping.get("M"), f"{where}.M")
    return make_psk(m) if kind == "psk" else make_qam(m)


def _decoder_from(mapping, where):
    _check_keys(mapping, _DECODER_KEYS, where)
    if "kind" not in mapping:
        raise ConfigError(f"{where}.kind is required")
    eps = mapping.get("epsilons", ())
    if eps is None:
        eps = ()
    return DecoderConfig(mapping["kind"], epsilons=_numbers(eps, f"{where}.epsilons"))


def _trials_from(mapping, where):
    _check_keys(mapping, _TRIALS_KEYS, where)
    defaults = TrialsPolicy()
    return TrialsPolicy(
        min_errors=_integer(mapping.get("min_errors", defaults.min_errors),
                            f"{where}.min_errors"),
        max_trials=_integer(mapping.get("max_trials", defaults.max_trials),
                            f"{where}.max_trials"),
    )


@dataclass(frozen=True)
class SweepJob:
    """One curve to produce: a plan plus the analytic overlays to emit."""

    label: str
    plan: ExperimentPlan
    analysis: tuple[str, ...] = ()


@dataclass(frozen=True)
class CalibrationConfig:
    path: str
    grid_db: tuple[float, ...]
    method: str
    trials: int
    target_std_err: float | None


@dataclass(frozen=True)
class RunConfig:
    """Validated run description: jobs to execute and where results go."""

    jobs: tuple[SweepJob, ...]
    compare: tuple[tuple[str, str, str], ...]
    calibration: CalibrationConfig | None
    output_dir: str
    basename: str
    seed: int


def _job_from(doc, trials, seed, frame_len):
    """Validate one experiment, spelled out or a preset fragment, into a job.

    The label is ``{kind}{M}_{decoder}``, with ``_n{N}`` unless N is 1.
    """
    for key in ("constellation", "decoder", "grid_db"):
        if key not in doc:
            raise ConfigError(f"config.{key} is required without a preset")
    spec = _spec_from(doc["constellation"], "config.constellation")
    decoder = _decoder_from(doc["decoder"], "config.decoder")
    grid = _grid_from(doc["grid_db"], "config.grid_db")
    section = doc.get("analysis", {})
    _check_keys(section, set(_ANALYSIS_SOURCES), "config.analysis")
    analysis = tuple(source for source in _ANALYSIS_SOURCES
                     if _flag(section.get(source, False), f"config.analysis.{source}"))
    n_relays = _integer(doc.get("n_relays", 1), "config.n_relays")
    tying = doc.get("tying", "all_equal")
    sr_offsets, rd_offsets = (_numbers(doc.get(key, ()), f"config.{key}")
                              for key in ("sr_offsets_db", "rd_offsets_db"))
    if "closed_form" in analysis or "quadrature" in analysis:
        if spec.kind != "psk" or n_relays != 1:
            raise ConfigError(
                "closed_form and quadrature analysis model one erroneous "
                "relay with a PSK alphabet"
            )
        if tying == "sr_infinite" or decoder.kind == "naive_eps0":
            raise ConfigError(
                "closed_form and quadrature analysis model a relay that errs "
                "at its calibrated epsilon and a decoder that clips at it; "
                "they cannot serve sr_infinite tying or the naive_eps0 decoder"
            )
    if "asymptotic" in analysis:
        if spec.kind != "psk":
            raise ConfigError("asymptotic analysis needs a PSK alphabet")
        if n_relays < 1:
            raise ConfigError(
                f"asymptotic analysis needs at least one relay, got n_relays {n_relays}"
            )
        if tying == "custom" and any(rd_offsets):
            raise ConfigError(
                "asymptotic analysis takes one mean SNR for the direct and "
                "every relay-destination link; it cannot serve nonzero "
                "rd_offsets_db"
            )
    label = f"{spec.kind}{spec.M}_{decoder.kind}" + (f"_n{n_relays}" if n_relays != 1 else "")
    plan = ExperimentPlan(
        spec=spec, decoder=decoder, snr_grid_db=grid, n_relays=n_relays,
        tying=tying, sr_offsets_db=sr_offsets, rd_offsets_db=rd_offsets,
        trials=trials, seed=seed, frame_len=frame_len,
        sr_eps=doc.get("sr_eps", "configured"),
        zero_noise=_flag(doc.get("zero_noise", False), "config.zero_noise"),
    )
    return SweepJob(label, plan, analysis)


def load_config(path, *, seed=None, output_dir=None):
    """Parse and validate a YAML run config; overrides win over the file."""
    with open(path) as fh:
        doc = yaml.safe_load(fh)
    if doc is None:
        doc = {}
    _check_keys(doc, _TOP_KEYS, "config")
    version = doc.get("version")
    if isinstance(version, bool) or version != 1:  # True == 1 in Python
        raise ConfigError(f"config.version must be 1, got {version!r}")

    preset = doc.get("preset")
    if preset is None:
        fragments, entries = (doc,), doc.get("compare", [])
    else:
        _text(preset, "config.preset")
        extra = sorted(set(doc) - _PRESET_OVERRIDE_KEYS)
        if extra:
            raise ConfigError(
                f"preset {preset!r} already defines: {', '.join(extra)}; "
                "remove those keys or drop the preset"
            )
        if preset not in _PRESETS:
            raise ConfigError(f"preset must be one of {tuple(_PRESETS)}, got {preset!r}")
        fragments, entries = _PRESETS[preset]
        grid = doc.get("grid_db", _PRESET_GRID)
        fragments = [dict(fragment, grid_db=grid) for fragment in fragments]

    run_seed = _integer(doc.get("seed", 0) if seed is None else seed, "config.seed")
    if not 0 <= run_seed < 1 << 64:
        raise ConfigError(f"config.seed must lie in [0, 2**64), got {run_seed}")
    frame_len = _integer(doc.get("frame_len", 64), "config.frame_len")
    trials = _trials_from(doc.get("trials", {}), "config.trials")

    calibration = None
    if "calibration" in doc:
        cal = doc["calibration"]
        _check_keys(cal, _CALIBRATION_KEYS, "config.calibration")
        if "path" not in cal:
            raise ConfigError("config.calibration.path is required")
        method = cal.get("method", "analytic_approx")
        if method not in ("analytic_approx", "monte_carlo"):
            raise ConfigError(
                f"config.calibration.method must be analytic_approx or "
                f"monte_carlo, got {method!r}"
            )
        cal_grid = _grid_from(cal["grid_db"], "config.calibration.grid_db") \
            if "grid_db" in cal else ()
        cal_trials = _integer(cal.get("trials", 1_000_000), "config.calibration.trials")
        if cal_trials < 1:
            raise ConfigError(f"config.calibration.trials must be >= 1, got {cal_trials}")
        target = cal.get("target_std_err")
        if target is not None:
            target = _number(target, "config.calibration.target_std_err")
            if not target > 0.0:
                raise ConfigError(
                    f"config.calibration.target_std_err must be > 0, got {target!r}")
        calibration = CalibrationConfig(
            path=_text(cal["path"], "config.calibration.path"), grid_db=cal_grid,
            method=method, trials=cal_trials, target_std_err=target,
        )

    try:
        jobs = tuple(_job_from(fragment, trials, run_seed, frame_len)
                     for fragment in fragments)
    except ValueError as exc:
        if isinstance(exc, ConfigError):
            raise
        raise ConfigError(str(exc)) from exc
    if calibration and calibration.method != "monte_carlo" and any(
            job.plan.spec.kind == "qam" for job in jobs):
        raise ConfigError(f"config.calibration.method {calibration.method} is "
                          "available for psk constellations only; use monte_carlo")
    if not isinstance(entries, list):
        raise ConfigError("config.compare must be a list")
    labels = {job.label for job in jobs}
    comparisons = []
    for i, entry in enumerate(entries):
        where = f"config.compare[{i}]"
        _check_keys(entry, _COMPARE_KEYS, where)
        for side in ("a", "b"):
            if entry.get(side) not in labels:
                raise ConfigError(f"{where}.{side} must name a job label")
        mode = entry.get("mode", "ratio")
        if mode not in _COMPARE_MODES:
            raise ConfigError(f"{where}.mode must be one of {_COMPARE_MODES}, got {mode!r}")
        comparisons.append((entry["a"], entry["b"], mode))

    out = doc.get("output", {})
    _check_keys(out, _OUTPUT_KEYS, "config.output")
    out = {key: _text(value, f"config.output.{key}") for key, value in out.items()}
    resolved_dir = output_dir or out.get("dir") or os.environ.get(OUTPUT_DIR_ENV) or "."
    default_base = os.path.splitext(os.path.basename(path))[0]
    return RunConfig(
        jobs=jobs, compare=tuple(comparisons), calibration=calibration,
        output_dir=str(resolved_dir), basename=out.get("basename", default_base),
        seed=run_seed,
    )


# ---------------------------------------------------------------------------
# calibrate


def cmd_calibrate(config):
    """Fill the epsilon table for every (kind, M, SNR) the config requests."""
    if config.calibration is None or not config.calibration.grid_db:
        print("calibrate: config.calibration.path and grid_db are required",
              file=sys.stderr)
        return 2
    cal = config.calibration
    specs = {(job.plan.spec.kind, job.plan.spec.M): job.plan.spec
             for job in config.jobs}
    table = {}
    if os.path.exists(cal.path):
        table = load_epsilon_table(cal.path)
    violations = 0
    for kind, m in sorted(specs):
        spec = specs[(kind, m)]
        for snr_db in cal.grid_db:
            link = LinkParams(1.0, 10.0 ** (-snr_db / 10.0))
            est = calibrate_epsilon(
                link, spec, method=cal.method, trials=cal.trials,
                rng=calibration_stream(config.seed, kind, m, snr_db)
                if cal.method == "monte_carlo" else None,
            )
            status = "ok"
            if cal.target_std_err is not None and est.std_err > cal.target_std_err:
                status = "std_err above target"
                violations += 1
            table[(kind, m, round(float(snr_db), 6))] = est
            print(f"{kind}-{m} {snr_db:g} dB: eps={est.value:.6e} "
                  f"std_err={est.std_err:.2e} ({status})")
    parent = os.path.dirname(cal.path)
    if parent:
        os.makedirs(parent, exist_ok=True)
    save_epsilon_table(cal.path, table)
    print(f"wrote {cal.path} ({len(table)} rows)")
    return 1 if violations else 0


# ---------------------------------------------------------------------------
# sweep


def _epsilon_lookup(config):
    if config.calibration is None or not os.path.exists(config.calibration.path):
        return {}
    table = load_epsilon_table(config.calibration.path)
    return {key: est.value for key, est in table.items()}


def _analysis_row_value(source, plan, index):
    """SER of one analytic overlay at one grid point of ``plan``.

    closed_form and quadrature rows are evaluated at the point's own link
    SNRs, with the epsilon its decoder is built with.  asymptotic rows take
    the direct and every relay-destination link at the grid SNR (load_config
    refuses relay-destination offsets); their relays are error-free, so the
    source-relay links do not enter.
    """
    spec = plan.spec
    snr_db = plan.snr_grid_db[index]
    if source == "asymptotic":
        gbar = 10.0 ** (snr_db / 10.0)
        cfg = PepTermsConfig(SnrPoint.from_db(snr_db, snr_db), 1e-6, spec.M)
        n = plan.n_relays

        def pep_fn(x_p, x_q, inner_cfg):
            return pep_asymptotic_multirelay(x_p, x_q, n, gbar, inner_cfg)

        return ser_nearest_neighbor(spec, pep_fn, cfg)
    sd_db, (sr_db,), (rd_db,) = plan._link_db(index)
    (eps,) = resolve_epsilons(plan, index)
    cfg = PepTermsConfig(SnrPoint.from_db(sd_db, rd_db, sr_db), eps, spec.M)
    pep_fn = pep_exact if source == "closed_form" else pep_quadrature_approx
    return ser_nearest_neighbor(spec, pep_fn, cfg)


def _row(source, plan, p):
    """One curve row from point ``p``.  An analytic row's point has no counts
    and an interval collapsed onto its value; its decoder is the paper's PL."""
    decoder = plan.decoder.kind if source == "mc" else "pl"
    return dict(zip(CSV_COLUMNS, (
        source, plan.spec.kind, plan.spec.M, plan.n_relays, decoder, p.snr_db,
        p.ser, p.ci_low, p.ci_high, p.errors, p.trials, plan.seed,
    )))


def _slope_entry(curve):
    snr = curve.snr_db
    if snr.size < 3:
        return {"error": "fewer than 3 successful points"}
    window = (float(snr.min()) - 0.1, float(snr.max()) + 0.1)
    try:
        return {"window_db": list(window),
                "slope": fit_diversity_slope(curve, window)}
    except ValueError as exc:
        return {"error": str(exc)}


def cmd_sweep(config, workers=1):
    """Run every job, emit the curve CSV and the JSON summary."""
    eps_by_key = _epsilon_lookup(config)
    eps_table = tuple(sorted(eps_by_key.items()))
    rows = []
    summary_curves = []
    curves_by_label = {}
    for job in config.jobs:
        plan = replace(job.plan, epsilon_table=eps_table)
        curve = run_sweep(plan, workers=workers)
        curves_by_label[job.label] = curve
        ok = [p for p in curve.points if p.failure is None]
        rows.extend(_row("mc", plan, p) for p in ok)
        entry = {
            "label": job.label, "kind": plan.spec.kind, "M": plan.spec.M,
            "n_relays": plan.n_relays, "decoder": plan.decoder.kind,
            "seed": plan.seed, "plan_hash": curve.plan_hash,
            "wall_time_s": curve.wall_time_s,
            "points_ok": int(curve.snr_db.size),
            "points": [{key: getattr(p, key) for key in _POINT_FIELDS} for p in ok],
            "failures": [
                {"snr_db": p.snr_db, "reason": p.failure}
                for p in curve.failures
            ],
            "slope_fit": _slope_entry(curve),
            # always empty, no evaluator warns; kept for the JSON layout
            "analysis_warnings": [],
        }
        for source in job.analysis:
            for index, snr_db in enumerate(plan.snr_grid_db):
                try:
                    ser = _analysis_row_value(source, plan, index).value
                except ValueError as exc:
                    entry["failures"].append(
                        {"snr_db": snr_db, "reason": f"{source}: {exc}"}
                    )
                    continue
                rows.append(_row(source, plan, SerPoint(snr_db, 0, 0, ser, ser, ser)))
        summary_curves.append(entry)

    comparisons = []
    for a_label, b_label, mode in config.compare:
        entry = {"a": a_label, "b": b_label, "mode": mode}
        try:
            report = compare_curves(
                curves_by_label[a_label], curves_by_label[b_label], mode=mode
            )
            entry["rows"] = [asdict(row) for row in report.rows]
        except ValueError as exc:
            entry["error"] = str(exc)
        comparisons.append(entry)

    os.makedirs(config.output_dir, exist_ok=True)
    csv_path = os.path.join(config.output_dir, f"{config.basename}.csv")
    json_path = os.path.join(config.output_dir, f"{config.basename}.json")
    write_rows(csv_path, rows)
    all_ok = not any(entry["failures"] for entry in summary_curves)
    summary = {
        "version": 1,
        "basename": config.basename,
        "curves": summary_curves,
        "comparisons": comparisons,
        "all_points_ok": all_ok,
    }
    with open(json_path, "w") as fh:
        json.dump(summary, fh, indent=2)
        fh.write("\n")
    print(f"wrote {csv_path} ({len(rows)} rows) and {json_path}")
    return 0 if all_ok else 1


# ---------------------------------------------------------------------------
# CSV emit/parse


def write_rows(path, rows):
    """Emit curve rows in the normative column order with round-trip floats."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_COLUMNS)
        for row in rows:
            writer.writerow([repr(float(row[col])) if kind is float else row[col]
                             for col, kind in _CSV_TYPES.items()])


def read_rows(path):
    """Parse a curve CSV back into typed row dicts."""
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames != list(CSV_COLUMNS):
            raise ValueError(
                f"{path} does not have the expected columns {CSV_COLUMNS}"
            )
        return [{col: kind(raw[col]) for col, kind in _CSV_TYPES.items()}
                for raw in reader]


def _curve_from_rows(rows, selectors, where):
    """One mc curve out of parsed rows, narrowed by key=value selectors."""
    chosen = [r for r in rows if r["source"] == "mc"]
    for key, value in selectors:
        chosen = [r for r in chosen if str(r[key]) == value]
    if not chosen:
        raise ValueError(f"{where}: no mc rows match the selection")
    identities = {tuple(r[key] for key in _SELECTOR_KEYS) for r in chosen}
    if len(identities) > 1:
        raise ValueError(
            f"{where}: selection is ambiguous across curves {sorted(identities)}; "
            f"add key=value selectors ({', '.join(_SELECTOR_KEYS)})"
        )
    chosen.sort(key=lambda r: r["snr_db"])
    points = tuple(
        SerPoint(r["snr_db"], r["errors"], r["trials"], r["ser"],
                 r["ci_low"], r["ci_high"])
        for r in chosen
    )
    return SerCurve(points, "csv", 0.0)


def _parse_selectors(pairs, where):
    out = []
    for pair in pairs or ():
        if "=" not in pair:
            raise ValueError(f"{where}: selector {pair!r} is not key=value")
        key, value = pair.split("=", 1)
        if key not in _SELECTOR_KEYS:
            raise ValueError(f"{where}: cannot select on {key!r}")
        out.append((key, value))
    return out


def cmd_compare(path_a, path_b, mode, select_a, select_b):
    """Compare one mc curve from each CSV; report goes to stdout as JSON."""
    curve_a = _curve_from_rows(read_rows(path_a), _parse_selectors(select_a, "--select-a"), path_a)
    curve_b = _curve_from_rows(read_rows(path_b), _parse_selectors(select_b, "--select-b"), path_b)
    report = compare_curves(curve_a, curve_b, mode=mode)
    json.dump(asdict(report), sys.stdout, indent=2)
    sys.stdout.write("\n")
    return 0


# ---------------------------------------------------------------------------
# complexity


def ml_op_formula(m):
    return 15 * m * m + 20 * m


def pl_op_formula(m):
    return 33 * (m - 1)


def complexity_table(sizes):
    rows = []
    for m in sizes:
        ml_measured = count_ops("ml", m)
        pl_measured = count_ops("pl", m)
        rows.append({
            "M": m,
            "ml_measured": ml_measured, "ml_formula": ml_op_formula(m),
            "pl_measured": pl_measured, "pl_formula": pl_op_formula(m),
            "ml_equal": ml_measured == ml_op_formula(m),
            "pl_equal": pl_measured == pl_op_formula(m),
        })
    return rows


def cmd_complexity(sizes, output=None):
    rows = complexity_table(sizes)
    header = f"{'M':>4} {'ml_measured':>12} {'ml_formula':>11} " \
             f"{'pl_measured':>12} {'pl_formula':>11} {'ml_equal':>9} {'pl_equal':>9}"
    print(header)
    for row in rows:
        print(f"{row['M']:>4} {row['ml_measured']:>12} {row['ml_formula']:>11} "
              f"{row['pl_measured']:>12} {row['pl_formula']:>11} "
              f"{str(row['ml_equal']):>9} {str(row['pl_equal']):>9}")
    if output:
        with open(output, "w", newline="") as fh:
            writer = csv.DictWriter(fh, fieldnames=list(rows[0]))
            writer.writeheader()
            writer.writerows(rows)
        print(f"wrote {output}")
    return 0 if all(r["ml_equal"] and r["pl_equal"] for r in rows) else 1


# ---------------------------------------------------------------------------
# entry point


def _positive_int(text):
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be an integer >= 1, got {text!r}")
    return value


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="diffrelay",
        description="Differential decode-and-forward link simulator and analyzer",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    for verb in ("calibrate", "sweep"):
        p = sub.add_parser(verb)
        p.add_argument("config", help="YAML run config")
        p.add_argument("--seed", type=int, default=None,
                       help="override the config seed")
        p.add_argument("--output-dir", default=None,
                       help=f"override output directory (or ${OUTPUT_DIR_ENV})")
        if verb == "sweep":
            p.add_argument("--workers", type=_positive_int, default=1,
                           help="threads per grid point, at most the usable "
                                "CPUs; results are identical for any value")

    p = sub.add_parser("complexity")
    p.add_argument("--sizes", type=int, nargs="+",
                   default=[2, 4, 8, 16, 32, 64])
    p.add_argument("--output", default=None, help="also write the table as CSV")

    p = sub.add_parser("compare")
    p.add_argument("csv_a")
    p.add_argument("csv_b")
    p.add_argument("--mode", choices=_COMPARE_MODES, default="ratio")
    p.add_argument("--select-a", action="append", default=[],
                   metavar="KEY=VALUE")
    p.add_argument("--select-b", action="append", default=[],
                   metavar="KEY=VALUE")
    return parser


def main(argv=None):
    args = _build_parser().parse_args(argv)
    try:
        if args.verb == "complexity":
            return cmd_complexity(args.sizes, args.output)
        if args.verb == "compare":
            return cmd_compare(args.csv_a, args.csv_b, args.mode,
                               args.select_a, args.select_b)
        config = load_config(args.config, seed=args.seed,
                             output_dir=args.output_dir)
        if args.verb == "calibrate":
            return cmd_calibrate(config)
        return cmd_sweep(config, workers=args.workers)
    except (ConfigError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
