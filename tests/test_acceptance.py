"""Acceptance suite: one end-to-end check per shipped claim.

Every test prints a single "criterion N: PASS/FAIL - ..." line (visible
with pytest -s, or in the captured output of a failing test).  Budgets,
grids, and seeds are frozen; the seeds were fixed before the first full
run and are not tuned to the outcomes.
"""

import math

import numpy as np
import pytest

from oracles import asymptotic_conditional_direct, pdf_decode_psk, pdf_decode_qam

from diffrelay.analysis import (
    PepTermsConfig,
    SnrPoint,
    fit_diversity_slope,
    pep_asymptotic_multirelay,
    pep_exact,
    pep_quadrature_approx,
    ser_nearest_neighbor,
)
from diffrelay.channel import LinkParams, draw_block_gain, draw_noise, make_stream
from diffrelay.constellation import make_psk, make_qam
from diffrelay.decoders import (
    DecoderConfig,
    clip_threshold,
    count_ops,
    decode_psk_frames,
    decode_qam_frames,
)
from diffrelay.relay import analytic_epsilon_psk, calibrate_epsilon
from diffrelay.simkit import (
    ExperimentPlan,
    SerCurve,
    SerPoint,
    TrialsPolicy,
    compare_curves,
    run_sweep,
    snr_at_level,
)
from diffrelay.specfun import SeriesTruncation

WORKERS = 8


def report(num, ok, detail):
    line = f"criterion {num}: {'PASS' if ok else 'FAIL'} - {detail}"
    print(line)
    return line


def psk_eps_table(spec, grid):
    return tuple(
        ((spec.kind, spec.M, round(float(db), 6)),
         analytic_epsilon_psk(LinkParams(1.0, 10.0 ** (-db / 10.0)), spec))
        for db in grid
    )


def qam_eps_table(spec, grid, seed, trials=400_000):
    rows = []
    for i, db in enumerate(grid):
        est = calibrate_epsilon(
            LinkParams(1.0, 10.0 ** (-db / 10.0)), spec,
            method="monte_carlo", trials=trials,
            rng=np.random.default_rng((seed, i)),
        )
        rows.append(((spec.kind, spec.M, round(float(db), 6)), est.value))
    return tuple(rows)


def analytic_curve(grid, values):
    """Zero-width curve rows for slope fitting of analytic overlays."""
    points = tuple(
        SerPoint(float(db), 0, 1, v, v, v) for db, v in zip(grid, values)
    )
    return SerCurve(points, "analytic", 0.0)


def test_criterion_1_clip_thresholds():
    reference = (4.9053, 7.3032, 9.6148, 11.9183, 14.2210, 16.5236)
    worst = max(
        abs(clip_threshold(16, 10.0 ** (-k)) - ref)
        for k, ref in enumerate(reference, start=1)
    )
    line = report(1, worst < 5e-5,
                  f"16-ary clip thresholds match all six references, "
                  f"worst |error| = {worst:.2e}")
    assert worst < 5e-5, line


def test_criterion_2_op_counts():
    sizes = (2, 4, 8, 16, 32, 64)
    bad = [
        m for m in sizes
        if count_ops("ml", m) != 15 * m * m + 20 * m
        or count_ops("pl", m) != 33 * (m - 1)
    ]
    line = report(2, not bad,
                  "measured op counts equal 15M^2+20M (ml) and 33(M-1) (pl) "
                  f"for M in {sizes}" if not bad else f"count mismatch at M in {bad}")
    assert not bad, line


def test_criterion_3_ml_matches_joint_density():
    mismatches = 0
    total = 0
    rng = make_stream(3, 90)
    snrs = np.linspace(0.0, 30.0, 11)
    per_group = 1000

    spec = make_psk(4)
    for db in snrs:
        noise_var = 10.0 ** (-db / 10.0)
        link = LinkParams(1.0, noise_var)
        eps = float(rng.uniform(0.001, 0.3))
        cfg = DecoderConfig("ml", epsilons=(eps,))
        kp = rng.integers(0, spec.M, size=per_group)
        k = rng.integers(0, spec.M, size=per_group)
        v_prev = spec.points[kp]
        v_curr = v_prev * spec.points[k]
        h_sd = draw_block_gain(link, rng, size=per_group)
        h_rd = draw_block_gain(link, rng, size=per_group)
        e = draw_noise(noise_var, rng, size=(4, per_group))
        sd = (h_sd * v_prev + e[0], h_sd * v_curr + e[1])
        rd = (h_rd * v_prev + e[2], h_rd * v_curr + e[3])
        got, _ = decode_psk_frames(np.stack(sd, axis=-1), np.stack(rd, axis=-1)[None],
                                   noise_var, (noise_var,), spec, cfg)
        got = got[:, 0]
        oracle = pdf_decode_psk(sd[0], sd[1], rd[0][None], rd[1][None],
                                noise_var, (noise_var,), spec.points, (eps,))
        mismatches += int(np.sum(got != oracle))
        total += per_group

    spec = make_qam(16)
    for db in snrs:
        noise_var = 10.0 ** (-db / 10.0)
        link = LinkParams(1.0, noise_var)
        eps = float(rng.uniform(0.001, 0.3))
        kp = rng.integers(0, spec.M, size=per_group)
        k = rng.integers(0, spec.M, size=per_group)
        x_prev = spec.points[kp]
        x = spec.points[k]
        v_prev = x_prev
        v_curr = x_prev * x / np.abs(x_prev)
        h_sd = draw_block_gain(link, rng, size=per_group)
        h_rd = draw_block_gain(link, rng, size=per_group)
        e = draw_noise(noise_var, rng, size=(4, per_group))
        sd = (h_sd * v_prev + e[0], h_sd * v_curr + e[1])
        rd = (h_rd * v_prev + e[2], h_rd * v_curr + e[3])
        mags = np.abs(x_prev)
        # frames [kp, k] with the true symbols fed back, so the decision on k
        # sees |x_kp| on both links; the reference sample is read only by the
        # decision on kp
        true_idx = np.stack([kp, k], axis=-1)
        got, _ = decode_qam_frames(
            np.stack([h_sd, *sd], axis=-1), np.stack([h_rd, *rd], axis=-1)[None],
            noise_var, (noise_var,), spec,
            DecoderConfig("genie_reference", epsilons=(eps,)),
            true_source_idx=true_idx, true_relay_idx=true_idx[None],
        )
        got = got[:, 1]
        oracle = pdf_decode_qam(sd[0], sd[1], rd[0][None], rd[1][None],
                                noise_var, (noise_var,), spec.points, (eps,),
                                mags, mags[None])
        mismatches += int(np.sum(got != oracle))
        total += per_group

    line = report(3, mismatches == 0,
                  f"ml decode agrees with the joint-density maximizer on "
                  f"{total - mismatches}/{total} instances (QPSK and 16-QAM)")
    assert mismatches == 0, line


def test_criterion_4_analysis_vs_simulation():
    spec = make_psk(4)
    grid = (12.0, 18.0, 24.0, 30.0)
    table = psk_eps_table(spec, grid)
    plan = ExperimentPlan(
        spec=spec, decoder=DecoderConfig("pl"), snr_grid_db=grid,
        trials=TrialsPolicy(min_errors=200, max_trials=100_000_000),
        seed=4, epsilon_table=table,
    )
    curve = run_sweep(plan, workers=WORKERS)
    eps_by_db = {key[2]: value for key, value in table}
    closed_bad = []
    quad_bad = []
    for p in curve.points:
        cfg = PepTermsConfig(
            SnrPoint.from_db(p.snr_db, p.snr_db, p.snr_db),
            eps_by_db[round(p.snr_db, 6)], spec.M,
        )
        closed = ser_nearest_neighbor(spec, pep_exact, cfg).value
        quad = ser_nearest_neighbor(spec, pep_quadrature_approx, cfg).value
        half = (p.ci_high - p.ci_low) / 2.0
        if abs(closed - p.ser) > 3.0 * half:
            closed_bad.append(p.snr_db)
        if abs(quad / p.ser - 1.0) > 0.15:
            quad_bad.append(p.snr_db)
    ok = not closed_bad and not quad_bad
    parts = []
    parts.append("closed form within 3 error bars at all points"
                 if not closed_bad else
                 f"closed form outside 3 error bars at {closed_bad} dB")
    parts.append("quadrature within 15% of simulation at all points"
                 if not quad_bad else
                 f"quadrature off by more than 15% at {quad_bad} dB "
                 "(nearest-neighbor union bound overestimates the fading "
                 "average; the two analysis routes agree with each other)")
    line = report(4, ok, "; ".join(parts))
    assert ok, line


def test_criterion_5_single_relay_diversity():
    spec = make_psk(4)
    grid = (25.0, 29.0, 33.0)
    table = psk_eps_table(spec, grid)
    window = (24.9, 33.1)
    slopes = {}
    for kind in ("pl", "naive_eps0"):
        plan = ExperimentPlan(
            spec=spec, decoder=DecoderConfig(kind), snr_grid_db=grid,
            trials=TrialsPolicy(min_errors=1000, max_trials=200_000_000),
            seed=5, frame_len=16, epsilon_table=table,
        )
        slopes[kind] = fit_diversity_slope(run_sweep(plan, workers=WORKERS), window)
    ok = 1.7 <= slopes["pl"] <= 2.3 and slopes["naive_eps0"] < 1.3
    line = report(5, ok,
                  f"pl slope {slopes['pl']:.2f} in [1.7, 2.3] and naive "
                  f"zero-eps slope {slopes['naive_eps0']:.2f} < 1.3 over 25-33 dB")
    assert ok, line


def test_criterion_6_multirelay_asymptotics():
    spec = make_psk(4)
    grid = (15.0, 18.0, 21.0)
    table = psk_eps_table(spec, grid)
    window = (14.9, 21.1)
    ok = True
    parts = []
    for n in (2, 3):
        plan = ExperimentPlan(
            spec=spec, decoder=DecoderConfig("pl"), snr_grid_db=grid,
            n_relays=n,
            trials=TrialsPolicy(min_errors=500, max_trials=600_000_000),
            seed=6, frame_len=16, epsilon_table=table,
        )
        curve = run_sweep(plan, workers=WORKERS)
        asym = []
        for db in grid:
            gbar = 10.0 ** (db / 10.0)
            cfg = PepTermsConfig(
                SnrPoint.from_db(db, db), 1e-6, spec.M,
                truncation=SeriesTruncation(max_terms=max(8192, int(80.0 * gbar))),
            )
            asym.append(ser_nearest_neighbor(
                spec,
                lambda xp, xq, c: pep_asymptotic_multirelay(xp, xq, n, gbar, c),
                cfg,
            ).value)
        bound_ok = all(a <= p.ser for a, p in zip(asym, curve.points))
        asym_slope = fit_diversity_slope(analytic_curve(grid, asym), window)
        mc_slope = fit_diversity_slope(curve, window)
        # The destination knows only each relay's average error rate, so the
        # ML mixture and the PL clip both cap a relay's evidence at
        # ln((M-1)(1-eps)/eps).  Each wrong relay cancels a correct one, so
        # ceil(N/2) wrong relays and a faded direct link make an error, and
        # equal-SNR erroneous relays reach order ceil(N/2)+1; order N+1 needs
        # error-free relays, as the asymptotic curve assumes.
        sim_order = (n + 1) // 2 + 1
        band = (n + 1 - 0.35, n + 1 + 0.35)
        sim_band = (sim_order - 0.35, sim_order + 0.35)
        asym_ok = band[0] <= asym_slope <= band[1]
        mc_ok = sim_band[0] <= mc_slope <= sim_band[1]
        ok = ok and bound_ok and asym_ok and mc_ok
        parts.append(
            f"N={n}: bound {'holds' if bound_ok else 'violated'}, asymptotic "
            f"slope {asym_slope:.2f} {'in' if asym_ok else 'outside'} "
            f"[{band[0]:.2f}, {band[1]:.2f}] (order N+1 = {n + 1}, error-free "
            f"relays), simulated slope {mc_slope:.2f} "
            f"{'in' if mc_ok else 'outside'} "
            f"[{sim_band[0]:.2f}, {sim_band[1]:.2f}] (order ceil(N/2)+1 = "
            f"{sim_order}: each wrong relay's clipped evidence cancels a "
            f"correct relay's)"
        )
    line = report(6, ok, "; ".join(parts))
    assert ok, line


def test_criterion_7_ml_pl_equivalence():
    cases = (
        (make_psk(4), (16.0, 19.0, 22.0)),
        (make_psk(16), (28.0, 31.0, 34.0)),
        (make_qam(16), (26.0, 29.0, 32.0)),
    )
    gaps = {}
    for spec, grid in cases:
        if spec.kind == "psk":
            table = psk_eps_table(spec, grid)
        else:
            table = qam_eps_table(spec, grid, seed=7)
        crossings = {}
        for kind in ("ml", "pl"):
            plan = ExperimentPlan(
                spec=spec, decoder=DecoderConfig(kind), snr_grid_db=grid,
                trials=TrialsPolicy(min_errors=1500, max_trials=60_000_000),
                seed=7, frame_len=16, epsilon_table=table,
            )
            crossings[kind] = snr_at_level(run_sweep(plan, workers=WORKERS), 1e-3)
        gaps[f"{spec.kind}{spec.M}"] = abs(crossings["ml"] - crossings["pl"])
    ok = all(g < 0.5 for g in gaps.values())
    detail = ", ".join(f"{name} {g:.3f} dB" for name, g in gaps.items())
    line = report(7, ok, f"ml-pl gap at SER 1e-3: {detail} (limit 0.5 dB)")
    assert ok, line


def test_criterion_8_feedback_error_propagation():
    spec = make_qam(16)
    grid = (10.0, 14.0, 18.0, 22.0, 26.0, 30.0, 32.0)
    table = qam_eps_table(spec, grid, seed=8)
    curves = {}
    for kind in ("ml", "genie_reference"):
        plan = ExperimentPlan(
            spec=spec, decoder=DecoderConfig(kind), snr_grid_db=grid,
            trials=TrialsPolicy(min_errors=2000, max_trials=40_000_000),
            seed=8, frame_len=16, epsilon_table=table,
        )
        curves[kind] = run_sweep(plan, workers=WORKERS)
    rep = compare_curves(curves["genie_reference"], curves["ml"],
                         mode="horizontal_db")
    rows = [r for r in rep.rows if 10.0 <= r.snr_db <= 30.0]
    assert rows, "no comparable points in 10-30 dB"
    bad = [(r.snr_db, r.value) for r in rows if abs(r.value) >= 0.5]
    ok = not bad
    if ok:
        worst = max(abs(r.value) for r in rows)
        detail = (f"decision-directed feedback within {worst:.3f} dB of genie "
                  f"feedback at every point in 10-30 dB (limit 0.5)")
    else:
        listed = ", ".join(f"{db:g} dB: {v:+.2f}" for db, v in bad)
        detail = (f"feedback gap reaches 0.5 dB or more at {listed} "
                  "(low-SNR reference decisions are often wrong there; "
                  "the gap is under 0.5 dB from 18-22 dB up)")
    line = report(8, ok, detail)
    assert ok, line


def test_criterion_9_zero_snr_series():
    spec = make_psk(4)
    x_p, x_q = complex(spec.points[1]), complex(spec.points[0])
    worst = 0.0
    for n in range(4):
        value = asymptotic_conditional_direct(x_p, x_q, n, 0.0)
        worst = max(worst, abs(value - 0.5))
    line = report(9, worst <= 1e-9,
                  f"conditional series at zero combined SNR equals 1/2 for "
                  f"N in 0..3, worst |deviation| = {worst:.1e}")
    assert worst <= 1e-9, line
