"""Tests for the Monte Carlo experiment engine.

Frozen-seed simulations keep every assertion deterministic; statistical
comparisons against independent references use 3-sigma bounds on the
engine's own cluster-adjusted intervals.
"""

import json
import math
import threading
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diffrelay.analysis import (
    PepTermsConfig,
    SnrPoint,
    fit_diversity_slope,
    pep_exact,
    ser_nearest_neighbor,
)
from diffrelay import simkit
from diffrelay.channel import LinkParams, make_stream
from diffrelay.constellation import make_psk, make_qam
from diffrelay.decoders import DecoderConfig
from diffrelay.diffmod import encode_psk_frame, encode_qam_frame
from diffrelay.relay import analytic_epsilon_psk, relay_process_frame
from diffrelay.simkit import (
    ComparisonRow,
    ExperimentPlan,
    SerCurve,
    SerPoint,
    TrialsPolicy,
    _design_effect,
    _simulate_batch,
    compare_curves,
    resolve_epsilons,
    run_point,
    run_sweep,
    snr_at_level,
    wilson_interval,
)

from oracles import dpsk_ser_rayleigh

QPSK = make_psk(4)
QAM16 = make_qam(16)
_Z = 1.959963984540054


def analytic_eps(db):
    return analytic_epsilon_psk(LinkParams(1.0, 10.0 ** (-db / 10.0)), QPSK)


def eps_table(grid):
    return tuple((("psk", 4, db), analytic_eps(db)) for db in grid)


def z_score(point, truth):
    sd = (point.ci_high - point.ci_low) / (2.0 * _Z)
    return (point.ser - truth) / sd


_CACHE = {}


def cached(key, build):
    if key not in _CACHE:
        _CACHE[key] = build()
    return _CACHE[key]


def small_curve():
    def build():
        plan = ExperimentPlan(
            QPSK,
            DecoderConfig("pl", epsilons=(analytic_eps(10.0),)),
            (10.0, 14.0),
            trials=TrialsPolicy(200, 1_000_000),
            seed=3,
        )
        return plan, run_sweep(plan, workers=1)

    return cached("small", build)


def genie_and_erroneous():
    def build():
        grid = (21.0, 24.0, 27.0)
        err_plan = ExperimentPlan(
            QPSK,
            DecoderConfig("pl"),
            grid,
            trials=TrialsPolicy(600, 40_000_000),
            seed=33,
            epsilon_table=eps_table(grid),
        )
        gen_plan = replace(err_plan, tying="sr_infinite")
        return run_sweep(err_plan, workers=8), run_sweep(gen_plan, workers=8)

    return cached("genie_pair", build)


def synthetic_curve(rows):
    points = tuple(
        SerPoint(db, 0, 1, ser, ser, ser) for db, ser in rows
    )
    return SerCurve(points, "feed", 0.0)


class TestPolicyAndPlanValidation:
    def test_policy_defaults(self):
        pol = TrialsPolicy()
        assert pol.min_errors == 200
        assert pol.max_trials == 100_000_000

    def test_min_errors_floor(self):
        with pytest.raises(ValueError, match="min_errors must be >= 1"):
            TrialsPolicy(min_errors=0)

    def test_max_trials_floor(self):
        with pytest.raises(ValueError, match="max_trials must allow"):
            TrialsPolicy(min_errors=200, max_trials=399)

    def test_empty_grid(self):
        with pytest.raises(ValueError, match="snr_grid_db must be nonempty"):
            ExperimentPlan(QPSK, DecoderConfig("ml", epsilons=(0.1,)), ())

    def test_negative_relays(self):
        with pytest.raises(ValueError, match="n_relays must be >= 0"):
            ExperimentPlan(QPSK, DecoderConfig("ml"), (10.0,), n_relays=-1)

    def test_bad_tying(self):
        with pytest.raises(ValueError, match="tying must be one of"):
            ExperimentPlan(QPSK, DecoderConfig("ml"), (10.0,), tying="loose")

    def test_bad_sr_eps(self):
        with pytest.raises(ValueError, match="sr_eps must be one of"):
            ExperimentPlan(QPSK, DecoderConfig("ml"), (10.0,), sr_eps="zero")

    def test_custom_needs_offsets(self):
        with pytest.raises(ValueError, match="one sr and rd offset per relay"):
            ExperimentPlan(
                QPSK, DecoderConfig("ml"), (10.0,), tying="custom",
                sr_offsets_db=(3.0,),
            )

    def test_offsets_require_custom(self):
        with pytest.raises(ValueError, match="only meaningful with custom"):
            ExperimentPlan(
                QPSK, DecoderConfig("ml"), (10.0,), sr_offsets_db=(3.0,),
                rd_offsets_db=(0.0,),
            )

    @pytest.mark.parametrize("tying, offsets", [("all_equal", ()), ("custom", (3.0,))])
    def test_vanishing_epsilons_require_sr_infinite(self, tying, offsets):
        # resolve_epsilons reads sr_eps only under sr_infinite, so elsewhere
        # 'vanishing' changed the plan hash and nothing else
        with pytest.raises(ValueError, match="only meaningful with sr_infinite"):
            ExperimentPlan(QPSK, DecoderConfig("ml"), (10.0,), tying=tying,
                           sr_offsets_db=offsets, rd_offsets_db=offsets, sr_eps="vanishing")
        ExperimentPlan(QPSK, DecoderConfig("ml"), (10.0,), tying="sr_infinite",
                       sr_eps="vanishing")

    def test_frame_len_floor(self):
        with pytest.raises(ValueError, match="frame_len must be >= 1"):
            ExperimentPlan(QPSK, DecoderConfig("ml"), (10.0,), frame_len=0)

    def test_budget_must_cover_one_frame(self):
        with pytest.raises(ValueError, match=r"max_trials \(10\) must cover at least one frame"):
            ExperimentPlan(QPSK, DecoderConfig("ml"), (10.0,),
                           trials=TrialsPolicy(5, 10), frame_len=64)
        plan = ExperimentPlan(QPSK, DecoderConfig("ml", epsilons=(0.1,)), (10.0,),
                              trials=TrialsPolicy(5, 16), frame_len=16)
        assert run_point(plan, 0).trials == 16

    def test_epsilon_count_mismatch(self):
        with pytest.raises(ValueError, match="carries 2 epsilons"):
            ExperimentPlan(
                QPSK, DecoderConfig("ml", epsilons=(0.1, 0.2)), (10.0,),
                n_relays=1,
            )

    def test_genie_reference_needs_qam(self):
        for m in (2, 8):
            with pytest.raises(ValueError, match="genie_reference needs a QAM alphabet"):
                ExperimentPlan(make_psk(m), DecoderConfig("genie_reference"), (10.0,))
        plan = ExperimentPlan(QAM16, DecoderConfig("genie_reference"), (10.0,))
        assert plan.decoder.kind == "genie_reference"

    def test_grid_coerced_to_float(self):
        plan = ExperimentPlan(QPSK, DecoderConfig("ml"), (10, 14))
        assert plan.snr_grid_db == (10.0, 14.0)
        assert all(isinstance(v, float) for v in plan.snr_grid_db)


class TestTopologyAndHash:
    def test_all_equal_links(self):
        plan = ExperimentPlan(QPSK, DecoderConfig("ml"), (10.0, 20.0))
        source_dest, source_relay, relay_dest = plan.topology_at(1)
        for link in (source_dest, source_relay[0], relay_dest[0]):
            assert link.noise_var == pytest.approx(0.01)
            assert link.sigma2 == 1.0

    def test_custom_offsets(self):
        plan = ExperimentPlan(
            QPSK, DecoderConfig("ml"), (5.0,), tying="custom",
            sr_offsets_db=(10.0,), rd_offsets_db=(-2.0,),
        )
        source_dest, source_relay, relay_dest = plan.topology_at(0)
        assert source_dest.avg_snr == pytest.approx(10.0 ** 0.5)
        assert source_relay[0].avg_snr == pytest.approx(10.0 ** 1.5)
        assert relay_dest[0].avg_snr == pytest.approx(10.0 ** 0.3)

    def test_hash_stable_and_sensitive(self):
        plan = ExperimentPlan(QPSK, DecoderConfig("ml"), (10.0,))
        twin = ExperimentPlan(QPSK, DecoderConfig("ml"), (10.0,))
        assert plan.plan_hash() == twin.plan_hash()
        assert plan.plan_hash() != replace(plan, seed=1).plan_hash()
        assert (
            plan.plan_hash()
            != replace(plan, trials=TrialsPolicy(min_errors=100)).plan_hash()
        )


class TestWilsonInterval:
    @given(
        trials=st.integers(1, 10**6),
        frac=st.floats(0.0, 1.0),
        shrink=st.floats(0.001, 1.0),
    )
    @settings(max_examples=200, deadline=None)
    def test_interval_brackets_rate(self, trials, frac, shrink):
        errors = int(round(frac * trials))
        lo, hi = wilson_interval(errors, trials, n_eff=shrink * trials)
        p = errors / trials
        assert 0.0 <= lo <= p <= hi <= 1.0

    def test_zero_errors_zero_floor(self):
        lo, hi = wilson_interval(0, 1000)
        assert lo == 0.0
        assert 0.0 < hi < 0.01

    def test_all_errors_unit_ceiling(self):
        lo, hi = wilson_interval(1000, 1000)
        assert hi == 1.0
        assert 0.99 < lo < 1.0

    def test_smaller_n_eff_widens(self):
        lo1, hi1 = wilson_interval(50, 10000)
        lo2, hi2 = wilson_interval(50, 10000, n_eff=2500.0)
        assert hi2 - lo2 > hi1 - lo1

    def test_n_eff_capped_at_trials(self):
        assert wilson_interval(50, 10000, n_eff=1e9) == wilson_interval(50, 10000)

    def test_input_validation(self):
        with pytest.raises(ValueError, match="trials must be >= 1"):
            wilson_interval(0, 0)
        with pytest.raises(ValueError, match="errors must lie in"):
            wilson_interval(5, 4)

    def test_effective_trials_concentrated_frames(self):
        # frames of 64 symbols with errors (4, 0, 0, 0)
        n_eff = 256 / _design_effect(256, 4, 4, 16)
        assert n_eff == pytest.approx(256 / (12.0 / 3.9375))

    def test_effective_trials_degenerate(self):
        assert _design_effect(256, 4, 0, 0) == 1.0
        assert _design_effect(64, 1, 5, 25) == 1.0


class TestResolveEpsilons:
    def test_no_relays(self):
        plan = ExperimentPlan(QPSK, DecoderConfig("ml"), (10.0,), n_relays=0)
        assert resolve_epsilons(plan, 0) == ()

    def test_naive_gets_zeros(self):
        plan = ExperimentPlan(QPSK, DecoderConfig("naive_eps0"), (10.0,), n_relays=2)
        assert resolve_epsilons(plan, 0) == (0.0, 0.0)

    def test_vanishing_gets_zeros(self):
        plan = ExperimentPlan(
            QPSK, DecoderConfig("pl"), (10.0,), tying="sr_infinite",
            sr_eps="vanishing", epsilon_table=eps_table((10.0,)),
        )
        assert resolve_epsilons(plan, 0) == (0.0,)

    def test_sr_infinite_configured_uses_table(self):
        plan = ExperimentPlan(
            QPSK, DecoderConfig("pl"), (10.0,), tying="sr_infinite",
            epsilon_table=eps_table((10.0,)),
        )
        assert resolve_epsilons(plan, 0) == (analytic_eps(10.0),)

    def test_explicit_epsilons_win(self):
        plan = ExperimentPlan(
            QPSK, DecoderConfig("pl", epsilons=(0.07,)), (10.0,),
            epsilon_table=eps_table((10.0,)),
        )
        assert resolve_epsilons(plan, 0) == (0.07,)

    def test_table_keyed_at_offset_snr(self):
        plan = ExperimentPlan(
            QPSK, DecoderConfig("pl"), (5.0,), tying="custom",
            sr_offsets_db=(10.0,), rd_offsets_db=(0.0,),
            epsilon_table=eps_table((15.0,)),
        )
        assert resolve_epsilons(plan, 0) == (analytic_eps(15.0),)

    def test_missing_entry_points_to_calibration(self):
        plan = ExperimentPlan(QPSK, DecoderConfig("pl"), (10.0,))
        with pytest.raises(ValueError, match="run the calibrate step first"):
            resolve_epsilons(plan, 0)


class TestRunPoint:
    def test_zero_noise_never_errs(self):
        plan = ExperimentPlan(
            QPSK, DecoderConfig("pl", epsilons=(0.02,)), (3.0,),
            trials=TrialsPolicy(1, 10_000), seed=0, zero_noise=True,
        )
        pt = run_point(plan, 0)
        assert pt.errors == 0
        assert pt.ser == 0.0
        assert pt.ci_low == 0.0
        assert pt.fallbacks == 0
        assert 0 < pt.trials <= 10_000

    def test_design_effect_gives_the_interval(self):
        # block fading clusters errors within frames, so the design effect
        # exceeds 1; trials / deff reproduces the point's Wilson interval
        plan = ExperimentPlan(
            QPSK, DecoderConfig("pl", epsilons=(0.02,)), (6.0,),
            trials=TrialsPolicy(200, 20_000), seed=4,
        )
        pt = run_point(plan, 0)
        assert pt.errors > 0
        assert pt.deff > 1.0
        assert (pt.ci_low, pt.ci_high) == wilson_interval(pt.errors, pt.trials,
                                                          pt.trials / pt.deff)
        quiet = run_point(replace(plan, zero_noise=True), 0)
        assert quiet.errors == 0 and quiet.deff == 1.0

    def test_wall_time_is_reported_and_not_compared(self):
        plan = ExperimentPlan(
            QPSK, DecoderConfig("pl", epsilons=(0.02,)), (6.0,),
            trials=TrialsPolicy(10, 1_000), seed=4,
        )
        pt = run_point(plan, 0)
        assert pt.wall_s > 0.0
        assert replace(pt, wall_s=pt.wall_s + 1.0) == pt

    def test_index_out_of_range(self):
        plan = ExperimentPlan(QPSK, DecoderConfig("naive_eps0"), (10.0,))
        with pytest.raises(ValueError, match="grid index 1 outside"):
            run_point(plan, 1)

    def test_missing_calibration_is_annotated(self):
        plan = ExperimentPlan(QPSK, DecoderConfig("pl"), (10.0,))
        pt = run_point(plan, 0)
        assert pt.failure is not None
        assert "calibrate" in pt.failure
        assert math.isnan(pt.ser)
        assert pt.trials == 0

    def test_no_relay_matches_differential_reference(self):
        # single-link differential detection over Rayleigh block fading
        for db, min_errors in ((12.0, 2000), (20.0, 1500)):
            plan = ExperimentPlan(
                QPSK, DecoderConfig("ml"), (db,), n_relays=0,
                trials=TrialsPolicy(min_errors, 10_000_000), seed=7,
            )
            pt = run_point(plan, 0, workers=4)
            truth = dpsk_ser_rayleigh(4, 10.0 ** (db / 10.0))
            assert abs(z_score(pt, truth)) < 3.0

    def test_fallback_counter_reaches_output(self):
        plan = ExperimentPlan(
            QPSK, DecoderConfig("pl", epsilons=(analytic_eps(5.0),)), (5.0,),
            trials=TrialsPolicy(100, 1_000_000), seed=7,
        )
        pt = run_point(plan, 0)
        assert pt.fallbacks > 0

    @pytest.mark.parametrize("frame_len, max_trials, low, high", [
        # one round of 8 x 8192 symbols reaches 10 errors at 0 dB; at 30 dB
        # the budget of two rounds and one frame runs out first, and its
        # last round holds that one frame
        (64, 2 * 65_536 + 64, (34_273, 65_536, 1, "min_errors"),
         (2, 2 * 65_536 + 64, 3, "max_trials")),
        # 90 frames of 100 symbols: one round of batches of 81 and 9 frames
        (100, 9_001, (4_629, 9_000, 1, "min_errors"), (0, 9_000, 1, "max_trials")),
        # 700 frames: a round of eight 81-frame batches, then one of 52
        (100, 70_001, (34_252, 64_800, 1, "min_errors"), (1, 70_000, 2, "max_trials")),
    ])
    def test_stop_reason_and_rounds(self, frame_len, max_trials, low, high):
        # the error counts also pin the frames simulated to the trials reported
        plan = ExperimentPlan(QPSK, DecoderConfig("pl", (0.02,)), (0.0, 30.0),
                              frame_len=frame_len, trials=TrialsPolicy(10, max_trials), seed=2)
        for index, want in enumerate((low, high)):
            point = run_point(plan, index)
            assert (point.errors, point.trials, point.rounds, point.stop_reason) == want
        failed = run_point(ExperimentPlan(QPSK, DecoderConfig("pl"), (10.0,)), 0)
        assert (failed.stop_reason, failed.rounds) == (None, 0)

    def test_respects_max_trials(self):
        plan = ExperimentPlan(
            QPSK, DecoderConfig("pl", epsilons=(0.02,)), (30.0,),
            trials=TrialsPolicy(200, 50_000), seed=1,
        )
        pt = run_point(plan, 0)
        assert pt.trials <= 50_000
        assert pt.errors < 200


class TestFusedShares:
    """A QAM share of several batches gives the sum of their separate results."""

    JOBS = [(3, 40), (4, 17), (9, 64)]

    def check_stack(self, plan):
        fused = _simulate_batch(plan, 0, self.JOBS, plan.decoder)
        single = [_simulate_batch(plan, 0, [job], plan.decoder) for job in self.JOBS]
        assert fused == tuple(sum(parts) for parts in zip(*single))
        assert fused[0] > 0

    @pytest.mark.parametrize("tying", ["all_equal", "sr_infinite"])
    @pytest.mark.parametrize("n_rel", [0, 1, 3])
    @pytest.mark.parametrize("kind", ["ml", "pl", "genie_reference"])
    def test_stack_equals_sum_of_jobs(self, kind, n_rel, tying):
        self.check_stack(ExperimentPlan(
            QAM16, DecoderConfig(kind, epsilons=(0.05,) * n_rel), (12.0,),
            n_relays=n_rel, tying=tying, seed=12, frame_len=16,
        ))

    def test_zero_noise_stack_equals_sum_of_jobs(self):
        # QAM still errs without noise: in a deep fade the log(denom) term
        # favours low-energy candidates
        self.check_stack(ExperimentPlan(
            QAM16, DecoderConfig("pl", epsilons=(0.05,)), (12.0,),
            seed=12, frame_len=16, zero_noise=True,
        ))

    def test_worker_shares_keep_results(self, monkeypatch):
        # 1,458 frames of 64: a full round of 8 batches, then 3 full and one
        # partial batch, so shares differ in batches and frames; the CPU cap
        # is lifted so 2 and 3 real threads run whatever the machine has
        monkeypatch.setattr(simkit, "_usable_cpus", lambda: 8)
        plan = ExperimentPlan(
            QAM16, DecoderConfig("pl", epsilons=(0.05,)), (14.0,),
            trials=TrialsPolicy(40_000, 93_312), seed=3,
        )
        one, two, three = (run_point(plan, 0, workers=w) for w in (1, 2, 3))
        assert one.trials == 93_312
        assert one.fallbacks > 0
        assert one == two == three


class TestStreamLayout:
    """Decoder inputs rebuilt from the streams alone, one (batch, purpose) at a time.

    Purpose 0 gives a batch's symbols, purpose 1 the direct link and
    2 + 2r, 3 + 2r relay r's source-relay and relay-destination links; each
    link stream gives its gain first and its noise second.
    """

    JOBS = [(3, 5), (4, 2)]

    @staticmethod
    def link(rng, link, v, zero_noise):
        length = v.shape[-1]
        scale = np.sqrt(link.sigma2 / 2.0)
        h = rng.normal(0.0, scale, size=len(v)) + 1j * rng.normal(0.0, scale, size=len(v))
        y = h[:, None] * v
        if not zero_noise:
            scale = np.sqrt(link.noise_var / 2.0)
            size = (len(v), length)
            y = y + (rng.normal(0.0, scale, size=size) + 1j * rng.normal(0.0, scale, size=size))
        return y

    def rebuild(self, plan):
        spec, seed, length, n_rel = plan.spec, plan.seed, plan.frame_len, plan.n_relays
        sd, sr, rd = plan.topology_at(0)
        encode = encode_psk_frame if spec.kind == "psk" else encode_qam_frame
        idx = np.empty((sum(n for _, n in self.JOBS), length), dtype=np.int64)
        y_sd = np.empty((len(idx), length + 1), dtype=complex)
        y_rd = np.empty((n_rel,) + y_sd.shape, dtype=complex)
        relay_idx = np.empty((n_rel,) + idx.shape, dtype=np.int64)
        lo = 0
        for batch, n in self.JOBS:
            rows, lo = slice(lo, lo + n), lo + n
            idx[rows] = make_stream(seed, 0, batch, 0).integers(0, spec.M, size=(n, length))
            v = encode(idx[rows], spec)
            y_sd[rows] = self.link(make_stream(seed, 0, batch, 1), sd, v, plan.zero_noise)
            for r in range(n_rel):
                v_r, relay_idx[r, rows] = v, idx[rows]
                if plan.tying != "sr_infinite":
                    y_sr = self.link(make_stream(seed, 0, batch, 2 + 2 * r), sr[r], v,
                                     plan.zero_noise)
                    v_r, relay_idx[r, rows] = relay_process_frame(y_sr, spec, sr[r].noise_var)
                y_rd[r, rows] = self.link(make_stream(seed, 0, batch, 3 + 2 * r), rd[r], v_r,
                                          plan.zero_noise)
        return idx, y_sd, y_rd, relay_idx, sd.noise_var, [link.noise_var for link in rd]

    @pytest.mark.parametrize("zero_noise", [False, True])
    @pytest.mark.parametrize("tying", ["all_equal", "sr_infinite", "custom"])
    @pytest.mark.parametrize("n_rel", [0, 2])
    @pytest.mark.parametrize("spec", [QPSK, QAM16], ids=["psk4", "qam16"])
    def test_decoder_inputs_follow_the_streams(self, monkeypatch, spec, n_rel, tying,
                                               zero_noise):
        offsets = (3.0, -3.0)[:n_rel] if tying == "custom" else ()
        plan = ExperimentPlan(
            spec, DecoderConfig("pl", epsilons=(0.05,) * n_rel), (8.0,), n_relays=n_rel,
            tying=tying, sr_offsets_db=offsets, rd_offsets_db=offsets[::-1], seed=21,
            frame_len=8, zero_noise=zero_noise,
        )
        seen = {}

        def capture(y_sd, y_rd, sd_nv, rd_nvs, spec, cfg, **truth):
            seen.update(y_sd=y_sd, y_rd=y_rd, sd_nv=sd_nv, rd_nvs=rd_nvs, **truth)
            return np.zeros((len(y_sd), y_sd.shape[1] - 1), dtype=np.int64), 0

        monkeypatch.setattr(simkit, f"decode_{spec.kind}_frames", capture)
        _simulate_batch(plan, 0, self.JOBS, plan.decoder)
        idx, y_sd, y_rd, relay_idx, sd_nv, rd_nvs = self.rebuild(plan)
        # bit for bit, signed zeros included
        for got, want in ((seen["y_sd"], y_sd), (seen["y_rd"], y_rd)):
            assert got.shape == want.shape and got.dtype == want.dtype
            assert np.ascontiguousarray(got).tobytes() == want.tobytes()
        assert seen["sd_nv"] == sd_nv and np.array_equal(seen["rd_nvs"], rd_nvs)
        if spec.kind == "qam":
            assert np.array_equal(seen["true_source_idx"], idx)
            assert np.array_equal(seen["true_relay_idx"], relay_idx)
            assert seen["true_relay_idx"].shape == relay_idx.shape


class TestRunSweep:
    def test_worker_count_is_invisible(self, monkeypatch):
        plan, serial = small_curve()
        monkeypatch.setattr(simkit, "_usable_cpus", lambda: 8)
        threaded = run_sweep(plan, workers=8)
        for a, b in zip(serial.points, threaded.points):
            assert a == b
        assert serial.plan_hash == threaded.plan_hash

    @pytest.mark.parametrize("cpus", [1, 2])
    def test_threads_never_exceed_usable_cpus(self, monkeypatch, cpus):
        plan, serial = small_curve()
        monkeypatch.setattr(simkit, "_usable_cpus", lambda: cpus)
        simulate = simkit._simulate_batch
        threads = set()

        def record(*args):
            threads.add(threading.get_ident())
            return simulate(*args)

        monkeypatch.setattr(simkit, "_simulate_batch", record)
        assert run_point(plan, 0, workers=8) == serial.points[0]
        assert len(threads) <= cpus
        # one CPU runs the shares on the calling thread, with no pool
        assert cpus > 1 or threads == {threading.get_ident()}

    def test_rows_ordered_by_snr(self):
        plan = ExperimentPlan(
            QPSK, DecoderConfig("naive_eps0"), (14.0, 10.0),
            trials=TrialsPolicy(50, 100_000), seed=2,
        )
        curve = run_sweep(plan)
        assert [p.snr_db for p in curve.points] == [10.0, 14.0]

    def test_ser_non_increasing_within_ci(self):
        _, curve = small_curve()
        for a, b in zip(curve.points, curve.points[1:]):
            assert a.ser >= b.ser or a.ci_high >= b.ci_low

    def test_partial_failure_annotated(self):
        plan = ExperimentPlan(
            QPSK, DecoderConfig("pl"), (10.0, 12.0),
            trials=TrialsPolicy(50, 100_000), seed=2,
            epsilon_table=eps_table((10.0,)),
        )
        curve = run_sweep(plan)
        assert len(curve.points) == 2
        assert len(curve.failures) == 1
        assert curve.failures[0].snr_db == 12.0
        assert "calibrate" in curve.failures[0].failure
        assert curve.snr_db.tolist() == [10.0]
        assert curve.ser.size == 1


class TestStoppingBias:
    def test_round_granular_stopping_bias_small(self):
        # replica of the engine's loop: draw rounds of 8 batches, check the
        # error floor only between rounds, cap total trials
        def estimate(rng, p):
            errors = 0
            trials = 0
            while errors < 100 and trials < 4_000_000:
                take = min(8 * 8192, 4_000_000 - trials)
                errors += rng.binomial(take, p)
                trials += take
            return errors / trials

        rng = np.random.default_rng(0)
        p = 1e-4
        estimates = [estimate(rng, p) for _ in range(2000)]
        bias = np.mean(estimates) / p - 1.0
        assert abs(bias) < 0.02


class TestCurveGeometry:
    def test_snr_at_level_interpolates_log_linearly(self):
        curve = synthetic_curve([(10.0, 1e-2), (20.0, 1e-4)])
        assert snr_at_level(curve, 1e-3) == pytest.approx(15.0, abs=1e-12)
        assert snr_at_level(curve, 1e-2) == pytest.approx(10.0, abs=1e-12)

    def test_snr_at_level_validation(self):
        curve = synthetic_curve([(10.0, 1e-2), (20.0, 1e-4)])
        with pytest.raises(ValueError, match="level must be > 0"):
            snr_at_level(curve, 0.0)
        with pytest.raises(ValueError, match="never crosses"):
            snr_at_level(curve, 1e-6)
        with pytest.raises(ValueError, match="at least 2 successful points"):
            snr_at_level(synthetic_curve([(10.0, 1e-2)]), 1e-2)

    def test_curve_against_itself_is_unity(self):
        _, curve = small_curve()
        report = compare_curves(curve, curve, mode="ratio")
        assert len(report.rows) == len(curve.points)
        for row in report.rows:
            assert row.value == 1.0
            assert row.low <= 1.0 <= row.high

    def test_horizontal_gap_recovers_exact_shift(self):
        a = synthetic_curve([(10.0, 1e-2), (20.0, 1e-4)])
        b = synthetic_curve([(12.0, 1e-2), (22.0, 1e-4)])
        report = compare_curves(a, b, mode="horizontal_db")
        assert [row.snr_db for row in report.rows] == [10.0, 20.0]
        for row in report.rows:
            assert row.value == pytest.approx(2.0, abs=1e-9)
            assert row.low == pytest.approx(2.0, abs=1e-9)
            assert row.high == pytest.approx(2.0, abs=1e-9)

    def test_disjoint_grids_rejected(self):
        a = synthetic_curve([(10.0, 1e-2), (20.0, 1e-4)])
        b = synthetic_curve([(11.0, 1e-2), (21.0, 1e-4)])
        with pytest.raises(ValueError, match="share no successful SNR points"):
            compare_curves(a, b, mode="ratio")

    def test_zero_reference_rejected(self):
        a = synthetic_curve([(10.0, 1e-2)])
        b = synthetic_curve([(10.0, 0.0)])
        with pytest.raises(ValueError, match="positive reference SER"):
            compare_curves(a, b, mode="ratio")

    def test_ratio_with_no_errors_is_finite(self):
        # a zero-error point used to give low = high = NaN, which no JSON
        # reader accepts; its interval is the formula's limit, [0, half]
        zero = SerPoint(10.0, 0, 4096, 0.0, *wilson_interval(0, 4096))
        some = SerPoint(10.0, 50, 4096, 50 / 4096, *wilson_interval(50, 4096))
        ref = SerPoint(10.0, 40, 4096, 40 / 4096, *wilson_interval(40, 4096))
        a = SerCurve((zero,), "feed", 0.0)
        row = compare_curves(a, SerCurve((some,), "feed", 0.0)).rows[0]
        half = (zero.ci_high - zero.ci_low) / (2.0 * some.ser)
        assert (row.value, row.low, row.high) == (0.0, 0.0, half) and half > 0.0
        json.dumps([row.value, row.low, row.high], allow_nan=False)
        # a point with errors keeps the quadrature formula, bit for bit
        b = SerCurve((ref,), "feed", 0.0)
        row = compare_curves(SerCurve((some,), "feed", 0.0), b).rows[0]
        r = some.ser / ref.ser
        half = r * math.hypot((some.ci_high - some.ci_low) / (2.0 * some.ser),
                              (ref.ci_high - ref.ci_low) / (2.0 * ref.ser))
        assert (row.value, row.low, row.high) == (r, r - half, r + half)

    def test_bad_mode_rejected(self):
        _, curve = small_curve()
        with pytest.raises(ValueError, match="mode must be"):
            compare_curves(curve, curve, mode="vertical")


class TestAgainstAnalysis:
    def test_mc_tracks_nearest_neighbor_sum(self):
        # erroneous single relay, equal SNRs: the pairwise-sum approximation
        # stays within 3 cluster-adjusted error bars of simulation
        grid = (15.0, 18.0, 21.0)
        plan = ExperimentPlan(
            QPSK, DecoderConfig("pl"), grid,
            trials=TrialsPolicy(300, 10_000_000), seed=21,
            epsilon_table=eps_table(grid),
        )
        curve = run_sweep(plan, workers=4)
        for pt in curve.points:
            eps = analytic_eps(pt.snr_db)
            cfg = PepTermsConfig(
                SnrPoint.from_db(pt.snr_db, pt.snr_db, pt.snr_db), eps, 4
            )
            approx = ser_nearest_neighbor(QPSK, pep_exact, cfg).value
            assert abs(z_score(pt, approx)) < 3.0

    def test_erroneous_relay_keeps_genie_slope(self):
        # an erroneous relay costs a bounded SNR offset at high SNR; the
        # decay rate (diversity) matches the error-free reference
        err, gen = genie_and_erroneous()
        ratio = compare_curves(err, gen, mode="ratio")
        for row in ratio.rows:
            assert 1.0 < row.value < 5.5
            assert row.low > 0.8
            assert row.high < 8.0
        gaps = compare_curves(gen, err, mode="horizontal_db")
        assert len(gaps.rows) >= 2
        for row in gaps.rows:
            assert 0.5 < row.value < 3.5
        assert abs(gaps.rows[0].value - gaps.rows[1].value) < 1.5
        slope = fit_diversity_slope(gen, (20.9, 27.1))
        assert 1.6 < slope < 2.35

    def test_pl_beats_naive_everywhere(self):
        grid = (15.0, 18.0, 21.0)
        policy = TrialsPolicy(200, 5_000_000)
        pl = run_sweep(
            ExperimentPlan(
                QPSK, DecoderConfig("pl"), grid, trials=policy, seed=11,
                epsilon_table=eps_table(grid),
            ),
            workers=4,
        )
        naive = run_sweep(
            ExperimentPlan(
                QPSK, DecoderConfig("naive_eps0"), grid, trials=policy, seed=11
            ),
            workers=4,
        )
        for a, b in zip(pl.points, naive.points):
            assert a.ser < b.ser
            assert a.ci_high < b.ci_low

    def test_qam_genie_reference_bounds_decision_directed(self):
        policy = TrialsPolicy(400, 2_000_000)
        dd = run_point(
            ExperimentPlan(
                QAM16, DecoderConfig("ml", epsilons=(0.05,)), (16.0,),
                trials=policy, seed=13,
            ),
            0,
            workers=4,
        )
        genie = run_point(
            ExperimentPlan(
                QAM16, DecoderConfig("genie_reference", epsilons=(0.05,)),
                (16.0,), trials=policy, seed=13,
            ),
            0,
            workers=4,
        )
        assert genie.ser < dd.ser
        assert genie.ci_high < dd.ci_low


# (errors, trials, fallbacks) per grid point of golden_plan, as produced by the
# decoders before their kernels were rewritten (candidate-major tournament,
# closed-form mixture and DPSK decision, hoisted QAM chains).  pl with no
# relay could not run then; its counts equal ml's, as they must.  A PSK plan
# refuses genie_reference, whose counts were ml's.
GOLDEN_COUNTS = {
    ('psk4', 'ml', 0, 'all_equal'): ((1103, 4096, 0), (286, 4096, 0), (39, 4096, 0)),
    ('psk4', 'ml', 1, 'all_equal'): ((898, 4096, 0), (101, 4096, 0), (1, 4096, 0)),
    ('psk4', 'ml', 3, 'all_equal'): ((567, 4096, 0), (19, 4096, 0), (0, 4096, 0)),
    ('psk4', 'ml', 1, 'sr_infinite'): ((506, 4096, 0), (49, 4096, 0), (1, 4096, 0)),
    ('psk4', 'ml', 3, 'sr_infinite'): ((98, 4096, 0), (0, 4096, 0), (0, 4096, 0)),
    ('psk4', 'pl', 0, 'all_equal'): ((1103, 4096, 0), (286, 4096, 0), (39, 4096, 0)),
    ('psk4', 'pl', 1, 'all_equal'): ((945, 4096, 28), (104, 4096, 1), (1, 4096, 0)),
    ('psk4', 'pl', 3, 'all_equal'): ((583, 4096, 23), (15, 4096, 0), (0, 4096, 0)),
    ('psk4', 'pl', 1, 'sr_infinite'): ((505, 4096, 4), (48, 4096, 0), (1, 4096, 0)),
    ('psk4', 'pl', 3, 'sr_infinite'): ((99, 4096, 1), (0, 4096, 0), (0, 4096, 0)),
    ('psk4', 'naive_eps0', 0, 'all_equal'): ((1103, 4096, 0), (286, 4096, 0), (39, 4096, 0)),
    ('psk4', 'naive_eps0', 1, 'all_equal'): ((1016, 4096, 0), (168, 4096, 0), (20, 4096, 0)),
    ('psk4', 'naive_eps0', 3, 'all_equal'): ((768, 4096, 0), (112, 4096, 0), (19, 4096, 0)),
    ('psk4', 'naive_eps0', 1, 'sr_infinite'): ((502, 4096, 0), (48, 4096, 0), (0, 4096, 0)),
    ('psk4', 'naive_eps0', 3, 'sr_infinite'): ((88, 4096, 0), (0, 4096, 0), (0, 4096, 0)),
    ('psk16', 'ml', 0, 'all_equal'): ((2996, 4096, 0), (1797, 4096, 0), (521, 4096, 0)),
    ('psk16', 'ml', 1, 'all_equal'): ((2935, 4096, 0), (1628, 4096, 0), (245, 4096, 0)),
    ('psk16', 'ml', 3, 'all_equal'): ((2751, 4096, 0), (1221, 4096, 0), (97, 4096, 0)),
    ('psk16', 'ml', 1, 'sr_infinite'): ((2519, 4096, 0), (998, 4096, 0), (92, 4096, 0)),
    ('psk16', 'ml', 3, 'sr_infinite'): ((1963, 4096, 0), (346, 4096, 0), (5, 4096, 0)),
    ('psk16', 'pl', 0, 'all_equal'): ((2996, 4096, 0), (1797, 4096, 0), (521, 4096, 0)),
    ('psk16', 'pl', 1, 'all_equal'): ((2947, 4096, 36), (1668, 4096, 36), (256, 4096, 7)),
    ('psk16', 'pl', 3, 'all_equal'): ((2815, 4096, 138), (1266, 4096, 41), (87, 4096, 0)),
    ('psk16', 'pl', 1, 'sr_infinite'): ((2526, 4096, 1), (999, 4096, 0), (92, 4096, 0)),
    ('psk16', 'pl', 3, 'sr_infinite'): ((1967, 4096, 2), (340, 4096, 0), (4, 4096, 0)),
    ('psk16', 'naive_eps0', 0, 'all_equal'): ((2996, 4096, 0), (1797, 4096, 0), (521, 4096, 0)),
    ('psk16', 'naive_eps0', 1, 'all_equal'): ((2953, 4096, 0), (1695, 4096, 0), (401, 4096, 0)),
    ('psk16', 'naive_eps0', 3, 'all_equal'): ((2831, 4096, 0), (1383, 4096, 0), (346, 4096, 0)),
    ('psk16', 'naive_eps0', 1, 'sr_infinite'): ((2526, 4096, 0), (998, 4096, 0), (92, 4096, 0)),
    ('psk16', 'naive_eps0', 3, 'sr_infinite'): ((1966, 4096, 0), (340, 4096, 0), (4, 4096, 0)),
    ('qam16', 'ml', 0, 'all_equal'): ((3180, 4096, 0), (1609, 4096, 0), (394, 4096, 0)),
    ('qam16', 'ml', 1, 'all_equal'): ((3311, 4096, 0), (1382, 4096, 0), (141, 4096, 0)),
    ('qam16', 'ml', 3, 'all_equal'): ((3370, 4096, 0), (991, 4096, 0), (41, 4096, 0)),
    ('qam16', 'ml', 1, 'sr_infinite'): ((2896, 4096, 0), (836, 4096, 0), (71, 4096, 0)),
    ('qam16', 'ml', 3, 'sr_infinite'): ((2658, 4096, 0), (293, 4096, 0), (2, 4096, 0)),
    ('qam16', 'pl', 0, 'all_equal'): ((3180, 4096, 0), (1609, 4096, 0), (394, 4096, 0)),
    ('qam16', 'pl', 1, 'all_equal'): ((3317, 4096, 5), (1396, 4096, 21), (153, 4096, 7)),
    ('qam16', 'pl', 3, 'all_equal'): ((3390, 4096, 38), (987, 4096, 71), (42, 4096, 5)),
    ('qam16', 'pl', 1, 'sr_infinite'): ((2888, 4096, 2), (832, 4096, 3), (70, 4096, 3)),
    ('qam16', 'pl', 3, 'sr_infinite'): ((2624, 4096, 16), (287, 4096, 11), (3, 4096, 1)),
    ('qam16', 'naive_eps0', 0, 'all_equal'): ((3180, 4096, 0), (1609, 4096, 0), (394, 4096, 0)),
    ('qam16', 'naive_eps0', 1, 'all_equal'): ((3317, 4096, 0), (1440, 4096, 0), (235, 4096, 0)),
    ('qam16', 'naive_eps0', 3, 'all_equal'): ((3381, 4096, 0), (1073, 4096, 0), (208, 4096, 0)),
    ('qam16', 'naive_eps0', 1, 'sr_infinite'): ((2888, 4096, 0), (833, 4096, 0), (67, 4096, 0)),
    ('qam16', 'naive_eps0', 3, 'sr_infinite'): ((2607, 4096, 0), (258, 4096, 0), (1, 4096, 0)),
    ('qam16', 'genie_reference', 0, 'all_equal'): ((2892, 4096, 0), (1414, 4096, 0), (359, 4096, 0)),
    ('qam16', 'genie_reference', 1, 'all_equal'): ((2999, 4096, 0), (1207, 4096, 0), (121, 4096, 0)),
    ('qam16', 'genie_reference', 3, 'all_equal'): ((3128, 4096, 0), (800, 4096, 0), (31, 4096, 0)),
    ('qam16', 'genie_reference', 1, 'sr_infinite'): ((2441, 4096, 0), (675, 4096, 0), (46, 4096, 0)),
    ('qam16', 'genie_reference', 3, 'sr_infinite'): ((1847, 4096, 0), (211, 4096, 0), (1, 4096, 0)),
}


def golden_plan(name, kind, n_relays, tying):
    spec = {"psk4": QPSK, "psk16": make_psk(16), "qam16": QAM16}[name]
    return ExperimentPlan(
        spec, DecoderConfig(kind, epsilons=(0.05,) * n_relays), (6.0, 14.0, 22.0),
        n_relays=n_relays, tying=tying, trials=TrialsPolicy(1000, 4096), seed=11,
        frame_len=16,
    )


class TestGoldenCounts:
    """Every decision of the frame kernels, pinned through the point counts."""

    def test_counts_are_pinned(self):
        got = {}
        for key in GOLDEN_COUNTS:
            curve = run_sweep(golden_plan(*key))
            got[key] = tuple((p.errors, p.trials, p.fallbacks) for p in curve.points)
        moved = {key: (GOLDEN_COUNTS[key], got[key])
                 for key in GOLDEN_COUNTS if got[key] != GOLDEN_COUNTS[key]}
        assert not moved

    def test_one_pool_per_point_keeps_results(self, monkeypatch):
        monkeypatch.setattr(simkit, "_usable_cpus", lambda: 8)
        plan = ExperimentPlan(
            QPSK, DecoderConfig("pl", epsilons=(0.001,)), (30.0,),
            trials=TrialsPolicy(10_000, 150_000), seed=4,
        )
        one = run_point(plan, 0, workers=1)
        two = run_point(plan, 0, workers=2)
        assert one.trials > 2 * 8 * 8192  # three rounds through the same pool
        assert one == two
