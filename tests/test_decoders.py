"""Tests for the destination ML and piecewise-linear decoders."""

import math
import sys
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from oracles import (
    decode_qam_frames_per_symbol,
    exact_relay_llr,
    pairwise_select_bruteforce,
    pdf_decode_psk,
    pdf_decode_qam,
    qam_pair_objective,
)

from diffrelay import decoders
from diffrelay.channel import LinkParams, draw_block_gain, draw_noise, make_stream
from diffrelay.constellation import make_psk, make_qam
from diffrelay.decoders import (
    _CERT_PROBE,
    _FALLBACK_ELEMENTS,
    _PSK_BLOCK,
    DecoderConfig,
    _certify,
    _counted_ml_decode,
    _counted_pl_decode,
    _decide,
    _fallback,
    _mixture_log_scores,
    _row_totals,
    _sweep,
    _tournament,
    clip_threshold,
    count_ops,
    decode_psk_frames,
    decode_qam_frames,
)
from diffrelay.diffmod import encode_psk_frame, encode_qam_frame
from diffrelay.relay import analytic_epsilon_psk, calibrate_epsilon, relay_process_frame
from diffrelay.simkit import ExperimentPlan, TrialsPolicy, run_point

QPSK = make_psk(4)
QAM16 = make_qam(16)


def psk_obs(rng, spec, snr_db, n, n_relays=1):
    """n noisy one-data-symbol observations with known symbols, drawn one by one.

    Returns (y_sd (n, 2), y_rd (R, n, 2), noise_var, symbols (n,)).
    """
    noise_var = 10.0 ** (-snr_db / 10.0)
    link = LinkParams(sigma2=1.0, noise_var=noise_var)
    y_sd = np.empty((n, 2), dtype=complex)
    y_rd = np.empty((n_relays, n, 2), dtype=complex)
    symbols = np.empty(n, dtype=np.int64)
    for i in range(n):
        symbols[i] = rng.integers(0, spec.M)
        v_prev = spec.points[rng.integers(0, spec.M)]
        v = np.array([v_prev, v_prev * spec.points[symbols[i]]])
        y_sd[i] = draw_block_gain(link, rng) * v + draw_noise(noise_var, rng, size=2)
        for r in range(n_relays):
            y_rd[r, i] = draw_block_gain(link, rng) * v + draw_noise(noise_var, rng, size=2)
    return y_sd, y_rd, noise_var, symbols


def decode_pairs(y_sd, y_rd, noise_var, spec, cfg):
    """decode_psk_frames' decisions (n,) on one-data-symbol frames."""
    got, _ = decode_psk_frames(y_sd, y_rd, noise_var, (noise_var,) * len(y_rd), spec, cfg)
    return got[:, 0]


def correlations(y, points, noise_var):
    """Re(conj(y[1]) y[0] x_k) / noise_var for pairs y (..., 2), candidates last."""
    return np.real(np.conj(y[..., 1, None]) * y[..., 0, None] * points) / noise_var


def pairwise_select(base, rels, thresholds):
    """``_tournament`` on the row layout: base (..., M), rels (..., R, M)."""
    base = np.asarray(base, dtype=float)
    m = base.shape[-1]
    b2 = base.reshape(-1, m)
    r2 = np.asarray(rels, dtype=float).reshape(b2.shape[0], len(thresholds), m)
    winners, n_fallback = _tournament(
        np.ascontiguousarray(b2.T), np.ascontiguousarray(r2.T), thresholds
    )
    return winners.reshape(base.shape[:-1]), n_fallback


class TestClipThreshold:
    def test_reference_values(self):
        assert clip_threshold(16, 1e-1) == pytest.approx(4.9053, abs=5e-5)
        assert clip_threshold(16, 1e-2) == pytest.approx(7.3032, abs=5e-5)
        assert clip_threshold(16, 1e-6) == pytest.approx(16.5236, abs=5e-5)

    def test_formula(self):
        assert clip_threshold(4, 0.5) == pytest.approx(math.log(3.0))

    def test_domain(self):
        with pytest.raises(ValueError):
            clip_threshold(16, 0.0)
        with pytest.raises(ValueError):
            clip_threshold(16, 1.0)
        with pytest.raises(ValueError):
            clip_threshold(1, 0.1)


class TestFpl:
    """The paper's f_PL = clip(t, -T, T), applied by the PL rule to each relay's
    statistic differences.  At M = 2 with one relay the rule picks candidate
    0 exactly when d0 + f_PL(d) > 0."""

    @staticmethod
    def binary_winner(d0, d, threshold):
        winner, _ = pairwise_select(np.array([d0, 0.0]), np.array([[d, 0.0]]), (threshold,))
        return int(winner)

    def test_regions(self):
        for d, f in ((0.0, 0.0), (10.0, 7.3032), (-10.0, -7.3032), (3.0, 3.0)):
            assert self.binary_winner(-f + 1e-6, d, 7.3032) == 0
            assert self.binary_winner(-f - 1e-6, d, 7.3032) == 1

    @given(d0=st.floats(-50, 50), d=st.floats(-50, 50), threshold=st.floats(0.1, 20))
    def test_odd_function(self, d0, d, threshold):
        assume(abs(d0 + np.clip(d, -threshold, threshold)) > 1e-9)
        assert self.binary_winner(-d0, -d, threshold) \
            == 1 - self.binary_winner(d0, d, threshold)

    def test_deviation_from_exact_nonlinearity(self):
        eps, m = 1e-2, 16
        threshold = clip_threshold(m, eps)
        t = np.linspace(-30.0, 30.0, 120_001)
        f_pl = np.clip(t, -threshold, threshold)
        deviation = np.max(np.abs(exact_relay_llr(t, eps, m) - f_pl))
        assert deviation < 0.7
        assert abs(exact_relay_llr(40.0, eps, m) - threshold) < 1e-12


class TestConfig:
    def test_kind_validation(self):
        with pytest.raises(ValueError):
            DecoderConfig(kind="map", epsilons=(0.1,))
        with pytest.raises(ValueError):
            DecoderConfig(kind="ml", epsilons=(1.0,))

    def test_threshold_resolution(self):
        cfg = DecoderConfig(kind="ml", epsilons=(1e-2, 0.0))
        thr = cfg.resolved_thresholds(16)
        assert thr[0] == pytest.approx(clip_threshold(16, 1e-2))
        assert thr[1] == math.inf
        naive = DecoderConfig(kind="naive_eps0", epsilons=(1e-2,))
        assert naive.resolved_thresholds(16) == (math.inf,)
        assert naive.effective_epsilons() == (0.0,)


class TestMixture:
    """The mixture takes candidate-major scores, (M, ...)."""

    def test_matches_direct_evaluation(self):
        rng = make_stream(0, 40)
        for eps in (1e-3, 1e-1, 0.5, 0.9):
            scores = rng.normal(size=(8, 20))
            got = _mixture_log_scores(scores, eps)
            w = eps / 7.0
            expect = np.empty_like(scores)
            for k in range(8):
                others = np.exp(scores).sum(axis=0) - np.exp(scores[k])
                expect[k] = np.log((1.0 - eps) * np.exp(scores[k]) + w * others)
            np.testing.assert_allclose(got, expect, rtol=1e-12, atol=1e-12)

    def test_zero_eps_identity(self):
        scores = np.array([1.0, -2.0, 0.5])
        np.testing.assert_array_equal(_mixture_log_scores(scores, 0.0), scores)

    def test_extreme_scores_finite(self):
        scores = np.array([5000.0, -5000.0, 0.0, 4999.0])
        out = _mixture_log_scores(scores, 1e-2)
        assert np.all(np.isfinite(out))
        assert np.argmax(out) == 0

    @pytest.mark.parametrize("m", [2, 4, 8, 16, 32, 64])
    @pytest.mark.parametrize("lead", [(37,), (3, 29)])
    def test_matches_reduction_max_bit_for_bit(self, m, lead):
        # candidate-major scores must give exactly the instance-major
        # formula, whose sum adds the candidates in index order, exact ties
        # and scores near +-700 included; as a view of a relay axis too, as
        # the decoders pass it
        def reference(scores, eps):
            mx = scores.max(axis=-1, keepdims=True)
            e = np.exp(scores - mx)
            total = e[..., :1].copy()
            for k in range(1, e.shape[-1]):
                total += e[..., k:k + 1]
            mix = total - e
            mix *= eps / (scores.shape[-1] - 1)
            mix += (1.0 - eps) * e
            return np.log(mix) + mx

        rng = make_stream(41, m, len(lead))
        scores = rng.normal(scale=5.0, size=lead + (m,))
        flat = scores.reshape(-1, m)
        flat[::3] = np.round(flat[::3])  # ties between candidates
        flat[1::5, :] = flat[1::5, :1]  # every candidate tied
        flat[2::7] += rng.choice([-700.0, 700.0], size=(flat[2::7].shape[0], 1))
        flat[4::9, -1] = 699.5
        major = np.moveaxis(scores, -1, 0)
        relays = np.stack([major, major], axis=1)
        for eps in (1e-6, 0.05, 0.5):
            expect = np.moveaxis(reference(scores, eps), -1, 0).tobytes()
            for given in (np.ascontiguousarray(major), relays[:, 1]):
                got = _mixture_log_scores(given, eps)
                assert got.shape == major.shape
                assert got.tobytes() == expect


class TestMlPsk:
    def test_zero_eps_is_weighted_correlation_rule(self):
        rng = make_stream(1, 40)
        y_sd, y_rd, nv, _ = psk_obs(rng, QPSK, 8.0, 50, n_relays=2)
        cfg = DecoderConfig(kind="ml", epsilons=(0.0, 0.0))
        got = decode_pairs(y_sd, y_rd, nv, QPSK, cfg)
        stats = correlations(y_sd, QPSK.points, nv)
        for y in y_rd:
            stats = stats + correlations(y, QPSK.points, nv)
        np.testing.assert_array_equal(got, np.argmax(stats, axis=-1))

    def test_binary_matches_density_oracle(self):
        bpsk = make_psk(2)
        rng = make_stream(2, 40)
        y_sd, y_rd, nv, _ = psk_obs(rng, bpsk, 8.0, 10_000)
        cfg = DecoderConfig(kind="ml", epsilons=(0.05,))
        decisions = decode_pairs(y_sd, y_rd, nv, bpsk, cfg)
        oracle = pdf_decode_psk(
            y_sd[:, 0], y_sd[:, 1], y_rd[..., 0], y_rd[..., 1],
            nv, (nv,), bpsk.points, (0.05,),
        )
        assert np.array_equal(decisions, oracle)

    def test_phase_rotation_invariance(self):
        rng = make_stream(3, 40)
        y_sd, y_rd, nv, _ = psk_obs(rng, QPSK, 10.0, 100)
        cfg = DecoderConfig(kind="ml", epsilons=(1e-2,))
        base = decode_pairs(y_sd, y_rd, nv, QPSK, cfg)
        rot = np.exp(1j * rng.uniform(0.0, 2.0 * math.pi, size=(100, 1)))
        moved = decode_pairs(y_sd * rot, y_rd * rot, nv, QPSK, cfg)
        np.testing.assert_array_equal(moved, base)

    def test_naive_kind_equals_zero_eps(self):
        rng = make_stream(4, 40)
        y_sd, y_rd, nv, _ = psk_obs(rng, QPSK, 5.0, 50)
        naive = DecoderConfig(kind="naive_eps0", epsilons=(0.3,))
        zero = DecoderConfig(kind="ml", epsilons=(0.0,))
        np.testing.assert_array_equal(decode_pairs(y_sd, y_rd, nv, QPSK, naive),
                                      decode_pairs(y_sd, y_rd, nv, QPSK, zero))

    def test_stabilized_matches_plain_arithmetic(self):
        rng = make_stream(5, 40)
        eps = 1e-2
        y_sd, y_rd, nv, _ = psk_obs(rng, QPSK, 12.0, 200)
        got = decode_pairs(y_sd, y_rd, nv, QPSK, DecoderConfig(kind="ml", epsilons=(eps,)))
        t0 = correlations(y_sd, QPSK.points, nv)
        ex = np.exp(correlations(y_rd[0], QPSK.points, nv))
        mix = (1.0 - eps) * ex + eps / 3.0 * (ex.sum(axis=-1, keepdims=True) - ex)
        plain = t0 + np.log(mix)
        np.testing.assert_array_equal(got, np.argmax(plain, axis=-1))

    def test_exact_ties_take_the_lowest_row(self):
        # candidate-major scores (3, 5): exact ties, a signed-zero tie and a
        # column of -inf all decide for the lowest tied candidate
        base = np.array([[0.0, 1.0, -np.inf, 2.0, -0.0],
                         [3.0, 1.0, -np.inf, 2.0, 0.0],
                         [3.0, 0.5, -np.inf, 2.0, -1.0]])
        for cfg, rels in ((DecoderConfig("ml"), np.zeros((3, 0, 5))),
                          (DecoderConfig("naive_eps0", (0.2,)), np.full((3, 1, 5), 0.7)),
                          (DecoderConfig("ml", (0.2,)), np.full((3, 1, 5), 0.7))):
            got, n_fallback = _decide(base.copy(), rels, cfg, ())
            assert got.tolist() == [1, 0, 0, 0, 0] and n_fallback == 0

    def test_rejects_wrong_kind_and_counts(self):
        y_sd, y_rd, nv, _ = psk_obs(make_stream(6, 40), QPSK, 10.0, 1)
        with pytest.raises(ValueError):
            decode_pairs(y_sd, y_rd, nv, QPSK, DecoderConfig(kind="ml", epsilons=(0.1, 0.1)))
        with pytest.raises(ValueError):
            decode_psk_frames(y_sd, y_rd, nv, (nv, nv), QPSK,
                              DecoderConfig(kind="ml", epsilons=(0.1,)))
        with pytest.raises(ValueError):
            decode_pairs(y_sd, y_rd, nv, QAM16, DecoderConfig(kind="ml", epsilons=(0.1,)))


class TestPlPsk:
    def test_binary_agrees_with_ml_outside_approximation_gap(self):
        # For two symbols both rules reduce to a sign test on dt0 plus a
        # nonlinearity of dt: the exact log-likelihood ratio for ML, its
        # clipped approximation for PL.  They can only differ when dt0 falls
        # inside the gap between the two nonlinearities, which is rare.
        bpsk = make_psk(2)
        rng = make_stream(7, 40)
        n = 100_000
        noise_var = 10.0 ** (-0.6)
        link = LinkParams(sigma2=1.0, noise_var=noise_var)
        idx = rng.integers(0, 2, size=(n, 1))
        v = encode_psk_frame(idx, bpsk)
        y_sd = draw_block_gain(link, rng, size=(n, 1)) * v \
            + draw_noise(noise_var, rng, size=(n, 2))
        y_rd = draw_block_gain(link, rng, size=(n, 1)) * v \
            + draw_noise(noise_var, rng, size=(n, 2))
        eps = 0.08
        ml_cfg = DecoderConfig(kind="ml", epsilons=(eps,))
        pl_cfg = DecoderConfig(kind="pl", epsilons=(eps,))
        ml_d, _ = decode_psk_frames(y_sd, y_rd[None], noise_var, (noise_var,), bpsk, ml_cfg)
        pl_d, n_fb = decode_psk_frames(y_sd, y_rd[None], noise_var, (noise_var,), bpsk, pl_cfg)
        assert n_fb == 0
        mismatch = ml_d[:, 0] != pl_d[:, 0]
        assert np.count_nonzero(mismatch) < 0.01 * n
        dt0 = 2.0 * np.real(np.conj(y_sd[:, 1]) * y_sd[:, 0]) / noise_var
        dt = 2.0 * np.real(np.conj(y_rd[:, 1]) * y_rd[:, 0]) / noise_var
        threshold = clip_threshold(2, eps)
        exact = exact_relay_llr(np.clip(dt, -700, 700), eps, 2)
        gap = np.clip(dt, -threshold, threshold) - exact
        inside_strip = np.abs(dt0 + exact) <= np.abs(gap) + 1e-9
        assert np.all(inside_strip[mismatch])

    def test_linear_region_is_plain_argmax(self):
        rng = make_stream(8, 40)
        y_sd, y_rd, nv, _ = psk_obs(rng, QPSK, 6.0, 50)
        got = decode_pairs(y_sd, y_rd, nv, QPSK, DecoderConfig(kind="pl", epsilons=(1e-9,)))
        stats = correlations(y_sd, QPSK.points, nv) + correlations(y_rd[0], QPSK.points, nv)
        np.testing.assert_array_equal(got, np.argmax(stats, axis=-1))

    def test_naive_threshold_coincides_with_ml(self):
        # zero epsilons give the PL rule infinite thresholds, the naive ML rule
        rng = make_stream(9, 40)
        y_sd, y_rd, nv, _ = psk_obs(rng, QPSK, 4.0, 100, n_relays=2)
        naive_ml = decode_pairs(y_sd, y_rd, nv, QPSK,
                                DecoderConfig(kind="naive_eps0", epsilons=(0.1, 0.1)))
        naive_pl = decode_pairs(y_sd, y_rd, nv, QPSK,
                                DecoderConfig(kind="pl", epsilons=(0.0, 0.0)))
        np.testing.assert_array_equal(naive_pl, naive_ml)

    def test_cyclic_majority_falls_back_to_totals(self):
        base = np.zeros(3)
        rels = np.array([
            [2.0, 1.0, 0.0],
            [0.0, 2.0, 1.0],
            [1.0, 0.0, 2.0],
        ])
        thresholds = (1.5, 1.5, 1.5)
        winner, n_fallback = pairwise_select(base, rels, thresholds)
        assert n_fallback == 1
        assert winner == 0

    def test_unanimous_winner_found_by_tournament(self):
        rng = make_stream(10, 40)
        for _ in range(200):
            base = rng.normal(size=8)
            rels = rng.normal(size=(2, 8))
            thr = (1.0, 2.0)
            winner, _ = pairwise_select(base, rels, thr)
            diff0 = base[winner] - base
            diffm = np.clip(rels[:, winner][:, None] - rels, -np.array(thr)[:, None],
                            np.array(thr)[:, None]).sum(axis=0)
            lam = diff0 + diffm
            lam[winner] = np.inf
            totals_ok = np.all(lam > 0.0)
            if totals_ok:
                assert np.min(lam[np.arange(8) != winner]) > 0.0


class TestQamDecoders:
    def test_noiseless_recovery(self):
        rng = make_stream(11, 40)
        idx = np.empty((30, 2), dtype=np.int64)
        y_sd = np.empty((30, 3), dtype=complex)
        y_rd = np.empty((1, 30, 3), dtype=complex)
        for i in range(30):
            idx[i] = rng.integers(0, 16), rng.integers(0, 16)
            v = encode_qam_frame(idx[i], QAM16)
            y_sd[i] = draw_block_gain(LinkParams(1.0, 0.1), rng) * v
            y_rd[0, i] = draw_block_gain(LinkParams(1.0, 0.1), rng) * v
        cfg = DecoderConfig(kind="genie_reference", epsilons=(0.0,))
        got, _ = decode_qam_frames(y_sd, y_rd, 1e-12, (1e-12,), QAM16, cfg,
                                   true_source_idx=idx, true_relay_idx=idx[None])
        np.testing.assert_array_equal(got, idx)
        cfg_pl = DecoderConfig(kind="pl", epsilons=(1e-6,))
        got, _ = decode_qam_frames(y_sd, y_rd, 1e-12, (1e-12,), QAM16, cfg_pl)
        np.testing.assert_array_equal(got, idx)

    def test_matches_density_oracle(self):
        # frames [kp, k] with the true previous symbols fed back: the second
        # decision sees the magnitude |x_kp| on both links
        rng = make_stream(12, 40)
        n = 2000
        noise_var = 10.0 ** (-1.4)
        link = LinkParams(1.0, noise_var)
        idx_prev = rng.integers(0, 16, size=n)
        idx = rng.integers(0, 16, size=n)
        x_prev = QAM16.points[idx_prev]
        x = QAM16.points[idx]
        v_prev = x_prev
        v_curr = x_prev * x / np.abs(x_prev)
        h_sd = draw_block_gain(link, rng, size=n)
        h_rd = draw_block_gain(link, rng, size=n)
        e = draw_noise(noise_var, rng, size=(4, n))
        sd = (h_sd * v_prev + e[0], h_sd * v_curr + e[1])
        rd = (h_rd * v_prev + e[2], h_rd * v_curr + e[3])
        mags = np.abs(x_prev)
        eps = 0.07
        true_idx = np.stack([idx_prev, idx], axis=-1)
        cfg = DecoderConfig(kind="genie_reference", epsilons=(eps,))
        got, _ = decode_qam_frames(
            np.stack([h_sd, *sd], axis=-1), np.stack([h_rd, *rd], axis=-1)[None],
            noise_var, (noise_var,), QAM16, cfg,
            true_source_idx=true_idx, true_relay_idx=true_idx[None],
        )
        oracle = pdf_decode_qam(
            sd[0], sd[1], rd[0][None], rd[1][None], noise_var, (noise_var,),
            QAM16.points, (eps,), mags, mags[None],
        )
        assert np.array_equal(got[:, 1], oracle)

    def test_requires_feedback(self):
        cfg = DecoderConfig(kind="genie_reference", epsilons=(0.1,))
        with pytest.raises(ValueError):
            decode_qam_frames(np.ones((1, 3), dtype=complex), np.ones((1, 1, 3), dtype=complex),
                              0.1, (0.1,), QAM16, cfg)


class TestFrameDecoders:
    def make_psk_frames(self, rng, n_batch, n_data, n_relays, snr_db):
        noise_var = 10.0 ** (-snr_db / 10.0)
        link = LinkParams(1.0, noise_var)
        idx = rng.integers(0, 4, size=(n_batch, n_data))
        v = encode_psk_frame(idx, QPSK)
        y_sd = draw_block_gain(link, rng, size=(n_batch, 1)) * v \
            + draw_noise(noise_var, rng, size=(n_batch, n_data + 1))
        y_rd = np.stack([
            draw_block_gain(link, rng, size=(n_batch, 1)) * v
            + draw_noise(noise_var, rng, size=(n_batch, n_data + 1))
            for _ in range(n_relays)
        ])
        return idx, y_sd, y_rd, noise_var

    def test_psk_frames_match_scalar(self):
        rng = make_stream(14, 40)
        _, y_sd, y_rd, nv = self.make_psk_frames(rng, 2, 5, 2, 8.0)
        for kind in ("ml", "pl", "naive_eps0"):
            cfg = DecoderConfig(kind=kind, epsilons=(0.05, 0.1))
            got, _ = decode_psk_frames(y_sd, y_rd, nv, (nv, nv), QPSK, cfg)
            for n in range(5):
                if kind == "pl":
                    base = correlations(y_sd[:, n:n + 2], QPSK.points, nv)
                    rels = np.stack([correlations(y[:, n:n + 2], QPSK.points, nv)
                                     for y in y_rd], axis=-2)
                    expect, _ = pairwise_select_bruteforce(
                        base, rels, cfg.resolved_thresholds(4))
                else:
                    expect = pdf_decode_psk(
                        y_sd[:, n], y_sd[:, n + 1], y_rd[:, :, n], y_rd[:, :, n + 1],
                        nv, (nv, nv), QPSK.points, cfg.effective_epsilons(),
                    )
                np.testing.assert_array_equal(got[:, n], expect)

    def test_qam_frames_match_scalar_chains(self):
        rng = make_stream(15, 40)
        noise_var = 10.0 ** (-1.8)
        link = LinkParams(1.0, noise_var)
        n_batch, n_data = 3, 7
        idx = rng.integers(0, 16, size=(n_batch, n_data))
        v = encode_qam_frame(idx, QAM16)
        y_relay_in = draw_block_gain(link, rng, size=(n_batch, 1)) * v \
            + draw_noise(noise_var, rng, size=(n_batch, n_data + 1))
        v_r, relay_decisions = relay_process_frame(y_relay_in, QAM16, noise_var)
        y_sd = draw_block_gain(link, rng, size=(n_batch, 1)) * v \
            + draw_noise(noise_var, rng, size=(n_batch, n_data + 1))
        y_rd = draw_block_gain(link, rng, size=(n_batch, 1)) * v_r \
            + draw_noise(noise_var, rng, size=(n_batch, n_data + 1))
        eps = 0.05
        for kind in ("ml", "pl"):
            cfg = DecoderConfig(kind=kind, epsilons=(eps,))
            got, _ = decode_qam_frames(
                y_sd, y_rd[None], noise_var, (noise_var,), QAM16, cfg
            )
            m0 = np.ones(n_batch)
            mr = np.ones(n_batch)
            for n in range(n_data):
                if n > 0:
                    # the destination re-decides the relay's previous symbol
                    obj = qam_pair_objective(y_rd[:, n - 1, None], y_rd[:, n, None],
                                             noise_var, QAM16.points, mr[:, None])
                    mr = np.abs(QAM16.points[np.argmin(obj, axis=-1)])
                if kind == "ml":
                    k = pdf_decode_qam(
                        y_sd[:, n], y_sd[:, n + 1], y_rd[None, :, n], y_rd[None, :, n + 1],
                        noise_var, (noise_var,), QAM16.points, (eps,), m0, mr[None],
                    )
                else:
                    base = -qam_pair_objective(y_sd[:, n, None], y_sd[:, n + 1, None],
                                               noise_var, QAM16.points, m0[:, None])
                    rel = -qam_pair_objective(y_rd[:, n, None], y_rd[:, n + 1, None],
                                              noise_var, QAM16.points, mr[:, None])
                    k, _ = pairwise_select_bruteforce(base, rel[:, None],
                                                      cfg.resolved_thresholds(16))
                np.testing.assert_array_equal(got[:, n], k)
                m0 = np.abs(QAM16.points[k])

    def test_qam_genie_reference_uses_true_magnitudes(self):
        rng = make_stream(16, 40)
        noise_var = 10.0 ** (-1.5)
        link = LinkParams(1.0, noise_var)
        n_batch, n_data = 2, 6
        idx = rng.integers(0, 16, size=(n_batch, n_data))
        v = encode_qam_frame(idx, QAM16)
        y_relay_in = draw_block_gain(link, rng, size=(n_batch, 1)) * v \
            + draw_noise(noise_var, rng, size=(n_batch, n_data + 1))
        v_r, relay_decisions = relay_process_frame(y_relay_in, QAM16, noise_var)
        y_sd = draw_block_gain(link, rng, size=(n_batch, 1)) * v \
            + draw_noise(noise_var, rng, size=(n_batch, n_data + 1))
        y_rd = draw_block_gain(link, rng, size=(n_batch, 1)) * v_r \
            + draw_noise(noise_var, rng, size=(n_batch, n_data + 1))
        cfg = DecoderConfig(kind="genie_reference", epsilons=(0.05,))
        got, _ = decode_qam_frames(
            y_sd, y_rd[None], noise_var, (noise_var,), QAM16, cfg,
            true_source_idx=idx, true_relay_idx=relay_decisions[None],
        )
        source_mags = np.abs(QAM16.points[idx])
        relay_mags = np.abs(QAM16.points[relay_decisions])
        for n in range(n_data):
            m0 = np.ones(n_batch) if n == 0 else source_mags[:, n - 1]
            mr = np.ones(n_batch) if n == 0 else relay_mags[:, n - 1]
            expect = pdf_decode_qam(
                y_sd[:, n], y_sd[:, n + 1], y_rd[None, :, n], y_rd[None, :, n + 1],
                noise_var, (noise_var,), QAM16.points, (0.05,), m0, mr[None],
            )
            np.testing.assert_array_equal(got[:, n], expect)
        with pytest.raises(ValueError):
            decode_qam_frames(y_sd, y_rd[None], noise_var, (noise_var,), QAM16, cfg)

    def test_no_relay_baseline(self):
        rng = make_stream(17, 40)
        noise_var = 0.1
        link = LinkParams(1.0, noise_var)
        idx = rng.integers(0, 4, size=(4, 6))
        v = encode_psk_frame(idx, QPSK)
        y_sd = draw_block_gain(link, rng, size=(4, 1)) * v \
            + draw_noise(noise_var, rng, size=(4, 7))
        cfg = DecoderConfig(kind="ml", epsilons=())
        got, _ = decode_psk_frames(
            y_sd, np.empty((0, 4, 7), dtype=complex), noise_var, (), QPSK, cfg
        )
        z = np.conj(y_sd[:, 1:]) * y_sd[:, :-1]
        expect = np.argmax(np.real(z[..., None] * QPSK.points), axis=-1)
        np.testing.assert_array_equal(got, expect)

    @pytest.mark.parametrize("snr_db", [5.0, 15.0])
    @pytest.mark.parametrize("make, m", [(make_psk, 4), (make_psk, 16), (make_qam, 16)])
    def test_pl_without_relays_decides_as_ml(self, make, m, snr_db):
        # with no relay the pairwise statistic is the direct link's
        # difference, so PL runs the tournament to ML's decisions
        spec = make(m)
        points = {kind: run_point(ExperimentPlan(spec, DecoderConfig(kind), (snr_db,),
                                                 n_relays=0, trials=TrialsPolicy(200, 32_768),
                                                 seed=5), 0)
                  for kind in ("ml", "pl")}
        assert (points["pl"].errors, points["pl"].trials) == \
            (points["ml"].errors, points["ml"].trials)
        assert points["pl"].fallbacks == 0


class TestOpCounting:
    def test_formula_values(self):
        assert count_ops("ml", 2) == 100
        assert count_ops("pl", 2) == 33
        assert count_ops("ml", 16) == 15 * 16**2 + 20 * 16
        assert count_ops("pl", 16) == 33 * 15

    def test_counted_ml_decision_matches_production(self):
        rng = make_stream(18, 40)
        eps = 1e-2
        y_sd, y_rd, nv, _ = psk_obs(rng, QPSK, 10.0, 100)
        got = decode_pairs(y_sd, y_rd, nv, QPSK, DecoderConfig(kind="ml", epsilons=(eps,)))
        for i in range(100):
            counted, _ = _counted_ml_decode(y_sd[i], y_rd[0, i], QPSK.points, eps, nv, nv)
            assert counted == got[i]

    def test_counted_pl_decision_matches_production_on_unanimous(self):
        rng = make_stream(19, 40)
        eps = 1e-2
        threshold = clip_threshold(4, eps)
        y_sd, y_rd, nv, _ = psk_obs(rng, QPSK, 10.0, 100)
        got = decode_pairs(y_sd, y_rd, nv, QPSK, DecoderConfig(kind="pl", epsilons=(eps,)))
        for i in range(100):
            counted, _ = _counted_pl_decode(y_sd[i], y_rd[0, i], QPSK.points, threshold, nv, nv)
            assert counted == got[i]

    def test_validation(self):
        with pytest.raises(ValueError):
            count_ops("ml", 1)
        with pytest.raises(ValueError):
            count_ops("map", 4)


class TestKernelOracles:
    @pytest.mark.parametrize("n_rel", [0, 1, 3])
    @pytest.mark.parametrize("m", [4, 16, 32])
    def test_pairwise_select_matches_all_pairs_rule(self, n_rel, m):
        rng = make_stream(20, m, n_rel)
        thresholds = tuple(0.5 + rng.random(n_rel))
        fallbacks = 0
        for lead in [(), (7,), (3, 5), (64,)]:
            base = rng.normal(scale=0.3, size=lead + (m,))
            rels = rng.normal(scale=2.0, size=lead + (n_rel, m))
            got = pairwise_select(base, rels, thresholds)
            expect = pairwise_select_bruteforce(base, rels, thresholds)
            assert np.shape(got[0]) == lead
            np.testing.assert_array_equal(got[0], expect[0])
            assert got[1] == expect[1]
            fallbacks += got[1]
        if n_rel == 3:
            assert fallbacks > 0  # the fallback path ran

    def qam_frames(self, rng, n_rel, n_batch=16, n_data=12, snr_db=12.0):
        noise_var = 10.0 ** (-snr_db / 10.0)
        link = LinkParams(1.0, noise_var)
        idx = rng.integers(0, 16, size=(n_batch, n_data))
        v = encode_qam_frame(idx, QAM16)

        def through(frame):
            return draw_block_gain(link, rng, size=(n_batch, 1)) * frame \
                + draw_noise(noise_var, rng, size=(n_batch, n_data + 1))

        relay_decisions = np.empty((n_rel, n_batch, n_data), dtype=np.int64)
        y_rd = np.empty((n_rel, n_batch, n_data + 1), dtype=complex)
        for r in range(n_rel):
            v_r, relay_decisions[r] = relay_process_frame(through(v), QAM16, noise_var)
            y_rd[r] = through(v_r)
        rd_nvs = tuple(noise_var * (1.0 + 0.5 * r) for r in range(n_rel))
        return idx, through(v), y_rd, noise_var, rd_nvs, relay_decisions

    def check_qam_frames_against_oracle(self, kind, n_rel, n_data=12):
        rng = make_stream(21, n_rel, len(kind))
        idx, y_sd, y_rd, nv, rd_nvs, relay_decisions = self.qam_frames(rng, n_rel,
                                                                       n_data=n_data)
        epsilons = tuple(0.02 + 0.03 * r for r in range(n_rel))
        cfg = DecoderConfig(kind=kind, epsilons=epsilons)
        got, got_fb = decode_qam_frames(y_sd, y_rd, nv, rd_nvs, QAM16, cfg,
                                        true_source_idx=idx, true_relay_idx=relay_decisions)
        mags = {}
        if kind == "genie_reference":
            mags = dict(true_source_mags=np.abs(QAM16.points[idx]),
                        true_relay_mags=np.abs(QAM16.points[relay_decisions]))
        expect, expect_fb = decode_qam_frames_per_symbol(
            y_sd, y_rd, nv, rd_nvs, QAM16, kind, cfg.effective_epsilons(),
            cfg.resolved_thresholds(16), **mags,
        )
        np.testing.assert_array_equal(got, expect)
        assert got_fb == expect_fb

    @pytest.mark.parametrize("n_rel", [0, 1, 3])
    @pytest.mark.parametrize("kind", ["ml", "pl", "genie_reference"])
    def test_qam_frames_match_per_symbol_oracle(self, kind, n_rel):
        self.check_qam_frames_against_oracle(kind, n_rel)

    @pytest.mark.parametrize("n_data", [1, 3, 13])
    @pytest.mark.parametrize("n_rel", [1, 3])
    @pytest.mark.parametrize("kind", ["ml", "pl", "naive_eps0", "genie_reference"])
    def test_qam_frames_any_length(self, kind, n_rel, n_data):
        # the relay chains advance inside the decision loop, so a frame of
        # any length, one symbol included, must match the oracle
        self.check_qam_frames_against_oracle(kind, n_rel, n_data=n_data)

    @pytest.mark.parametrize("m", [4, 16, 32])
    def test_pairwise_select_mostly_fallback(self, m):
        # three relays ranking the candidates in rotated orders leave no
        # candidate beating every rival, so most instances take the
        # total-statistic fallback
        rng = make_stream(22, m)
        n = 300
        ranks = (np.arange(m) + (np.arange(3) * m // 3)[:, None]) % m
        rels = rng.normal(scale=2.0, size=(n, 3, m))
        for i in np.flatnonzero(rng.random(n) < 0.8):
            rels[i][:, rng.permutation(m)] = ranks
        rels += rng.normal(scale=0.1, size=rels.shape)
        base = rng.normal(scale=0.05, size=(n, m))
        thresholds = (0.5, 0.6, 0.7)
        got = pairwise_select(base, rels, thresholds)
        expect = pairwise_select_bruteforce(base, rels, thresholds)
        np.testing.assert_array_equal(got[0], expect[0])
        assert got[1] == expect[1]
        assert 0.7 * n < got[1] < n


def psk_frames(rng, n_frames, frame_len, n_rel, snr_db=0.0, m=16):
    """psk-m frames through decode-and-forward relays, all links at snr_db.

    Returns (y_sd (F, L+1), y_rd (R, F, L+1), noise_var, relay epsilon).
    """
    spec = make_psk(m)
    noise_var = 10.0 ** (-snr_db / 10.0)
    link = LinkParams(1.0, noise_var)
    v = encode_psk_frame(rng.integers(0, m, size=(n_frames, frame_len)), spec)

    def through(frame):
        return draw_block_gain(link, rng, size=(n_frames, 1)) * frame \
            + draw_noise(noise_var, rng, size=frame.shape)

    y_rd = np.stack([through(relay_process_frame(through(v), spec, noise_var)[0])
                     for _ in range(n_rel)])
    return through(v), y_rd, noise_var, analytic_epsilon_psk(link, spec)


class TestBlocks:
    """Scoring in fixed-size blocks gives every symbol its stand-alone decision."""

    @pytest.mark.parametrize("n_rel", [1, 3])
    @pytest.mark.parametrize("kind", ["ml", "pl"])
    @pytest.mark.parametrize("n_frames, frame_len, span", [
        (2 * _PSK_BLOCK // 64 + 5, 64, 64),   # frames end inside the last block
        (3, _PSK_BLOCK + 37, 100),            # one frame spans several blocks
    ])
    def test_psk_blocks_match_slices_decoded_alone(self, kind, n_rel, n_frames,
                                                   frame_len, span):
        assert (n_frames * frame_len) % _PSK_BLOCK != 0
        rng = make_stream(30, n_rel, frame_len)
        y_sd, y_rd, nv, eps = psk_frames(rng, n_frames, frame_len, n_rel)
        spec = make_psk(16)
        cfg = DecoderConfig(kind=kind, epsilons=(eps,) * n_rel)
        rd_nvs = (nv,) * n_rel
        got, got_fb = decode_psk_frames(y_sd, y_rd, nv, rd_nvs, spec, cfg)
        expect = np.empty_like(got)
        expect_fb = 0
        for f in range(n_frames):
            for lo in range(0, frame_len, span):
                hi = min(lo + span, frame_len)
                dec, fb = decode_psk_frames(y_sd[f, lo:hi + 1], y_rd[:, f, lo:hi + 1],
                                            nv, rd_nvs, spec, cfg)
                expect[f, lo:hi] = dec
                expect_fb += fb
        np.testing.assert_array_equal(got, expect)
        assert got_fb == expect_fb
        if kind == "pl":
            assert got_fb > 0  # the fallback ran in some block


def product_frames(z0, zr):
    """One-data-symbol frames whose pair products are exactly z0 (n,) and zr (R, n)."""
    return (np.stack([np.ones_like(z0), np.conj(z0)], axis=-1),
            np.stack([np.ones_like(zr), np.conj(zr)], axis=-1))


def adversarial_products(m, n_rel, t_ref, noise_var, n=2000, seed=0):
    """Pair products placed where a certificate is hardest to get right.

    The direct link sits at the centre of a sector, on an edge, or 1e-12 to
    1e-6 rad inside one, and its margin over its neighbours is 0.5 to 3
    times t_ref, times 1 + (0 or +-1e-12 .. 1e-6); a quarter of the pairs
    take a magnitude between 0.1 and 10 instead.  Each relay sits at the
    direct link's sector centre, on or 1e-12 to 1e-8 rad either side of its
    edges, or opposite, with magnitude 1e-3, 1 or 1e3.  Returns (z0, zr).
    """
    rng = make_stream(40, m, n_rel, seed)
    edge = math.pi / m
    inner = [0.0, 0.5 * edge] + [edge - d for d in (1e-12, 1e-9, 2e-9, 1e-6)]
    phi = rng.choice(inner + [edge], size=n) * rng.choice([-1.0, 1.0], size=n)
    gap = np.cos(phi) - np.cos(2.0 * edge - np.abs(phi))
    scale = rng.choice([0.5, 1.0, 2.0, 3.0], size=n) \
        * (1.0 + rng.choice([0.0, 1e-12, -1e-12, 1e-9, -1e-9, 1e-6, -1e-6], size=n))
    r0 = np.where(gap > 0.0, scale * t_ref * noise_var / np.where(gap > 0.0, gap, 1.0), 1.0)
    r0 = np.where(rng.random(n) < 0.25, rng.uniform(0.1, 10.0, size=n), r0)
    centre = -2.0 * math.pi * rng.integers(0, m, size=n) / m
    z0 = r0 * np.exp(1j * (centre + phi))
    offsets = [0.0, math.pi, edge, -edge] + [edge + d for d in (1e-12, -1e-12, 1e-8, -1e-8)]
    psi = rng.choice(offsets, size=(n_rel, n)) * rng.choice([-1.0, 1.0], size=(n_rel, n))
    r = rng.choice([1e-3, 1.0, 1e3], size=(n_rel, n))
    return z0, r * np.exp(1j * (centre + psi))


def certify_nothing(z0, *_):
    """Stand-in for decoders._certify that leaves every pair to the kernel."""
    return np.zeros(z0.size, dtype=np.int64), np.zeros(z0.size, dtype=bool)


def kernel_decode(monkeypatch, *args):
    """decode_psk_frames with no pair certified, so the kernel decides every pair."""
    with monkeypatch.context() as patch:
        patch.setattr(decoders, "_certify", certify_nothing)
        return decode_psk_frames(*args)


def uniform_eps(m):
    return (m - 1) / m


class TestCertificates:
    """A certified pair takes the direct link's decision; it must be the kernel's."""

    NV = 0.5
    # relay epsilons: a typical value, the uniform rate (T = 0), above it
    # (T < 0: nothing certifies) and zero (T = inf: only agreement certifies)
    EPS = {"typical": lambda m: 0.05, "uniform": uniform_eps,
           "above": lambda m: 0.5 * (1.0 + uniform_eps(m)), "zero": lambda m: 0.0}

    @pytest.mark.parametrize("eps_case", ["typical", "uniform", "above", "zero"])
    @pytest.mark.parametrize("n_rel", [0, 1, 3])
    @pytest.mark.parametrize("m", [2, 4, 16])
    @pytest.mark.parametrize("kind", ["ml", "pl", "naive_eps0"])
    def test_matches_kernel_and_oracles(self, monkeypatch, kind, m, n_rel, eps_case):
        spec = make_psk(m)
        cfg = DecoderConfig(kind=kind, epsilons=(self.EPS[eps_case](m),) * n_rel)
        thresholds = cfg.resolved_thresholds(m)
        finite = [t for t in thresholds if 0.0 < t < math.inf]
        z0, zr = adversarial_products(m, n_rel, finite[0] if finite else 3.0, self.NV)
        y_sd, y_rd = product_frames(z0, zr)
        args = (y_sd, y_rd, self.NV, (self.NV,) * n_rel, spec, cfg)
        got, got_fb = decode_psk_frames(*args)
        expect, expect_fb = kernel_decode(monkeypatch, *args)
        np.testing.assert_array_equal(got, expect)
        assert got_fb == expect_fb
        if min(thresholds, default=1.0) >= 0.0:  # else the decoder certifies nothing
            k0, ok = _certify(z0, zr, self.NV, (self.NV,) * n_rel, spec.points, thresholds)
            np.testing.assert_array_equal(k0[ok], expect[ok, 0])
            assert 0 < np.count_nonzero(ok) < ok.size  # both sides were exercised
        got = got[:, 0]
        base = correlations(y_sd, spec.points, self.NV)
        rel_stats = correlations(y_rd, spec.points, self.NV)  # (R, n, M)
        if kind == "pl":
            rels = np.moveaxis(rel_stats, 0, -2)
            oracle, oracle_fb = pairwise_select_bruteforce(base, rels, thresholds)
            np.testing.assert_array_equal(got, oracle)
            assert got_fb == oracle_fb
            return
        # the density oracle underflows at large statistics and rounds
        # differently at near-ties, so it judges the moderate, clear pairs
        with np.errstate(all="ignore"):
            obj = base + sum(np.log((1.0 - e) * np.exp(r) + e / (m - 1)
                                    * (np.exp(r).sum(axis=-1, keepdims=True) - np.exp(r)))
                             for r, e in zip(rel_stats, cfg.effective_epsilons()))
        top2 = np.sort(obj, axis=-1)[:, -2:]
        small = np.all(np.abs(zr) <= 20.0, axis=0) & (np.abs(z0) <= 20.0)
        clear = small & (top2[:, 1] - top2[:, 0] > 1e-6)
        assert np.count_nonzero(clear) > 100
        oracle = pdf_decode_psk(y_sd[:, 0], y_sd[:, 1], y_rd[..., 0], y_rd[..., 1], self.NV,
                                (self.NV,) * n_rel, spec.points, cfg.effective_epsilons())
        np.testing.assert_array_equal(got[clear], oracle[clear])

    def test_exact_ties_never_certify(self):
        # conj(1 - 1j) (1 + 0j) = 1 - 1j has the same statistic, 1.0 exactly,
        # against candidates 0 and 1 of QPSK (phase -pi/4, a sector edge)
        z0 = np.full(3, 1.0 - 1.0j)
        zr = np.array([[1.0 + 0.0j, 1.0 - 1.0j, 0.0 + 1.0j]])
        stats = np.real(z0[:, None] * QPSK.points)
        assert stats[0, 0] == stats[0, 1]
        for kind in ("ml", "pl", "naive_eps0"):
            cfg = DecoderConfig(kind=kind, epsilons=(0.05,))
            _, ok = _certify(z0, zr, 1.0, (1.0,), QPSK.points, cfg.resolved_thresholds(4))
            assert not ok.any()

    def test_relay_on_a_sector_edge_disagrees(self):
        # direct link dead centre on candidate 0 with a margin just short of
        # T: a relay exactly on the edge of that sector must count against it
        t = clip_threshold(4, 0.05)
        z0 = np.array([0.999 * t / (1.0 - math.cos(math.pi / 2))])
        for psi in (math.pi / 4, -math.pi / 4):
            zr = np.array([[np.exp(1j * psi)]])
            _, ok = _certify(z0, zr, 1.0, (1.0,), QPSK.points, (t,))
            assert not ok.any()
            zr_in = np.array([[np.exp(1j * 0.5 * psi)]])
            _, ok = _certify(z0, zr_in, 1.0, (1.0,), QPSK.points, (t,))
            assert ok.all()

    @pytest.mark.parametrize("kind", ["ml", "pl"])
    def test_probe_switches_certificates_off(self, monkeypatch, kind):
        # a noisy leading probe turns certificates off for the call and a
        # clean one keeps them on; either way the decisions are the kernel's
        rng = make_stream(41, len(kind))
        n = _CERT_PROBE + _PSK_BLOCK + 7
        noisy = rng.normal(size=(2, n)) + 1j * rng.normal(size=(2, n))
        clean = np.exp(-2j * math.pi * rng.integers(0, 4, size=n) / 4) * 40.0
        cfg = DecoderConfig(kind=kind, epsilons=(0.05,))
        for head in (noisy, np.broadcast_to(clean, (2, n))):
            z0 = np.concatenate([head[0, :_CERT_PROBE], clean[_CERT_PROBE:]])
            zr = np.concatenate([head[1:, :_CERT_PROBE], clean[None, _CERT_PROBE:]], axis=1)
            y_sd, y_rd = product_frames(z0, zr)
            args = (y_sd, y_rd, 1.0, (1.0,), QPSK, cfg)
            got, got_fb = decode_psk_frames(*args)
            expect, expect_fb = kernel_decode(monkeypatch, *args)
            np.testing.assert_array_equal(got, expect)
            assert got_fb == expect_fb

    def test_vanishing_relay_error_points_match_kernel(self, monkeypatch):
        # sr_infinite with sr_eps 'vanishing' gives the decoders epsilon 0, T = inf
        plan = ExperimentPlan(QPSK, DecoderConfig("ml"), (6.0, 20.0), n_relays=2,
                              tying="sr_infinite", sr_eps="vanishing", frame_len=16,
                              trials=TrialsPolicy(50, 16_384), seed=9)
        with_certificates = [run_point(plan, i) for i in range(2)]
        with monkeypatch.context() as patch:
            patch.setattr(decoders, "_certify", certify_nothing)
            kernel_only = [run_point(plan, i) for i in range(2)]
        assert with_certificates == kernel_only


def integer_statistics(rng, m, n_rel, threshold, n=3000):
    """Small integer statistics, base (n, M) and rels (n, R, M).

    Exact ties are everywhere, and for a finite threshold some candidates'
    base sits exactly at max base - T, the edge of the one-relay rule's set.
    """
    base = rng.integers(-3, 4, size=(n, m)).astype(float)
    rels = rng.integers(-4, 5, size=(n, n_rel, m)).astype(float)
    if math.isfinite(threshold):
        edge = rng.random(n) < 0.3
        cols = rng.integers(0, m, size=n)
        base[edge, cols[edge]] = base[edge].max(axis=-1) - threshold
    return base, rels


def threshold_key(threshold):
    return int(10 * threshold) + 10 if math.isfinite(threshold) else 99


def named_candidate(pick):
    """Stand-in for the candidate stage that names pick (n,) for every instance."""
    def stage(base, rels, thr):
        cols = np.arange(base.shape[1])
        return pick.copy(), base[pick, cols], rels[pick, :, cols].T
    return stage


class TestOneRelayRule:
    """With one relay the tournament names its candidate by the exact rule."""

    @pytest.mark.parametrize("threshold", [0.0, 0.5, 1.0, 2.0, math.inf, -0.5])
    @pytest.mark.parametrize("m", [2, 4, 16, 32])
    def test_matches_all_pairs_rule_and_sweep(self, monkeypatch, m, threshold):
        # the exact rule's candidate, and the sweep's in its place, both
        # end in the all-pairs rule's winners and fallback count
        rng = make_stream(42, m, threshold_key(threshold))
        base, rels = integer_statistics(rng, m, 1, threshold)
        expect = pairwise_select_bruteforce(base, rels, (threshold,))
        got = pairwise_select(base, rels, (threshold,))
        np.testing.assert_array_equal(got[0], expect[0])
        assert got[1] == expect[1]
        monkeypatch.setattr(decoders, "_one_relay_candidate", _sweep)
        swept = pairwise_select(base, rels, (threshold,))
        np.testing.assert_array_equal(swept[0], expect[0])
        assert swept[1] == expect[1]

    @pytest.mark.parametrize("threshold", [0.0, 0.5, math.inf, -0.5])
    @pytest.mark.parametrize("m", [2, 4, 16, 32])
    @pytest.mark.parametrize("n_rel", [1, 3])
    def test_any_candidate_is_resolved_exactly(self, monkeypatch, n_rel, m, threshold):
        # verification and the fallback's tables decide whatever the
        # candidate stage names: candidate 0 everywhere, then a rotated
        # candidate that is wrong everywhere, so every instance, those with
        # a unanimous winner included, reaches the fallback
        rng = make_stream(46, m, n_rel, threshold_key(threshold))
        base, rels = integer_statistics(rng, m, n_rel, threshold)
        thresholds = (threshold,) * n_rel
        expect = pairwise_select_bruteforce(base, rels, thresholds)
        rotated = (expect[0] + 1 + np.arange(expect[0].size) % (m - 1)) % m
        for pick in (np.zeros_like(expect[0]), rotated):
            monkeypatch.setattr(decoders, "_one_relay_candidate", named_candidate(pick))
            monkeypatch.setattr(decoders, "_sweep", named_candidate(pick))
            got = pairwise_select(base, rels, thresholds)
            np.testing.assert_array_equal(got[0], expect[0])
            assert got[1] == expect[1]


# the fallback's instances per chunk at M = 3, the alphabet of the cyclic
# relays below; the tests take counts inside one chunk and at its edges
CHUNK_M3 = _FALLBACK_ELEMENTS // 3


class TestFallbackChunks:
    @pytest.mark.parametrize("n", [63, 64, 65, 128, 129, CHUNK_M3 - 1, CHUNK_M3, CHUNK_M3 + 1,
                                   2 * CHUNK_M3, 2 * CHUNK_M3 + 1])
    def test_counts_straddling_a_chunk(self, n):
        # three relays ranking three candidates cyclically: every instance
        # lacks a unanimous winner, so all n take the fallback
        rng = make_stream(43, n)
        cyclic = np.array([[2.0, 1.0, 0.0], [0.0, 2.0, 1.0], [1.0, 0.0, 2.0]])
        rels = cyclic + rng.uniform(-0.05, 0.05, size=(n, 3, 3))
        base = rng.uniform(-0.05, 0.05, size=(n, 3))
        got = pairwise_select(base, rels, (1.5, 1.5, 1.5))
        expect = pairwise_select_bruteforce(base, rels, (1.5, 1.5, 1.5))
        assert got[1] == expect[1] == n
        np.testing.assert_array_equal(got[0], expect[0])

    @pytest.mark.parametrize("n", [63, 64, 65, 129, CHUNK_M3 - 1, CHUNK_M3, CHUNK_M3 + 1,
                                   2 * CHUNK_M3 + 1])
    def test_mixed_chunks_count_only_instances_without_a_winner(self, n):
        # the cyclic relays again, but about half the instances give one
        # candidate a direct-link lead (5) beyond the relays' clipped sum
        # (4.5): those have a unanimous winner, which the fallback must find
        rng = make_stream(47, n)
        cyclic = np.array([[2.0, 1.0, 0.0], [0.0, 2.0, 1.0], [1.0, 0.0, 2.0]])
        rels = cyclic + rng.uniform(-0.05, 0.05, size=(n, 3, 3))
        base = rng.uniform(-0.05, 0.05, size=(n, 3))
        lead = np.flatnonzero(rng.random(n) < 0.5)
        base[lead, rng.integers(0, 3, size=lead.size)] += 5.0
        winners, n_fallback = _fallback(np.ascontiguousarray(base.T),
                                        np.ascontiguousarray(rels.T), (1.5, 1.5, 1.5))
        expect = pairwise_select_bruteforce(base, rels, (1.5, 1.5, 1.5))
        assert n_fallback == expect[1] == n - lead.size
        np.testing.assert_array_equal(winners, expect[0])


class TestFallback:
    """_fallback decides as the all-pairs rule does, the instance chunks included."""

    @staticmethod
    def cases(rng, m, n_rel, n):
        """(base (n, M), rels (n, R, M), thresholds) cases for the fallback."""
        thresholds = [(1.5, 0.7, 2.2)[:n_rel], (math.inf,) * n_rel, (-0.5, 1.0, -0.2)[:n_rel]]
        for thr in thresholds[:1 if n_rel == 0 else 3]:
            yield (rng.normal(scale=0.3, size=(n, m)),
                   rng.normal(scale=2.0, size=(n, n_rel, m)), thr)
            # exact ties everywhere
            yield (rng.integers(-3, 4, size=(n, m)).astype(float),
                   rng.integers(-4, 5, size=(n, n_rel, m)).astype(float), thr)

    @pytest.mark.parametrize("m", [2, 3, 4, 6, 16, 32, 136])
    @pytest.mark.parametrize("n_rel", [0, 1, 3])
    def test_matches_all_pairs_rule(self, n_rel, m):
        # T < 0 makes np.clip return the constant T, so lam is not
        # antisymmetric; the instances end inside one chunk and one past it;
        # rows of 136 span seventeen groups of eight rivals
        chunk = _FALLBACK_ELEMENTS // m
        rng = make_stream(49, m, n_rel)
        for n in (chunk - 1, chunk + 1):
            for base, rels, thr in self.cases(rng, m, n_rel, n):
                winners, n_fallback = _fallback(np.ascontiguousarray(base.T),
                                                np.ascontiguousarray(rels.T), thr)
                expect = pairwise_select_bruteforce(base, rels, thr)
                np.testing.assert_array_equal(winners, expect[0])
                assert n_fallback == expect[1]


def mixture_by_loop(scores, eps):
    """_mixture_log_scores of candidate-major scores (M, n), candidates added in a loop."""
    m = scores.shape[0]
    mx = scores.max(axis=0)
    e = np.exp(scores - mx)
    total = e[0].copy()
    for k in range(1, m):
        total += e[k]
    return np.log((total - e) * (eps / (m - 1)) + e * (1.0 - eps)) + mx


def row_totals_by_loop(base, rels, thresholds):
    """Row totals of the pairwise statistics, (M, n), R >= 1, every addition in a loop.

    lam(k, q) adds the clipped relay terms in relay order, then the base
    term; total[k] adds lam(k, q) over q in index order.
    """
    m = base.shape[0]
    total = np.empty_like(base)
    for k in range(m):
        for q in range(m):
            terms = [np.clip(rels[k, r] - rels[q, r], -t, t) for r, t in enumerate(thresholds)]
            lam = terms[0]
            for term in [*terms[1:], base[k] - base[q]]:
                lam = lam + term
            total[k] = lam if q == 0 else total[k] + lam
    return total


class TestShapeIndependence:
    """The mixture's and the fallback's sums add in index order at any shape.

    One instance alone (n = 1, where np.sum down the candidate axis would
    sum pairwise), inside a 4,096-pair block, and through the strided
    rels[:, r] view of a (M, R, n) block must all give the loop's bits.
    """

    N = 4096

    @staticmethod
    def statistics(m, n_rel, n, seed):
        """(base (M, n), rels (M, R, n)) with magnitudes spread over decades."""
        rng = make_stream(50, m, n_rel, seed)
        base = rng.normal(scale=5.0, size=(m, n))
        rels = rng.normal(scale=5.0, size=(m, n_rel, n)) * np.exp(
            rng.normal(scale=2.0, size=(m, n_rel, n)))
        return base, rels

    @pytest.mark.parametrize("m", [16, 64])
    def test_mixture_and_ml_decisions(self, m):
        base, rels = self.statistics(m, 3, self.N, 0)
        epsilons = (0.05, 0.2, 0.5)
        score = base.copy()
        for r, eps in enumerate(epsilons):
            expect = mixture_by_loop(rels[:, r], eps)
            score += expect
            np.testing.assert_array_equal(_mixture_log_scores(rels[:, r], eps), expect)
            block = np.ascontiguousarray(rels[:, r])
            np.testing.assert_array_equal(_mixture_log_scores(block, eps), expect)
            for j in range(0, self.N, 7):
                one = _mixture_log_scores(block[:, j:j + 1], eps)
                np.testing.assert_array_equal(one[:, 0], expect[:, j])
        expect_dec = np.argmax(score, axis=0)
        cfg = DecoderConfig(kind="ml", epsilons=epsilons)
        thr = cfg.resolved_thresholds(m)
        got, _ = _decide(base.copy(), rels, cfg, thr)
        np.testing.assert_array_equal(got, expect_dec)
        for j in range(0, self.N, 7):
            one, _ = _decide(base[:, j:j + 1].copy(), rels[:, :, j:j + 1], cfg, thr)
            assert one[0] == expect_dec[j]

    @pytest.mark.parametrize("n_rel", [1, 3])
    @pytest.mark.parametrize("m", [16, 40])
    def test_fallback_totals_and_decisions(self, m, n_rel):
        base, rels = self.statistics(m, n_rel, self.N, 1)
        # integer statistics make many totals tie before rounding
        base[:, ::2] = np.round(base[:, ::2])
        rels[:, :, ::2] = np.round(rels[:, :, ::2])
        thresholds = (1.5, 3.0, 0.7)[:n_rel]
        expect = row_totals_by_loop(base, rels, thresholds)
        chunk = _FALLBACK_ELEMENTS // m
        wide = np.empty((m, n_rel, 2 * self.N))
        wide[:, :, ::2] = rels  # rels again, as a strided view
        for given in (rels, wide[:, :, ::2]):
            for lo in range(0, self.N, chunk):
                total, _ = _row_totals(base[:, lo:lo + chunk], given[:, :, lo:lo + chunk],
                                       thresholds)
                np.testing.assert_array_equal(total, expect[:, lo:lo + chunk])
        for j in range(0, self.N, 7):
            total, _ = _row_totals(base[:, j:j + 1], rels[:, :, j:j + 1], thresholds)
            np.testing.assert_array_equal(total[:, 0], expect[:, j])
        winners, n_fallback = _fallback(base, rels, thresholds)
        oracle = pairwise_select_bruteforce(base.T, rels.T, thresholds)
        np.testing.assert_array_equal(winners, oracle[0])
        assert n_fallback == oracle[1] > 0
        strided, _ = _fallback(base, wide[:, :, ::2], thresholds)
        np.testing.assert_array_equal(strided, winners)
        for j in range(0, self.N, 7):
            one, _ = _fallback(base[:, j:j + 1], rels[:, :, j:j + 1], thresholds)
            assert one[0] == winners[j]

    @pytest.mark.parametrize("n_rel", [1, 3])
    @pytest.mark.parametrize("kind", ["ml", "pl"])
    def test_qam_frames_alone_and_together(self, kind, n_rel):
        rng = make_stream(51, n_rel, len(kind))
        idx, y_sd, y_rd, nv, rd_nvs, _ = TestKernelOracles().qam_frames(
            rng, n_rel, n_batch=37, n_data=8, snr_db=6.0)
        cfg = DecoderConfig(kind=kind, epsilons=tuple(0.05 + 0.05 * r for r in range(n_rel)))
        together, together_fb = decode_qam_frames(y_sd, y_rd, nv, rd_nvs, QAM16, cfg)
        alone_fb = 0
        for b in range(37):
            alone, fb = decode_qam_frames(y_sd[b:b + 1], y_rd[:, b:b + 1], nv, rd_nvs,
                                          QAM16, cfg)
            np.testing.assert_array_equal(alone[0], together[b])
            alone_fb += fb
        assert alone_fb == together_fb


def traced_peak_bytes(fn):
    """Largest traced allocation above the start level while fn() runs."""
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        fn()
        return tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()


def in_fresh_thread(fn):
    """fn() run in a new thread, which starts with an empty decoder workspace."""
    with ThreadPoolExecutor(max_workers=1) as pool:
        return pool.submit(fn).result(timeout=300)


def psk_batch(m, kind, n_rel, n_frames, snr_db, frame_len=64):
    """A decode_psk_frames call on fixed psk-m frames, as a function of no arguments."""
    rng = make_stream(44, 10 * m + n_rel, 1000 * n_frames + frame_len + int(snr_db))
    y_sd, y_rd, nv, eps = psk_frames(rng, n_frames, frame_len, n_rel, snr_db, m)
    cfg = DecoderConfig(kind=kind, epsilons=(eps,) * n_rel)
    return lambda: decode_psk_frames(y_sd, y_rd, nv, (nv,) * n_rel, make_psk(m), cfg)


class TestWorkingSet:
    """The blocked kernels' traced peak allocation stays small and flat."""

    def test_psk_decoder_peak_is_bounded(self):
        # psk-16 pl N=3 at 0 dB: about 7.3 MB for one 8192-symbol batch
        # scored in blocks, its thread's workspace included, 35 MB when the
        # whole batch was scored at once
        peaks = []
        for n_frames in (128, 256):
            rng = make_stream(31, n_frames)
            y_sd, y_rd, nv, eps = psk_frames(rng, n_frames, 64, 3)
            cfg = DecoderConfig(kind="pl", epsilons=(eps,) * 3)
            peaks.append(in_fresh_thread(lambda: traced_peak_bytes(lambda: decode_psk_frames(
                y_sd, y_rd, nv, (nv,) * 3, make_psk(16), cfg))))
        assert peaks[0] < 15e6
        assert peaks[1] < 1.5 * peaks[0]  # doubling the batch

    def test_qam_calibration_peak_is_bounded(self):
        # qam-16, 100k trials: about 10.6 MB with the detector run in blocks,
        # 40.5 MB when it scored a whole 65,536-draw chunk at once
        link = LinkParams(1.0, 0.1)
        peak = in_fresh_thread(lambda: traced_peak_bytes(
            lambda: calibrate_epsilon(link, QAM16, trials=100_000, seed=3)))
        assert peak < 20e6

    @pytest.mark.parametrize("m, kind, n_rel", [(32, "pl", 1), (16, "ml", 3), (16, "pl", 3)])
    def test_warmed_psk_call_allocates_no_blocks(self, m, kind, n_rel):
        # one 8192-symbol batch at 0 dB, where no pair certifies: 6.8, 5.4
        # and 6.6 MB traced peak when every block allocated its arrays
        call = psk_batch(m, kind, n_rel, 128, 0.0)

        def warmed_peak():
            call()
            return traced_peak_bytes(call)

        assert in_fresh_thread(warmed_peak) <= 1.5e6


class TestWorkspace:
    """Reusing a thread's workspace carries nothing from one call to the next."""

    # frames of 50 symbols: batches of 1, 64 and 128 frames end their last
    # block part-way; at 0 dB the probe turns certificates off for psk-16
    # and psk-32, at 30 dB they are on
    CALLS = [(m, kind, n_rel, n_frames, snr_db)
             for m in (4, 16, 32) for kind in ("ml", "pl") for n_rel in (1, 3)
             for n_frames in (1, 64, 128) for snr_db in (0.0, 30.0)]

    def test_reused_workspace_matches_fresh_threads(self):
        calls = [psk_batch(*args, frame_len=50) for args in self.CALLS]
        order = make_stream(45).permutation(len(calls))
        serial = in_fresh_thread(lambda: [calls[i]() for i in order])
        for i, (got, got_fb) in zip(order, serial):
            expect, expect_fb = in_fresh_thread(calls[i])
            np.testing.assert_array_equal(got, expect, err_msg=str(self.CALLS[i]))
            assert got_fb == expect_fb, self.CALLS[i]

    def test_concurrent_threads_match_serial(self):
        # more threads than cores, each decoding its own configs twice, with
        # the interpreter switching threads as often as it can
        groups = [[psk_batch(32, "pl", 1, 128, 0.0), psk_batch(4, "ml", 1, 64, 30.0)],
                  [psk_batch(16, "ml", 3, 64, 0.0), psk_batch(16, "pl", 1, 1, 0.0)],
                  [psk_batch(16, "pl", 3, 128, 0.0), psk_batch(32, "ml", 1, 64, 30.0)]]
        serial = [[call() for call in group] for group in groups]

        def run(group):
            return [call() for _ in range(2) for call in group]

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with ThreadPoolExecutor(max_workers=len(groups)) as pool:
                futures = [pool.submit(run, group) for group in groups]
                results = [f.result(timeout=300) for f in futures]
        finally:
            sys.setswitchinterval(interval)
        for expect, got in zip(serial, results):
            for (dec, fb), (want, want_fb) in zip(got, expect * 2):
                np.testing.assert_array_equal(dec, want)
                assert fb == want_fb
