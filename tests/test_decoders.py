"""Tests for the destination ML and piecewise-linear decoders."""

import math

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

from diffrelay.channel import LinkParams, draw_block_gain, draw_noise, make_stream
from diffrelay.constellation import make_psk, make_qam
from diffrelay.decoders import (
    DecoderConfig,
    _counted_ml_decode,
    _counted_pl_decode,
    _mixture_log_scores,
    _tournament,
    clip_threshold,
    count_ops,
    decode_psk_frames,
    decode_qam_frames,
)
from diffrelay.diffmod import encode_psk_frame, encode_qam_frame
from diffrelay.relay import relay_process_frame

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
    def test_matches_direct_evaluation(self):
        rng = make_stream(0, 40)
        for eps in (1e-3, 1e-1, 0.5, 0.9):
            scores = rng.normal(size=(20, 8))
            got = _mixture_log_scores(scores, eps)
            w = eps / 7.0
            expect = np.empty_like(scores)
            for k in range(8):
                others = np.exp(scores).sum(axis=-1) - np.exp(scores[:, k])
                expect[:, k] = np.log((1.0 - eps) * np.exp(scores[:, k]) + w * others)
            np.testing.assert_allclose(got, expect, rtol=1e-12, atol=1e-12)

    def test_zero_eps_identity(self):
        scores = np.array([1.0, -2.0, 0.5])
        np.testing.assert_array_equal(_mixture_log_scores(scores, 0.0), scores)

    def test_extreme_scores_finite(self):
        scores = np.array([5000.0, -5000.0, 0.0, 4999.0])
        out = _mixture_log_scores(scores, 1e-2)
        assert np.all(np.isfinite(out))
        assert np.argmax(out) == 0


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

    @pytest.mark.parametrize("n_rel", [0, 1, 3])
    @pytest.mark.parametrize("kind", ["ml", "pl", "genie_reference"])
    def test_qam_frames_match_per_symbol_oracle(self, kind, n_rel):
        rng = make_stream(21, n_rel, len(kind))
        idx, y_sd, y_rd, nv, rd_nvs, relay_decisions = self.qam_frames(rng, n_rel)
        epsilons = tuple(0.02 + 0.03 * r for r in range(n_rel))
        cfg = DecoderConfig(kind=kind, epsilons=epsilons)
        got, got_fb = decode_qam_frames(y_sd, y_rd, nv, rd_nvs, QAM16, cfg,
                                        true_source_idx=idx, true_relay_idx=relay_decisions)
        mags = {}
        if kind == "genie_reference":
            mags = dict(true_source_mags=np.abs(QAM16.points[idx]),
                        true_relay_mags=np.abs(QAM16.points[relay_decisions]))
        expect, expect_fb = decode_qam_frames_per_symbol(
            y_sd, y_rd, nv, rd_nvs, QAM16, kind, epsilons,
            cfg.resolved_thresholds(16), **mags,
        )
        np.testing.assert_array_equal(got, expect)
        assert got_fb == expect_fb
