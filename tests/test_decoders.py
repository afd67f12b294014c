"""Tests for the destination ML and piecewise-linear decoders."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from oracles import (
    decode_qam_frames_per_symbol,
    exact_relay_llr,
    pairwise_select_bruteforce,
    pdf_decode_psk,
    pdf_decode_qam,
)

from diffrelay.channel import LinkParams, draw_block_gain, draw_noise, make_stream
from diffrelay.constellation import make_psk, make_qam
from diffrelay.decoders import (
    DecoderConfig,
    DestObservation,
    QamFeedback,
    _counted_ml_decode,
    _counted_pl_decode,
    _mixture_log_scores,
    _pairwise_select,
    clip_threshold,
    count_ops,
    decode_psk_frames,
    decode_qam_frames,
    dest_estimate_relay_prev,
    f_pl,
    ml_decode_psk,
    ml_decode_qam,
    pl_decode_psk,
    pl_decode_qam,
)
from diffrelay.diffmod import encode_psk_frame, encode_qam_frame
from diffrelay.relay import relay_process_frame

QPSK = make_psk(4)
QAM16 = make_qam(16)


def random_psk_obs(rng, spec, snr_db, n_relays=1):
    """One noisy destination observation with a known transmitted symbol."""
    noise_var = 10.0 ** (-snr_db / 10.0)
    k = int(rng.integers(0, spec.M))
    v_prev = complex(spec.points[int(rng.integers(0, spec.M))])
    v_curr = v_prev * complex(spec.points[k])
    link = LinkParams(sigma2=1.0, noise_var=noise_var)

    def pair():
        h = draw_block_gain(link, rng)
        e = draw_noise(noise_var, rng, size=2)
        return (h * v_prev + e[0], h * v_curr + e[1])

    sd = pair()
    rds = tuple(pair() for _ in range(n_relays))
    obs = DestObservation(
        sd_pair=sd, rd_pairs=rds, sd_noise_var=noise_var,
        rd_noise_vars=(noise_var,) * n_relays,
    )
    return obs, k


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
    def test_regions(self):
        assert f_pl(0.0, 7.3032) == 0.0
        assert f_pl(10.0, 7.3032) == 7.3032
        assert f_pl(-10.0, 7.3032) == -7.3032
        assert f_pl(3.0, 7.3032) == 3.0

    def test_threshold_validation(self):
        with pytest.raises(ValueError):
            f_pl(1.0, 0.0)

    @given(t=st.floats(-50, 50), threshold=st.floats(0.1, 20))
    def test_odd_function(self, t, threshold):
        assert f_pl(-t, threshold) == -f_pl(t, threshold)

    def test_deviation_from_exact_nonlinearity(self):
        eps, m = 1e-2, 16
        threshold = clip_threshold(m, eps)
        t = np.linspace(-30.0, 30.0, 120_001)
        deviation = np.max(np.abs(exact_relay_llr(t, eps, m) - f_pl(t, threshold)))
        assert deviation < 0.7
        assert abs(exact_relay_llr(40.0, eps, m) - threshold) < 1e-12


class TestConfig:
    def test_kind_validation(self):
        with pytest.raises(ValueError):
            DecoderConfig(kind="map", epsilons=(0.1,))
        with pytest.raises(ValueError):
            DecoderConfig(kind="ml", epsilons=(1.0,))
        with pytest.raises(ValueError):
            DecoderConfig(kind="ml", epsilons=(0.1,), thresholds=(1.0, 2.0))

    def test_threshold_resolution(self):
        cfg = DecoderConfig(kind="ml", epsilons=(1e-2, 0.0))
        thr = cfg.resolved_thresholds(16)
        assert thr[0] == pytest.approx(clip_threshold(16, 1e-2))
        assert thr[1] == math.inf
        explicit = DecoderConfig(kind="pl", epsilons=(1e-2,), thresholds=(3.5,))
        assert explicit.resolved_thresholds(16) == (3.5,)
        naive = DecoderConfig(kind="naive_eps0", epsilons=(1e-2,))
        assert naive.resolved_thresholds(16) == (math.inf,)
        assert naive.effective_epsilons() == (0.0,)

    def test_feedback_validation(self):
        with pytest.raises(ValueError):
            QamFeedback(source_prev_mag=0.0)
        with pytest.raises(ValueError):
            QamFeedback(source_prev_mag=1.0, relay_prev_mags=(0.0,))


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
        for _ in range(50):
            obs, _ = random_psk_obs(rng, QPSK, 8.0, n_relays=2)
            cfg = DecoderConfig(kind="ml", epsilons=(0.0, 0.0))
            got = ml_decode_psk(obs, QPSK, cfg)
            stats = np.real(
                np.conj(obs.sd_pair[1]) * obs.sd_pair[0] * QPSK.points
            ) / obs.sd_noise_var
            for pair, nv in zip(obs.rd_pairs, obs.rd_noise_vars):
                stats = stats + np.real(np.conj(pair[1]) * pair[0] * QPSK.points) / nv
            assert got == np.argmax(stats)

    def test_binary_matches_density_oracle(self):
        bpsk = make_psk(2)
        rng = make_stream(2, 40)
        n = 10_000
        obs_sd = np.empty((2, n), dtype=complex)
        obs_rd = np.empty((2, n), dtype=complex)
        decisions = np.empty(n, dtype=int)
        cfg = DecoderConfig(kind="ml", epsilons=(0.05,))
        noise_var = 10.0 ** (-0.8)
        for i in range(n):
            obs, _ = random_psk_obs(rng, bpsk, 8.0)
            obs = DestObservation(
                sd_pair=obs.sd_pair, rd_pairs=obs.rd_pairs,
                sd_noise_var=noise_var, rd_noise_vars=(noise_var,),
            )
            decisions[i] = ml_decode_psk(obs, bpsk, cfg)
            obs_sd[:, i] = obs.sd_pair
            obs_rd[:, i] = obs.rd_pairs[0]
        oracle = pdf_decode_psk(
            obs_sd[0], obs_sd[1], obs_rd[None, 0], obs_rd[None, 1],
            noise_var, (noise_var,), bpsk.points, (0.05,),
        )
        assert np.array_equal(decisions, oracle)

    def test_phase_rotation_invariance(self):
        rng = make_stream(3, 40)
        for _ in range(100):
            obs, _ = random_psk_obs(rng, QPSK, 10.0)
            cfg = DecoderConfig(kind="ml", epsilons=(1e-2,))
            base = ml_decode_psk(obs, QPSK, cfg)
            rot = complex(np.exp(1j * rng.uniform(0.0, 2.0 * math.pi)))
            moved = DestObservation(
                sd_pair=(obs.sd_pair[0] * rot, obs.sd_pair[1] * rot),
                rd_pairs=tuple((a * rot, b * rot) for a, b in obs.rd_pairs),
                sd_noise_var=obs.sd_noise_var, rd_noise_vars=obs.rd_noise_vars,
            )
            assert ml_decode_psk(moved, QPSK, cfg) == base

    def test_naive_kind_equals_zero_eps(self):
        rng = make_stream(4, 40)
        for _ in range(50):
            obs, _ = random_psk_obs(rng, QPSK, 5.0)
            naive = DecoderConfig(kind="naive_eps0", epsilons=(0.3,))
            zero = DecoderConfig(kind="ml", epsilons=(0.0,))
            assert ml_decode_psk(obs, QPSK, naive) == ml_decode_psk(obs, QPSK, zero)

    def test_stabilized_matches_plain_arithmetic(self):
        rng = make_stream(5, 40)
        eps = 1e-2
        for _ in range(200):
            obs, _ = random_psk_obs(rng, QPSK, 12.0)
            got = ml_decode_psk(obs, QPSK, DecoderConfig(kind="ml", epsilons=(eps,)))
            t0 = np.real(np.conj(obs.sd_pair[1]) * obs.sd_pair[0] * QPSK.points)
            t0 /= obs.sd_noise_var
            pair = obs.rd_pairs[0]
            t = np.real(np.conj(pair[1]) * pair[0] * QPSK.points) / obs.rd_noise_vars[0]
            ex = np.exp(t)
            mix = (1.0 - eps) * ex + eps / 3.0 * (ex.sum() - ex)
            plain = t0 + np.log(mix)
            assert got == np.argmax(plain)

    def test_rejects_wrong_kind_and_counts(self):
        obs, _ = random_psk_obs(make_stream(6, 40), QPSK, 10.0)
        with pytest.raises(ValueError):
            ml_decode_psk(obs, QPSK, DecoderConfig(kind="pl", epsilons=(0.1,)))
        with pytest.raises(ValueError):
            ml_decode_psk(obs, QPSK, DecoderConfig(kind="ml", epsilons=(0.1, 0.1)))
        with pytest.raises(ValueError):
            ml_decode_psk(obs, QAM16, DecoderConfig(kind="ml", epsilons=(0.1,)))


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
        for _ in range(50):
            obs, _ = random_psk_obs(rng, QPSK, 6.0)
            cfg = DecoderConfig(kind="pl", epsilons=(1e-9,))
            got = pl_decode_psk(obs, QPSK, cfg)
            t0 = np.real(np.conj(obs.sd_pair[1]) * obs.sd_pair[0] * QPSK.points)
            t0 /= obs.sd_noise_var
            pair = obs.rd_pairs[0]
            t = np.real(np.conj(pair[1]) * pair[0] * QPSK.points) / obs.rd_noise_vars[0]
            assert got == np.argmax(t0 + t)

    def test_naive_threshold_coincides_with_ml(self):
        rng = make_stream(9, 40)
        for _ in range(100):
            obs, _ = random_psk_obs(rng, QPSK, 4.0, n_relays=2)
            naive_ml = ml_decode_psk(
                obs, QPSK, DecoderConfig(kind="naive_eps0", epsilons=(0.1, 0.1))
            )
            naive_pl = pl_decode_psk(
                obs, QPSK, DecoderConfig(kind="naive_eps0", epsilons=(0.1, 0.1))
            )
            assert naive_pl == naive_ml

    def test_cyclic_majority_falls_back_to_totals(self):
        base = np.zeros(3)
        rels = np.array([
            [2.0, 1.0, 0.0],
            [0.0, 2.0, 1.0],
            [1.0, 0.0, 2.0],
        ])
        thresholds = (1.5, 1.5, 1.5)
        winner, n_fallback = _pairwise_select(base, rels, thresholds)
        assert n_fallback == 1
        assert winner == 0

    def test_unanimous_winner_found_by_tournament(self):
        rng = make_stream(10, 40)
        for _ in range(200):
            base = rng.normal(size=8)
            rels = rng.normal(size=(2, 8))
            thr = (1.0, 2.0)
            winner, _ = _pairwise_select(base, rels, thr)
            diff0 = base[winner] - base
            diffm = np.clip(rels[:, winner][:, None] - rels, -np.array(thr)[:, None],
                            np.array(thr)[:, None]).sum(axis=0)
            lam = diff0 + diffm
            lam[winner] = np.inf
            totals_ok = np.all(lam > 0.0)
            if totals_ok:
                assert np.min(lam[np.arange(8) != winner]) > 0.0


class TestQamDecoders:
    def genie_cfg(self, kind, eps, sd_mag, rd_mag):
        return DecoderConfig(
            kind=kind, epsilons=(eps,),
            qam_feedback=QamFeedback(source_prev_mag=sd_mag, relay_prev_mags=(rd_mag,)),
        )

    def test_noiseless_recovery(self):
        rng = make_stream(11, 40)
        for _ in range(30):
            kp = int(rng.integers(0, 16))
            k = int(rng.integers(0, 16))
            x_prev = complex(QAM16.points[kp])
            x = complex(QAM16.points[k])
            v_prev = x_prev
            v_curr = x_prev * x / abs(x_prev)
            h_sd = draw_block_gain(LinkParams(1.0, 0.1), rng)
            h_rd = draw_block_gain(LinkParams(1.0, 0.1), rng)
            obs = DestObservation(
                sd_pair=(h_sd * v_prev, h_sd * v_curr),
                rd_pairs=((h_rd * v_prev, h_rd * v_curr),),
                sd_noise_var=1e-12, rd_noise_vars=(1e-12,),
            )
            cfg = self.genie_cfg("ml", 0.0, abs(x_prev), abs(x_prev))
            assert ml_decode_qam(obs, QAM16, cfg) == k
            cfg_pl = self.genie_cfg("pl", 1e-6, abs(x_prev), abs(x_prev))
            assert pl_decode_qam(obs, QAM16, cfg_pl) == k

    def test_matches_density_oracle(self):
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
        got = np.empty(n, dtype=int)
        for i in range(n):
            obs = DestObservation(
                sd_pair=(complex(sd[0][i]), complex(sd[1][i])),
                rd_pairs=((complex(rd[0][i]), complex(rd[1][i])),),
                sd_noise_var=noise_var, rd_noise_vars=(noise_var,),
            )
            cfg = self.genie_cfg("ml", eps, float(mags[i]), float(mags[i]))
            got[i] = ml_decode_qam(obs, QAM16, cfg)
        oracle = pdf_decode_qam(
            sd[0], sd[1], rd[0][None], rd[1][None], noise_var, (noise_var,),
            QAM16.points, (eps,), mags, mags[None],
        )
        assert np.array_equal(got, oracle)

    def test_requires_feedback(self):
        obs = DestObservation(
            sd_pair=(1.0 + 0j, 1.0 + 0j), rd_pairs=((1.0 + 0j, 1.0 + 0j),),
            sd_noise_var=0.1, rd_noise_vars=(0.1,),
        )
        with pytest.raises(ValueError):
            ml_decode_qam(obs, QAM16, DecoderConfig(kind="ml", epsilons=(0.1,)))

    def test_estimate_relay_prev_noiseless_and_oracle(self):
        rng = make_stream(13, 40)
        for _ in range(50):
            kp = int(rng.integers(0, 16))
            k = int(rng.integers(0, 16))
            x_prev = complex(QAM16.points[kp])
            x = complex(QAM16.points[k])
            h = draw_block_gain(LinkParams(1.0, 0.1), rng)
            y0 = h * x_prev
            y1 = h * x_prev * x / abs(x_prev)
            got, mag = dest_estimate_relay_prev(y0, y1, QAM16, 1e-12, abs(x_prev))
            assert got == k
            assert mag == pytest.approx(abs(QAM16.points[k]))
        for _ in range(200):
            y0, y1 = (complex(a, b) for a, b in rng.normal(size=(2, 2)))
            m = float(rng.uniform(0.4, 2.0))
            nv = float(10.0 ** rng.uniform(-2, 0))
            got, _ = dest_estimate_relay_prev(y0, y1, QAM16, nv, m)
            obj = [
                math.log(1.0 + abs(x) ** 2 / m**2)
                + abs(y1 - y0 * x / m) ** 2 / ((1.0 + abs(x) ** 2 / m**2) * nv)
                for x in QAM16.points
            ]
            assert got == int(np.argmin(obj))


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
            decode = pl_decode_psk if kind == "pl" else ml_decode_psk
            for b in range(2):
                for n in range(5):
                    obs = DestObservation(
                        sd_pair=(complex(y_sd[b, n]), complex(y_sd[b, n + 1])),
                        rd_pairs=tuple(
                            (complex(y_rd[r, b, n]), complex(y_rd[r, b, n + 1]))
                            for r in range(2)
                        ),
                        sd_noise_var=nv, rd_noise_vars=(nv, nv),
                    )
                    assert got[b, n] == decode(obs, QPSK, cfg)

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
            decode = pl_decode_qam if kind == "pl" else ml_decode_qam
            for b in range(n_batch):
                m0 = 1.0
                chain = 1.0
                for n in range(n_data):
                    if n == 0:
                        mr = 1.0
                    else:
                        _, est_mag = dest_estimate_relay_prev(
                            complex(y_rd[b, n - 1]), complex(y_rd[b, n]),
                            QAM16, noise_var, chain,
                        )
                        mr = est_mag
                        chain = est_mag
                    obs = DestObservation(
                        sd_pair=(complex(y_sd[b, n]), complex(y_sd[b, n + 1])),
                        rd_pairs=((complex(y_rd[b, n]), complex(y_rd[b, n + 1])),),
                        sd_noise_var=noise_var, rd_noise_vars=(noise_var,),
                    )
                    step_cfg = DecoderConfig(
                        kind=kind, epsilons=(eps,),
                        qam_feedback=QamFeedback(
                            source_prev_mag=m0, relay_prev_mags=(mr,)
                        ),
                    )
                    k = decode(obs, QAM16, step_cfg)
                    assert got[b, n] == k
                    m0 = float(abs(QAM16.points[k]))

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
        true_source_mags = np.abs(QAM16.points[idx])
        true_relay_mags = np.abs(QAM16.points[relay_decisions])[None]
        cfg = DecoderConfig(kind="genie_reference", epsilons=(0.05,))
        got, _ = decode_qam_frames(
            y_sd, y_rd[None], noise_var, (noise_var,), QAM16, cfg,
            true_source_idx=idx, true_relay_idx=relay_decisions[None],
        )
        for b in range(n_batch):
            for n in range(n_data):
                m0 = 1.0 if n == 0 else float(true_source_mags[b, n - 1])
                mr = 1.0 if n == 0 else float(true_relay_mags[0, b, n - 1])
                obs = DestObservation(
                    sd_pair=(complex(y_sd[b, n]), complex(y_sd[b, n + 1])),
                    rd_pairs=((complex(y_rd[b, n]), complex(y_rd[b, n + 1])),),
                    sd_noise_var=noise_var, rd_noise_vars=(noise_var,),
                )
                step_cfg = DecoderConfig(
                    kind="genie_reference", epsilons=(0.05,),
                    qam_feedback=QamFeedback(source_prev_mag=m0, relay_prev_mags=(mr,)),
                )
                assert got[b, n] == ml_decode_qam(obs, QAM16, step_cfg)
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
        for _ in range(100):
            obs, _ = random_psk_obs(rng, QPSK, 10.0)
            eps = 1e-2
            counted, _ = _counted_ml_decode(
                obs.sd_pair, obs.rd_pairs[0], QPSK.points, eps,
                obs.sd_noise_var, obs.rd_noise_vars[0],
            )
            cfg = DecoderConfig(kind="ml", epsilons=(eps,))
            assert counted == ml_decode_psk(obs, QPSK, cfg)

    def test_counted_pl_decision_matches_production_on_unanimous(self):
        rng = make_stream(19, 40)
        eps = 1e-2
        threshold = clip_threshold(4, eps)
        for _ in range(100):
            obs, _ = random_psk_obs(rng, QPSK, 10.0)
            counted, _ = _counted_pl_decode(
                obs.sd_pair, obs.rd_pairs[0], QPSK.points, threshold,
                obs.sd_noise_var, obs.rd_noise_vars[0],
            )
            cfg = DecoderConfig(kind="pl", epsilons=(eps,))
            assert counted == pl_decode_psk(obs, QPSK, cfg)

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
            got = _pairwise_select(base, rels, thresholds)
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
