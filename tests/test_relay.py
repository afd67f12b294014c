"""Tests for relay demodulation, re-encoding, and epsilon calibration."""

import math

import numpy as np
import pytest
from hypothesis import given, assume, settings
from hypothesis import strategies as st
from scipy import integrate

from oracles import dpsk_epsilon_quad, qam_pair_objective

from diffrelay.channel import LinkParams, draw_block_gain, draw_noise, make_stream
from diffrelay.constellation import make_psk, make_qam
from diffrelay.diffmod import encode_psk_frame, encode_qam_frame
from diffrelay.relay import (
    EpsilonEstimate,
    analytic_epsilon_psk,
    calibrate_epsilon,
    demod_psk_frame,
    demod_qam_frame,
    load_epsilon_table,
    psk_sector,
    qam_objective,
    relay_process_frame,
    save_epsilon_table,
)

QPSK = make_psk(4)
QAM16 = make_qam(16)


def link_at(snr_db: float) -> LinkParams:
    return LinkParams(sigma2=1.0, noise_var=10.0 ** (-snr_db / 10.0))


class TestTypes:
    def test_estimate_validation(self):
        EpsilonEstimate(value=0.1, trials=10, std_err=0.01)
        EpsilonEstimate(value=0.1, trials=0, std_err=0.0)  # an analytic value
        with pytest.raises(ValueError, match="value"):
            EpsilonEstimate(value=1.0, trials=10, std_err=0.0)
        with pytest.raises(ValueError, match="trials"):
            EpsilonEstimate(value=0.1, trials=-1, std_err=0.0)
        with pytest.raises(ValueError, match="std_err"):
            EpsilonEstimate(value=0.1, trials=0, std_err=-1.0)


def pair_frames(y_prev, y_curr):
    """One-data-symbol frames (..., 2) from the two samples of each pair."""
    return np.stack(np.broadcast_arrays(y_prev, y_curr), axis=-1)


class TestDemodPsk:
    def test_noiseless_recovery(self):
        rng = make_stream(0, 10)
        h = draw_block_gain(link_at(10.0), rng, size=20)
        k = rng.integers(0, 4, size=20)
        v_prev = QPSK.points[rng.integers(0, 4, size=20)]
        y = pair_frames(h * v_prev, h * v_prev * QPSK.points[k])
        np.testing.assert_array_equal(demod_psk_frame(y, QPSK)[:, 0], k)

    def test_identity_pair_decides_reference_symbol(self):
        y = pair_frames(0.7 - 0.2j, 0.7 - 0.2j)
        assert demod_psk_frame(y, QPSK)[0] == 0

    def test_rejects_qam(self):
        with pytest.raises(ValueError):
            demod_psk_frame(pair_frames(1.0 + 0j, 1.0 + 0j), QAM16)

    @given(
        re0=st.floats(-2, 2), im0=st.floats(-2, 2),
        re1=st.floats(-2, 2), im1=st.floats(-2, 2),
        phase=st.floats(0, 2 * math.pi), scale=st.floats(0.1, 10),
    )
    def test_rotation_and_scaling_invariance(self, re0, im0, re1, im1, phase, scale):
        y0 = complex(re0, im0)
        y1 = complex(re1, im1)
        metric = np.real(np.conj(y1) * y0 * QPSK.points)
        top = np.sort(metric)
        assume(top[-1] - top[-2] > 1e-6)
        rot = scale * complex(math.cos(phase), math.sin(phase))
        base = demod_psk_frame(pair_frames(y0, y1), QPSK)
        moved = demod_psk_frame(pair_frames(rot * y0, rot * y1), QPSK)
        assert moved == base

    @given(
        re0=st.floats(-2, 2), im0=st.floats(-2, 2),
        re1=st.floats(-2, 2), im1=st.floats(-2, 2),
    )
    def test_binary_rule_is_sign_detection(self, re0, im0, re1, im1):
        bpsk = make_psk(2)
        y0 = complex(re0, im0)
        y1 = complex(re1, im1)
        r = (np.conj(y1) * y0).real
        assume(abs(r) > 1e-12)
        expected = 0 if r > 0 else 1
        assert demod_psk_frame(pair_frames(y0, y1), bpsk)[0] == expected

    def test_frame_matches_scalar(self):
        # each decision depends on its own sample pair only
        rng = make_stream(1, 10)
        idx = rng.integers(0, 4, size=(3, 8))
        v = encode_psk_frame(idx, QPSK)
        h = draw_block_gain(link_at(8.0), rng, size=(3, 1))
        y = h * v + draw_noise(10.0 ** -0.8, rng, size=(3, 9))
        d = demod_psk_frame(y, QPSK)
        for b in range(3):
            for n in range(8):
                assert d[b, n] == demod_psk_frame(y[b, n:n + 2], QPSK)[0]

    @pytest.mark.parametrize("m", range(2, 33))
    def test_frame_matches_argmax_rule(self, m):
        spec = make_psk(m)
        rng = make_stream(4, m)
        idx = rng.integers(0, m, size=(40, 16))
        v = encode_psk_frame(idx, spec)
        h = draw_block_gain(link_at(10.0), rng, size=(40, 1))
        for y in (h * v, h * v + draw_noise(0.1, rng, size=v.shape)):
            z = np.conj(y[..., 1:]) * y[..., :-1]
            expect = np.argmax(np.real(z[..., None] * spec.points), axis=-1)
            np.testing.assert_array_equal(demod_psk_frame(y, spec), expect)
        np.testing.assert_array_equal(demod_psk_frame(h * v, spec), idx)

    @pytest.mark.parametrize("m", [2, 3, 4, 6, 8, 16, 32])
    def test_sector_equals_floor_modulo(self, m):
        # random pair products, and phases on and within 1e-12 rad of every
        # sector edge (where the rounding flips) and of +-pi
        rng = make_stream(5, m)
        edges = -(np.arange(-m, m + 1) + 0.5) * (2.0 * math.pi / m)
        phases = np.concatenate([edges + d for d in (-1e-12, 0.0, 1e-12)]
                                + [[-math.pi, math.pi, 0.0]])
        z = np.concatenate([rng.normal(size=5000) + 1j * rng.normal(size=5000),
                            np.exp(1j * phases) * rng.uniform(0.1, 10.0, size=phases.size)])
        expect = np.rint(np.angle(z) * (-m / (2.0 * math.pi))).astype(np.int64) % m
        np.testing.assert_array_equal(psk_sector(z, m), expect)

    def test_error_rate_matches_density_integration(self):
        # Independent oracle: integrate the conditional differential-detection
        # error rate against the exponential density of the instantaneous SNR.
        snr_db = 15.0
        link = link_at(snr_db)
        m = 4
        gbar = link.avg_snr

        def conditional(theta, gamma):
            a = 1.0 - math.cos(math.pi / m) * math.cos(theta)
            return math.exp(-gamma * a) / a * math.exp(-gamma / gbar) / gbar

        oracle, err = integrate.dblquad(
            conditional, 0.0, 60.0 * gbar, -math.pi / 2, math.pi / 2,
            epsabs=1e-12, epsrel=1e-10,
        )
        oracle *= math.sin(math.pi / m) / (2.0 * math.pi)
        assert err < 1e-8

        n = 1_000_000
        rng = make_stream(3, 15)
        idx = rng.integers(0, m, size=(n, 1))
        v_prev = QPSK.points[rng.integers(0, m, size=n)]
        v = np.stack([v_prev, v_prev * QPSK.points[idx[:, 0]]], axis=-1)
        h = draw_block_gain(link, rng, size=(n, 1))
        y = h * v + draw_noise(link.noise_var, rng, size=(n, 2))
        p = np.count_nonzero(demod_psk_frame(y, QPSK) != idx) / n
        se = math.sqrt(p * (1.0 - p) / n)
        assert abs(p - oracle) < 3.0 * se


def qam_objective_reference(y0, y1, noise_var, points, m):
    vals = []
    for x in points:
        denom = 1.0 + abs(x) ** 2 / m**2
        vals.append(
            math.log(denom) + abs(y1 - y0 * x / m) ** 2 / (denom * noise_var)
        )
    return int(np.argmin(vals))


class TestDemodQam:
    def test_noiseless_recovery(self):
        rng = make_stream(0, 20)
        h = draw_block_gain(link_at(10.0), rng, size=(20, 1))
        idx = rng.integers(0, 16, size=(20, 2))
        y = h * encode_qam_frame(idx, QAM16)
        np.testing.assert_array_equal(demod_qam_frame(y, QAM16, 1e-12), idx)

    def test_constant_modulus_subset_reduces_to_psk_rule(self):
        unit = [i for i, p in enumerate(QAM16.points) if abs(abs(p) - 1.0) < 1e-12]
        assert len(unit) == 8
        rng = make_stream(1, 20)
        sub = QAM16.points[unit]
        for _ in range(50):
            y0, y1 = (complex(a, b) for a, b in rng.normal(size=(2, 2)))
            denom = 1.0 + np.abs(sub) ** 2 / 0.81
            obj = np.log(denom) + np.abs(y1 - y0 * sub / 0.9) ** 2 / (denom * 0.04)
            psk_metric = np.real(np.conj(y1) * y0 * sub)
            assert np.argmin(obj) == np.argmax(psk_metric)

    def test_matches_reference_implementation(self):
        rng = make_stream(2, 20)
        prev_mag = np.concatenate(([1.0], np.abs(QAM16.points)))
        for _ in range(500):
            y0, y1 = (complex(a, b) for a, b in rng.normal(size=(2, 2)))
            row = int(rng.integers(0, 17))
            noise_var = float(10.0 ** rng.uniform(-3, 0))
            got = np.argmin(qam_objective(y0, y1, noise_var, QAM16, row))
            assert got == qam_objective_reference(
                y0, y1, noise_var, QAM16.points, prev_mag[row]
            )

    def test_prev_mag_validation(self):
        y = np.ones((1, 2), dtype=complex)
        with pytest.raises(ValueError):
            demod_qam_frame(y, QAM16, 0.0)
        with pytest.raises(ValueError):
            demod_qam_frame(y, make_psk(4), 1.0)

    def test_frame_chain_matches_scalar_feedback(self):
        rng = make_stream(3, 20)
        noise_var = 10.0 ** -1.5
        idx = rng.integers(0, 16, size=(4, 10))
        v = encode_qam_frame(idx, QAM16)
        h = draw_block_gain(link_at(15.0), rng, size=(4, 1))
        y = h * v + draw_noise(noise_var, rng, size=(4, 11))
        d = demod_qam_frame(y, QAM16, noise_var)
        for b in range(4):
            mag = 1.0
            for n in range(10):
                k = qam_objective_reference(complex(y[b, n]), complex(y[b, n + 1]),
                                            noise_var, QAM16.points, mag)
                assert d[b, n] == k
                mag = abs(QAM16.points[k])

    @pytest.mark.parametrize("m", [8, 16, 32, 64])
    def test_ring_table_objective_matches_pair_objective(self, m):
        spec = make_qam(m)
        rng = make_stream(4, 20, m)
        rows = np.arange(m + 1)
        prev_mag = np.concatenate(([1.0], np.abs(spec.points)))
        y0 = rng.normal(size=(3, m + 1)) + 1j * rng.normal(size=(3, m + 1))
        y1 = rng.normal(size=(3, m + 1)) + 1j * rng.normal(size=(3, m + 1))
        for noise_var in (0.07, np.array([[0.07], [0.3], [1.9]])):
            got = qam_objective(y0, y1, noise_var, spec, rows)
            expect = qam_pair_objective(y0[..., None], y1[..., None],
                                        np.asarray(noise_var)[..., None],
                                        spec.points, prev_mag[:, None])
            assert got.shape == (3, m + 1, m)
            np.testing.assert_allclose(got, expect, rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize("m", [16, 32, 64])
    def test_frame_decisions_match_pair_objective_argmin(self, m):
        spec = make_qam(m)
        rng = make_stream(5, 20, m)
        noise_var = 10.0 ** -2.0
        idx = rng.integers(0, m, size=(6, 24))
        v = encode_qam_frame(idx, spec)
        h = draw_block_gain(link_at(20.0), rng, size=(6, 1))
        y = h * v + draw_noise(noise_var, rng, size=(6, 25))
        got = demod_qam_frame(y, spec, noise_var)
        prev_mag = np.ones(6)
        for n in range(24):
            obj = qam_pair_objective(y[:, n, None], y[:, n + 1, None], noise_var,
                                     spec.points, prev_mag[:, None])
            expect = np.argmin(obj, axis=-1)
            np.testing.assert_array_equal(got[:, n], expect)
            prev_mag = np.abs(spec.points[expect])
        assert np.count_nonzero(got != idx) > 0  # noisy enough to decide wrongly


class TestRelayProcessFrame:
    def test_zero_noise_erroneous_equals_genie(self):
        # a noiseless relay decides every symbol right and forwards the source frame
        rng = make_stream(1, 30)
        for spec, encode in ((QPSK, encode_psk_frame), (QAM16, encode_qam_frame)):
            idx = rng.integers(0, spec.M, size=(3, 12))
            v = encode(idx, spec)
            h = draw_block_gain(link_at(10.0), rng, size=(3, 1))
            y = h * v
            v_err, d_err = relay_process_frame(y, spec, 1e-12)
            np.testing.assert_array_equal(d_err, idx)
            np.testing.assert_allclose(v_err, v, atol=1e-12)

    def test_erroneous_psk_uses_frame_demodulator(self):
        rng = make_stream(2, 30)
        idx = rng.integers(0, 4, size=(2, 16))
        v = encode_psk_frame(idx, QPSK)
        noise_var = 0.3
        h = draw_block_gain(link_at(5.0), rng, size=(2, 1))
        y = h * v + draw_noise(noise_var, rng, size=(2, 17))
        _, decisions = relay_process_frame(y, QPSK, noise_var)
        np.testing.assert_array_equal(decisions, demod_psk_frame(y, QPSK))

    def test_validation(self):
        with pytest.raises(ValueError):
            relay_process_frame(np.ones(1, dtype=complex), QPSK, 0.1)

    def test_frame_error_fraction_consistent_with_calibration(self):
        snr_db = 15.0
        link = link_at(snr_db)
        rng = make_stream(5, 30)
        n_frames = 4000
        idx = rng.integers(0, 4, size=(n_frames, 64))
        v = encode_psk_frame(idx, QPSK)
        h = draw_block_gain(link, rng, size=(n_frames, 1))
        y = h * v + draw_noise(link.noise_var, rng, size=(n_frames, 65))
        _, decisions = relay_process_frame(y, QPSK, link.noise_var)
        frame_counts = np.count_nonzero(decisions != idx, axis=1)
        frac = frame_counts.sum() / decisions.size
        se = np.std(frame_counts, ddof=1) / math.sqrt(n_frames) / 64.0
        reference = analytic_epsilon_psk(link, QPSK)
        assert abs(frac - reference) < 4.0 * se


class TestCalibrateEpsilon:
    def test_high_snr_error_floor_vanishes(self):
        link = link_at(60.0)
        assert analytic_epsilon_psk(link, QPSK) < 1e-4
        est = calibrate_epsilon(link, QPSK, trials=100_000, seed=0)
        assert est.value < 1e-4

    def test_cross_method_agreement(self):
        link = link_at(20.0)
        mc = calibrate_epsilon(link, QPSK, trials=1_000_000, seed=0)
        ana = calibrate_epsilon(link, QPSK, method="analytic_approx")
        combined = math.hypot(mc.std_err, ana.std_err)
        assert abs(mc.value - ana.value) < 3.0 * combined
        assert ana.trials == 0
        assert mc.trials == 1_000_000

    def test_binary_closed_form(self):
        for snr_db in (5.0, 12.0, 25.0):
            link = link_at(snr_db)
            got = analytic_epsilon_psk(link, make_psk(2))
            assert got == pytest.approx(1.0 / (2.0 * (1.0 + link.avg_snr)), rel=1e-10)

    @pytest.mark.parametrize("m", [2, 4, 8, 16, 32])
    def test_closed_form_matches_adaptive_quadrature(self, m):
        for snr_db in range(0, 61, 3):
            link = link_at(float(snr_db))
            got = analytic_epsilon_psk(link, make_psk(m))
            assert got == pytest.approx(dpsk_epsilon_quad(m, link.avg_snr), rel=1e-13, abs=0.0)

    def test_epsilon_inverse_snr_scaling(self):
        products = [
            analytic_epsilon_psk(link_at(s), QPSK) * link_at(s).avg_snr
            for s in (25.0, 30.0, 35.0)
        ]
        assert max(products) / min(products) < 1.25

    def test_qam_monte_carlo_only(self):
        with pytest.raises(ValueError):
            calibrate_epsilon(link_at(20.0), QAM16, method="analytic_approx")
        est = calibrate_epsilon(link_at(20.0), QAM16, trials=50_000, seed=0)
        assert 0.0 < est.value < 0.5

    def test_argument_validation(self):
        with pytest.raises(ValueError):
            calibrate_epsilon(link_at(20.0), QPSK, trials=0)
        with pytest.raises(ValueError):
            calibrate_epsilon(link_at(20.0), QPSK, method="exact")

    def test_reproducible(self):
        a = calibrate_epsilon(link_at(18.0), QPSK, trials=100_000, seed=7)
        b = calibrate_epsilon(link_at(18.0), QPSK, trials=100_000, seed=7)
        assert a == b

    @pytest.mark.parametrize("spec, snr_db, errors", [
        (QPSK, 10.0, 28590), (make_psk(16), 20.0, 38182), (QAM16, 15.0, 59702),
    ])
    def test_pinned_error_counts(self, spec, snr_db, errors):
        # counts of the inline per-candidate DPSK decision this calibration
        # used before it went through demod_psk_frame
        est = calibrate_epsilon(link_at(snr_db), spec, trials=200_000, seed=5)
        assert (est.value, est.trials) == (errors / 200_000, 200_000)


class TestEpsilonTable:
    def test_round_trip_exact(self, tmp_path):
        table = {
            ("psk", 4, 20.0): EpsilonEstimate(
                value=0.017775, trials=1_000_000,
                std_err=0.00013215697,
            ),
            ("qam", 16, 12.5): EpsilonEstimate(
                value=0.33219221100217, trials=50_000,
                std_err=0.002106,
            ),
            ("psk", 2, 10.0): EpsilonEstimate(
                value=1.0 / 22.0, trials=0, std_err=0.0,
            ),
        }
        path = tmp_path / "eps.csv"
        save_epsilon_table(path, table)
        loaded = load_epsilon_table(path)
        assert loaded == table

    def test_header_schema(self, tmp_path):
        path = tmp_path / "eps.csv"
        save_epsilon_table(path, {})
        assert path.read_text().splitlines()[0] == "M,kind,snr_db,epsilon,std_err,trials"
