"""Tests for differential encoding."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from oracles import diff_encode_stream

from diffrelay.constellation import make_psk, make_qam
from diffrelay.diffmod import encode_psk_frame, encode_qam_frame


class TestDiffState:
    def test_initialization(self):
        # both streams start from v[0] = 1 with |x[0]| taken as 1
        psk, qam = make_psk(4), make_qam(16)
        v = encode_psk_frame(np.array([1]), psk)
        assert v[0] == 1.0 + 0.0j
        w = encode_qam_frame(np.array([3]), qam)
        assert w[0] == 1.0 + 0.0j
        assert w[1] == qam.points[3]


class TestEncodePsk:
    def test_identity_start(self):
        v = encode_psk_frame(np.array([1]), make_psk(4))
        assert v[1] == pytest.approx(1j, abs=1e-15)

    def test_all_ones_is_fixed_point(self):
        v = encode_psk_frame(np.zeros(10, dtype=int), make_psk(4))
        assert np.all(v == 1.0 + 0.0j)

    def test_unit_modulus_closure(self):
        rng = np.random.default_rng(7)
        v = encode_psk_frame(rng.integers(0, 8, size=100), make_psk(8))
        assert np.all(np.abs(np.abs(v) - 1.0) < 1e-12)

    @given(st.integers(min_value=0, max_value=7), st.integers(min_value=1, max_value=50))
    def test_rotation_equivariance(self, shift, length):
        spec = make_psk(8)
        rng = np.random.default_rng(length)
        idx = rng.integers(0, 8, size=length)
        rho = spec.points[shift]
        va = encode_psk_frame(idx, spec)
        vb = encode_psk_frame((idx + shift) % 8, spec)
        n = np.arange(length + 1)
        np.testing.assert_allclose(vb, va * rho**n, rtol=0.0, atol=1e-9)


class TestEncodeQam:
    def test_unrolled_start(self):
        spec = make_qam(16)
        x1 = spec.points[0]
        x2 = spec.points[5]
        v = encode_qam_frame(np.array([0, 5]), spec)
        assert v[1] == pytest.approx(x1, abs=1e-15)
        assert v[2] == pytest.approx(x1 * x2 / abs(x1), abs=1e-14)

    def test_constant_modulus_subsequence(self):
        spec = make_qam(16)
        ring = [k for k, p in enumerate(spec.points)
                if abs(abs(p) - abs(spec.points[0])) < 1e-12]
        v = encode_qam_frame(np.array(ring * 3), spec)
        mags = np.abs(v[1:])
        assert np.allclose(mags, mags[0])

    def test_transmitted_magnitude_tracks_alphabet(self):
        # |v[n]| = |x[n]| exactly, so the empirical transmitted power equals
        # the alphabet's average energy.
        spec = make_qam(16)
        rng = np.random.default_rng(11)
        idx = rng.integers(0, 16, size=(1000, 64))
        v = encode_qam_frame(idx, spec)
        assert np.allclose(np.abs(v[:, 1:]), np.abs(spec.points[idx]), atol=1e-12)
        mean_power = float((np.abs(v[:, 1:]) ** 2).mean())
        assert abs(mean_power - 1.0) < 0.05


class TestFrameEncoders:
    def test_psk_frame_matches_streaming(self):
        spec = make_psk(4)
        rng = np.random.default_rng(3)
        idx = rng.integers(0, 4, size=20)
        frame = encode_psk_frame(idx, spec)
        assert frame[0] == 1.0 + 0.0j
        np.testing.assert_allclose(frame, diff_encode_stream(spec.points[idx]),
                                   rtol=0.0, atol=1e-12)

    def test_qam_frame_matches_streaming(self):
        spec = make_qam(16)
        rng = np.random.default_rng(4)
        idx = rng.integers(0, 16, size=20)
        frame = encode_qam_frame(idx, spec)
        assert frame[0] == 1.0 + 0.0j
        np.testing.assert_allclose(frame, diff_encode_stream(spec.points[idx]),
                                   rtol=0.0, atol=1e-12)

    def test_batch_shapes(self):
        spec = make_psk(8)
        idx = np.zeros((5, 64), dtype=int)
        frame = encode_psk_frame(idx, spec)
        assert frame.shape == (5, 65)
        assert np.all(frame == 1.0 + 0.0j)

    def test_kind_mismatch_rejected(self):
        with pytest.raises(ValueError):
            encode_psk_frame(np.zeros(4, dtype=int), make_qam(16))
        with pytest.raises(ValueError):
            encode_qam_frame(np.zeros(4, dtype=int), make_psk(4))
