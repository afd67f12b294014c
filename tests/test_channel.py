"""Tests for fading links, AWGN, and reproducible random streams."""

import numpy as np
import pytest
from scipy import stats

from diffrelay.channel import (
    LinkParams,
    draw_block_gain,
    draw_noise,
    make_stream,
)
from diffrelay.constellation import make_psk


class TestLinkParams:
    def test_avg_snr(self):
        link = LinkParams(sigma2=1.0, noise_var=0.01)
        assert link.avg_snr == pytest.approx(100.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            LinkParams(sigma2=0.0, noise_var=0.1)
        with pytest.raises(ValueError):
            LinkParams(sigma2=1.0, noise_var=0.0)


class TestStreams:
    def test_same_path_reproduces(self):
        a = make_stream(7, 3, 1, 4).standard_normal(100)
        b = make_stream(7, 3, 1, 4).standard_normal(100)
        np.testing.assert_array_equal(a, b)

    def test_distinct_paths_differ(self):
        a = make_stream(7, 3, 1, 4).standard_normal(100)
        b = make_stream(7, 3, 1, 5).standard_normal(100)
        c = make_stream(8, 3, 1, 4).standard_normal(100)
        assert not np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_draw_order_does_not_couple_streams(self):
        rng1 = make_stream(0, 1)
        rng2 = make_stream(0, 2)
        first = rng2.standard_normal(10)
        rng1.standard_normal(1000)
        again = make_stream(0, 2).standard_normal(10)
        np.testing.assert_array_equal(first, again)

    def test_path_validation(self):
        with pytest.raises(ValueError):
            make_stream(0, 1, 2, 3, 4)
        with pytest.raises(ValueError):
            make_stream(0, -1)

    @pytest.mark.parametrize("seed", [-1, 2**64, 2**64 + 7])
    def test_seed_outside_64_bits_refused(self, seed):
        # these used to be masked to 64 bits, giving the streams of another seed
        with pytest.raises(ValueError, match=r"seed must lie in \[0, 2\*\*64\)"):
            make_stream(seed, 1)
        assert make_stream(2**64 - 1, 1).random() != make_stream(0, 1).random()


class TestBlockGain:
    def test_degenerate_variance(self):
        link = LinkParams(sigma2=1e-30, noise_var=0.1)
        h = draw_block_gain(link, make_stream(0, 0))
        assert isinstance(h, complex)
        assert abs(h) < 1e-13

    def test_mean_power_matches_sigma2(self):
        link = LinkParams(sigma2=2.5, noise_var=0.1)
        h = draw_block_gain(link, make_stream(1, 0), size=1_000_000)
        assert np.mean(np.abs(h) ** 2) == pytest.approx(2.5, rel=0.01)

    def test_instantaneous_snr_is_exponential(self):
        link = LinkParams(sigma2=1.0, noise_var=10 ** (-1.2))
        h = draw_block_gain(link, make_stream(2, 0), size=100_000)
        inst_snr = np.abs(h) ** 2 / link.noise_var
        ks = stats.kstest(inst_snr, "expon", args=(0.0, link.avg_snr))
        assert ks.statistic < 0.01

    def test_real_imag_balance(self):
        link = LinkParams(sigma2=1.0, noise_var=0.1)
        h = draw_block_gain(link, make_stream(3, 0), size=200_000)
        assert np.var(h.real) == pytest.approx(0.5, rel=0.02)
        assert np.var(h.imag) == pytest.approx(0.5, rel=0.02)
        assert abs(np.mean(h.real * h.imag)) < 0.005


class TestDrawsInPlace:
    """Draws written into a given array match rng.normal's, bit for bit."""

    @pytest.mark.parametrize("size", [None, 7, (3, 5)])
    def test_same_draws_as_normal(self, size):
        for draw, var in ((draw_noise, 0.3), (lambda v, rng, **kw: draw_block_gain(
                LinkParams(v, 1.0), rng, **kw), 0.7)):
            rng = make_stream(8, 1)
            scale = np.sqrt(var / 2.0)
            expect = rng.normal(0.0, scale, size) + 1j * rng.normal(0.0, scale, size)
            after = rng.standard_normal()
            rng = make_stream(8, 1)
            got = draw(var, rng, size=size)
            assert rng.standard_normal() == after  # the same draws consumed
            np.testing.assert_array_equal(np.reshape(got, -1).view(np.int64),
                                          np.reshape(expect, -1).view(np.int64))
            if size is not None:
                stack = np.zeros((3,) + np.shape(got), dtype=complex)
                row = stack[1]
                assert draw(var, make_stream(8, 1), size=size, out=row) is row
                np.testing.assert_array_equal(row.view(np.int64), got.view(np.int64))
                assert not stack[0].any() and not stack[2].any()

    def test_out_must_match_size(self):
        with pytest.raises(ValueError):
            draw_noise(0.1, make_stream(8, 2), size=3, out=np.empty(4, dtype=complex))


class TestTransmit:
    # a link's output is y = h * v + e, as the simulator forms it

    def test_pure_noise_variance(self):
        y = draw_noise(0.4, make_stream(4, 0), size=1_000_000)
        assert np.var(y) == pytest.approx(0.4, rel=0.01)

    def test_fixed_gain_mean(self):
        n = 1_000_000
        noise_var = 0.25
        h = 0.6 + 0.5j
        y = h * np.ones(n, dtype=complex) + draw_noise(noise_var, make_stream(5, 0), size=n)
        three_sigma = 3.0 * np.sqrt(noise_var / n)
        assert abs(np.mean(y) - h) < three_sigma

    def test_differential_noise_variance_doubles(self):
        # A unit-modulus differential receiver sees e[n] - e[n-1]*x[n], whose
        # variance is twice the per-sample noise variance.
        n = 1_000_001
        noise_var = 0.3
        spec = make_psk(4)
        rng = make_stream(6, 0)
        e = draw_noise(noise_var, rng, size=n)
        x = spec.points[rng.integers(0, 4, size=n - 1)]
        e_diff = e[1:] - e[:-1] * x
        assert np.var(e_diff) == pytest.approx(2.0 * noise_var, rel=0.02)

    def test_broadcasting(self):
        h = np.array([[1.0 + 0j], [2.0 + 0j]])
        v = np.ones((1, 5), dtype=complex)
        y = h * v + draw_noise(0.1, make_stream(7, 0), size=np.broadcast(h, v).shape)
        assert y.shape == (2, 5)
