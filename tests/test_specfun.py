"""Tests for the special-function layer and the series oracle's scalar kernels.

``log_laguerre_neg_table`` is checked against explicit coefficient sums and
the binomial closed form at zero argument.  The incomplete-gamma and Laguerre
evaluators of ``tests/oracles.py`` (the scalar definitions behind the series
oracle) are checked against adaptive quadrature, coefficient sums and
log-domain recurrence identities.
"""

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy import integrate

from diffrelay.specfun import SeriesTruncation, log_laguerre_neg_table
from oracles import (
    _log_lower_gamma_table,
    incomplete_gamma_lower,
    incomplete_gamma_upper,
    laguerre,
    laguerre_generalized,
    log_incomplete_gamma_lower,
    log_incomplete_gamma_upper,
)


class TestIncompleteGamma:
    def test_upper_order_one(self):
        assert incomplete_gamma_upper(1, 0.0) == pytest.approx(1.0, abs=1e-15)
        for y in [0.3, 1.0, 7.5]:
            assert incomplete_gamma_upper(1, y) == pytest.approx(math.exp(-y), rel=1e-14)

    def test_upper_against_quadrature(self):
        val, err = integrate.quad(
            lambda t: t**3 * math.exp(-t), 2.5, 50.0, epsabs=1e-13, epsrel=1e-13
        )
        assert err < 1e-11
        assert incomplete_gamma_upper(4, 2.5) == pytest.approx(val, abs=1e-10)

    def test_lower_order_one(self):
        for y in [0.2, 1.4, 9.0]:
            assert incomplete_gamma_lower(1, y) == pytest.approx(-math.expm1(-y), rel=1e-13)

    def test_lower_at_zero(self):
        for v in [1, 3, 8]:
            assert incomplete_gamma_lower(v, 0.0) == 0.0

    def test_lower_against_quadrature(self):
        val, err = integrate.quad(lambda t: t**2 * math.exp(-t), 0.0, 1.7)
        assert err < 1e-11
        assert incomplete_gamma_lower(3, 1.7) == pytest.approx(val, abs=1e-10)

    @given(st.integers(min_value=1, max_value=20), st.floats(min_value=0.0, max_value=50.0))
    def test_complement_identity(self, v, y):
        total = incomplete_gamma_lower(v, y) + incomplete_gamma_upper(v, y)
        assert total == pytest.approx(math.factorial(v - 1), rel=1e-10)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            incomplete_gamma_upper(0, 1.0)
        with pytest.raises(ValueError):
            incomplete_gamma_upper(3, -0.5)
        with pytest.raises(ValueError):
            incomplete_gamma_lower(-2, 1.0)


def _laguerre_series(n, x):
    return sum((-1) ** i * math.comb(n, n - i) * x**i / math.factorial(i) for i in range(n + 1))


def _laguerre_gen_series(alpha, n, x):
    return sum(
        (-1) ** i * math.comb(n + alpha, n - i) * x**i / math.factorial(i)
        for i in range(n + 1)
    )


class TestLaguerre:
    def test_low_orders(self):
        for x in [-3.0, 0.0, 2.5]:
            assert laguerre(0, x) == 1.0
            assert laguerre(1, x) == pytest.approx(1.0 - x, abs=1e-14)

    def test_against_coefficient_sum(self):
        assert laguerre(5, -2.3) == pytest.approx(_laguerre_series(5, -2.3), rel=1e-12)

    def test_generalized_low_orders(self):
        for alpha in [0, 1, 3]:
            for x in [-1.2, 0.4]:
                assert laguerre_generalized(alpha, 0, x) == 1.0
                assert laguerre_generalized(alpha, 1, x) == pytest.approx(
                    alpha + 1.0 - x, abs=1e-13
                )

    def test_generalized_series_vs_recurrence(self):
        got = laguerre_generalized(2, 4, 1.5)
        assert got == pytest.approx(_laguerre_gen_series(2, 4, 1.5), abs=1e-10)

    def test_generalized_at_zero(self):
        assert laguerre_generalized(3, 5, 0.0) == pytest.approx(math.comb(8, 5), rel=1e-13)

    @given(
        st.integers(min_value=0, max_value=12),
        st.floats(min_value=-8.0, max_value=8.0),
    )
    def test_alpha_zero_reduces_to_plain(self, n, x):
        assert laguerre_generalized(0, n, x) == pytest.approx(laguerre(n, x), abs=1e-12, rel=1e-12)


class TestSeriesTruncation:
    def test_defaults(self):
        trunc = SeriesTruncation()
        assert trunc.max_terms == 200
        assert trunc.rel_tol == 1e-10

    def test_validation(self):
        with pytest.raises(ValueError):
            SeriesTruncation(max_terms=0)
        with pytest.raises(ValueError):
            SeriesTruncation(rel_tol=0.0)
        with pytest.raises(ValueError):
            SeriesTruncation(rel_tol=-1e-3)


class TestLogDomainVariants:
    def test_log_lower_matches_plain(self):
        for v, y in [(1, 0.7), (4, 2.0), (9, 12.0)]:
            assert log_incomplete_gamma_lower(v, y) == pytest.approx(
                math.log(incomplete_gamma_lower(v, y)), abs=1e-10
            )

    def test_log_upper_matches_plain(self):
        for v, y in [(1, 0.7), (4, 2.0), (9, 12.0)]:
            assert log_incomplete_gamma_upper(v, y) == pytest.approx(
                math.log(incomplete_gamma_upper(v, y)), abs=1e-10
            )

    def test_log_upper_deep_tail(self):
        # Gamma(1, y) = e^{-y} exactly, far below float underflow of the
        # regularized form.
        assert log_incomplete_gamma_upper(1, 800.0) == pytest.approx(-800.0, abs=1e-9)

    @pytest.mark.parametrize("v,y", [(5, 0.01), (600, 66.0), (900, 50.0)])
    def test_log_lower_recurrence_identity(self, v, y):
        # gamma(v+1, y) = v*gamma(v, y) - y^v e^{-y}, evaluated in log space.
        a = math.log(v) + log_incomplete_gamma_lower(v, y)
        b = v * math.log(y) - y
        expected = a + math.log1p(-math.exp(b - a))
        assert log_incomplete_gamma_lower(v + 1, y) == pytest.approx(expected, abs=1e-8)

    def test_log_lower_monotone_in_y(self):
        v = 600
        vals = [log_incomplete_gamma_lower(v, y) for y in [40.0, 66.0, 120.0, 400.0]]
        assert all(lo < hi for lo, hi in zip(vals, vals[1:]))

    @pytest.mark.parametrize("y", [0.01, 2.0, 50.0, 66.0])
    def test_series_oracle_gamma_table_matches_scalar(self, y):
        table = _log_lower_gamma_table(900, y)
        assert table[0] == -math.inf
        for v in [1, 2, 5, 40, 600, 900]:
            assert table[v] == pytest.approx(log_incomplete_gamma_lower(v, y), abs=1e-9), v

    def test_laguerre_table_small_values(self):
        x = np.array([0.0, 0.5, 3.0])
        table = log_laguerre_neg_table(6, x)
        for n in range(7):
            for j, xv in enumerate(x):
                assert table[n, j] == pytest.approx(
                    math.log(_laguerre_series(n, -xv)), abs=1e-10
                ), f"n={n} x={xv}"

    def test_laguerre_table_generalized(self):
        x = np.array([0.2, 4.0])
        table = log_laguerre_neg_table(5, x, alpha=3)
        for n in range(6):
            for j, xv in enumerate(x):
                assert table[n, j] == pytest.approx(
                    math.log(_laguerre_gen_series(3, n, -xv)), abs=1e-10
                )

    def test_laguerre_table_at_zero_is_binomial(self):
        table = log_laguerre_neg_table(10, np.array([0.0]), alpha=2)
        for n in range(11):
            assert table[n, 0] == pytest.approx(math.log(math.comb(n + 2, n)), abs=1e-12)

    def test_laguerre_table_huge_argument_finite_and_increasing(self):
        table = log_laguerre_neg_table(300, np.array([1e4]))
        assert np.all(np.isfinite(table))
        assert np.all(np.diff(table[:, 0]) > 0.0)
