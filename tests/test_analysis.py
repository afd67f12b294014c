"""Tests for the analytical pairwise-error-probability module.

Oracles are independent of the implementation: characteristic-function
inversion and event-level Monte Carlo over the full signal model for the
exact error law (the closed form), nested adaptive quadrature for the
Gaussian approximation, and literal term-by-term summation for the
asymptotics.  The paper's averaged series, a regrouped high-order series
averaged by panelled quadrature, is kept as an oracle that pins why the
closed form is the exact law and not that series.
"""

import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import special as sp

from oracles import (
    _cf_averaged,
    _cf_params,
    asymptotic_average_reference,
    asymptotic_conditional_direct,
    cf_pep_total,
    cf_self_check,
    event_monte_carlo,
    gaussian_density_average,
    gaussian_pep_adaptive,
    gaussian_tail_average,
    series_conditional_pep,
    series_middle,
    series_middle_direct,
    series_pep_average,
)

from diffrelay.analysis import (
    PepResult,
    PepTermsConfig,
    SnrPoint,
    _laplace_density,
    _laplace_scales,
    _laplace_tail,
    _legendre_rule,
    _log_factorials,
    _statistic_scales,
    fit_diversity_slope,
    pep_asymptotic_conditional,
    pep_asymptotic_multirelay,
    pep_exact,
    pep_quadrature_approx,
    ser_nearest_neighbor,
)
from diffrelay.channel import LinkParams
from diffrelay.constellation import make_psk, make_qam, nearest_neighbors
from diffrelay.decoders import clip_threshold
from diffrelay.relay import analytic_epsilon_psk
from diffrelay.specfun import SeriesTruncation

QPSK = make_psk(4)
PSK16 = make_psk(16)
EPS = 0.02
THRESHOLD = clip_threshold(4, EPS)

GRID_DB = (8.0, 11.0, 14.0)


def qpsk_cfg(sd_db, rd_db, **kwargs):
    return PepTermsConfig(
        snr_point=SnrPoint.from_db(sd_db, rd_db), eps=EPS, m=4, **kwargs
    )


def closed_at(sd_db, rd_db):
    return pep_exact(QPSK.points[0], QPSK.points[1], qpsk_cfg(sd_db, rd_db))


def event_rate(points, eps, threshold, gbar_sd, gbar_rd, trials, seed):
    """Event Monte Carlo error rate of the pair (0, 1) and its binomial sigma."""
    errors, n = event_monte_carlo(points, 0, 1, eps, threshold, gbar_sd, gbar_rd, trials, seed)
    rate = errors / n
    return rate, math.sqrt(rate * (1.0 - rate) / n)


class TestConfig:
    def test_snr_point_from_db(self):
        pt = SnrPoint.from_db(8.0, 11.0, 14.0)
        assert pt.gamma_sd == pytest.approx(10.0 ** 0.8, rel=1e-12)
        assert pt.gamma_rd == pytest.approx(10.0 ** 1.1, rel=1e-12)
        assert pt.gamma_sr == pytest.approx(10.0 ** 1.4, rel=1e-12)

    def test_snr_point_source_relay_defaults_ideal(self):
        assert SnrPoint.from_db(8.0, 11.0).gamma_sr == math.inf
        assert SnrPoint(gamma_sd=2.0, gamma_rd=3.0).gamma_sr == math.inf

    def test_eps_out_of_range_rejected(self):
        for eps in (0.0, 1.0, -0.1, 1.5):
            with pytest.raises(ValueError):
                PepTermsConfig(snr_point=SnrPoint(2.0, 2.0), eps=eps, m=4)

    def test_eps_above_uniform_rate_rejected(self):
        with pytest.raises(ValueError, match="uniform"):
            PepTermsConfig(snr_point=SnrPoint(2.0, 2.0), eps=0.8, m=4)

    def test_m_validated(self):
        for m in (0, 1, -2):
            with pytest.raises(ValueError):
                PepTermsConfig(snr_point=SnrPoint(2.0, 2.0), eps=0.01, m=m)

    def test_threshold_derived_matches_clip_rule(self):
        cfg = qpsk_cfg(8.0, 8.0)
        assert cfg.threshold == pytest.approx(THRESHOLD, rel=1e-12)

    def test_threshold_consistency_enforced(self):
        # the clip level is derived from (m, eps) and cannot be passed in
        with pytest.raises(TypeError):
            qpsk_cfg(8.0, 8.0, threshold=THRESHOLD)

    def test_pep_result_behaves_like_float(self):
        res = PepResult(0.25, True, ())
        assert float(res) == 0.25
        assert res.converged
        assert res.warnings == ()


class TestExact:
    @settings(deadline=None, max_examples=40)
    @given(gbar=st.floats(0.1, 1e3), grd=st.floats(0.1, 1e3))
    def test_binary_zero_threshold_identity(self, gbar, grd):
        # eps = 1/2 with M = 2 drives the clip threshold to zero, removing the
        # relay branch entirely; the remaining single-link error rate has the
        # elementary closed form 1 / (2 (1 + snr)).
        pts = make_psk(2).points
        cfg = PepTermsConfig(
            snr_point=SnrPoint(gamma_sd=gbar, gamma_rd=grd), eps=0.5, m=2
        )
        val = float(pep_exact(pts[0], pts[1], cfg))
        assert val == pytest.approx(1.0 / (2.0 * (1.0 + gbar)), rel=1e-13)

    @pytest.mark.parametrize("m", [4, 16])
    def test_scales_are_reciprocal_poles_of_averaged_cf(self, m):
        # 1/phi of the fading-averaged CF is quadratic in iu, with zeros at
        # 1/(positive scale) and -1/(negative scale) of t; the route's
        # statistic is X = -t, so its positive scale is t's negative one
        pts = make_psk(m).points
        xbar = pts[1] - pts[0]
        z = np.real(pts * np.conj(xbar))
        for db in (0.0, 10.0, 20.0, 40.0):
            gbar = 10.0 ** (db / 10.0)
            nu, mu = _statistic_scales(z, abs(xbar) ** 2, gbar, exact=True)
            for s in range(m):
                cf = _cf_params(pts, 0, 1, s)
                d_m, d_0, d_p = (
                    (1.0 / _cf_averaged(-1j * v, *cf, gbar)).real for v in (-1.0, 0.0, 1.0)
                )
                poles = np.roots([(d_p + d_m) / 2.0 - d_0, (d_p - d_m) / 2.0, d_0])
                np.testing.assert_allclose(
                    [nu[s], mu[s]], [-1.0 / poles.min(), 1.0 / poles.max()], rtol=1e-12
                )

    def test_matches_characteristic_function_inversion(self):
        for db in (8.0, 20.0):
            gbar = 10.0 ** (db / 10.0)
            val = float(pep_exact(QPSK.points[0], QPSK.points[1], qpsk_cfg(db, db)))
            ref = cf_pep_total(QPSK.points, 0, 1, EPS, THRESHOLD, gbar, gbar)
            assert val == pytest.approx(ref, rel=5e-4)

    def test_matches_event_monte_carlo(self):
        gbar = 10.0 ** 0.8
        val = float(pep_exact(QPSK.points[0], QPSK.points[1], qpsk_cfg(8.0, 8.0)))
        errors, trials = event_monte_carlo(
            QPSK.points, 0, 1, EPS, THRESHOLD, gbar, gbar, 4_000_000, 11
        )
        mc = errors / trials
        sd = math.sqrt(mc * (1.0 - mc) / trials)
        assert abs(val - mc) < 3.5 * sd

    def test_16psk_mixture_matches_event_monte_carlo(self):
        # wide-spaced wrong-symbol hypotheses give sign-indefinite pair
        # coefficients; the exact route must not care
        eps16 = 0.01
        t16 = clip_threshold(16, eps16)
        gbar = 10.0 ** 1.5
        cfg = PepTermsConfig(
            snr_point=SnrPoint(gamma_sd=gbar, gamma_rd=gbar), eps=eps16, m=16
        )
        val = float(pep_exact(PSK16.points[0], PSK16.points[1], cfg))
        errors, trials = event_monte_carlo(
            PSK16.points, 0, 1, eps16, t16, gbar, gbar, 4_000_000, 17
        )
        mc = errors / trials
        sd = math.sqrt(mc * (1.0 - mc) / trials)
        assert abs(val - mc) < 3.5 * sd

    def test_bounded_and_decreasing_in_snr(self):
        vals = [
            float(pep_exact(QPSK.points[0], QPSK.points[1], qpsk_cfg(db, db)))
            for db in (0.0, 6.0, 12.0, 18.0, 24.0)
        ]
        assert all(0.0 < v <= 0.5 for v in vals)
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_cf_oracle_mass_balance(self):
        # the CF oracle itself must describe a proper probability law
        total = cf_self_check(QPSK.points, 0, 1, EPS, THRESHOLD, 10.0 ** 0.8)
        assert total == pytest.approx(1.0, abs=1e-5)


class TestClosedForm:
    """The closed-form route, which the CLI's closed_form overlay reports.

    That route is the exact two-sided-exponential law, not the averaged
    series of the paper's derivation: the series' term-by-term fading
    average is biased at low SNR and needs sign-definite coefficients.
    """

    def test_oracle_equivalence_on_grid(self):
        # strongest correctness statement for the module: the closed form and
        # event-level simulation of the signal model agree to 1e-3 absolute
        # across a 3 x 3 grid of direct and relay link SNRs (1M trials put
        # the worst binomial sigma at 2e-4)
        for i, sd_db in enumerate(GRID_DB):
            for j, rd_db in enumerate(GRID_DB):
                val = float(closed_at(sd_db, rd_db))
                rate, _ = event_rate(
                    QPSK.points, EPS, THRESHOLD, 10.0 ** (sd_db / 10.0),
                    10.0 ** (rd_db / 10.0), 1_000_000, 40 + 3 * i + j,
                )
                assert abs(val - rate) < 1e-3, (sd_db, rd_db, val)

    @pytest.mark.parametrize("m, db", [(4, 0.0), (4, 6.0), (16, 0.0)])
    def test_exact_law_matches_simulation_where_series_does_not(self, m, db):
        # the points the averaged series used to serve in the fig6 overlay:
        # there it sat 17-46 sigma off event simulation (2M trials, seed 5,
        # analytic epsilon); the exact law must stay within 3.5 sigma
        spec = make_psk(m)
        eps = analytic_epsilon_psk(LinkParams(1.0, 10.0 ** (-db / 10.0)), spec)
        gbar = 10.0 ** (db / 10.0)
        cfg = PepTermsConfig(snr_point=SnrPoint(gbar, gbar, gbar), eps=eps, m=m)
        exact = float(pep_exact(spec.points[0], spec.points[1], cfg))
        rate, sigma = event_rate(spec.points, eps, cfg.threshold, gbar, gbar, 2_000_000, 5)
        assert abs(exact - rate) < 3.5 * sigma, (exact - rate) / sigma
        series_args = (spec.points, 0, 1, eps, cfg.threshold, gbar, gbar)
        if m == 16:
            # wide-spaced wrong-symbol hypotheses make the series
            # coefficients sign-indefinite; the series does not apply at all
            with pytest.raises(ValueError, match="positive coefficients"):
                series_pep_average(*series_args)
        else:
            series = series_pep_average(*series_args)
            assert abs(series - rate) > 3.5 * sigma, (series - rate) / sigma

    def test_series_stays_near_exact_law(self):
        # the averaged series approximates the decision statistic's law; a few
        # percent of bias at the low-SNR end is inherent, more is a defect
        series = series_pep_average(
            QPSK.points, 0, 1, EPS, THRESHOLD, 10.0 ** 0.8, 10.0 ** 0.8
        )
        exact = float(closed_at(8.0, 8.0))
        assert abs(series - exact) / exact < 0.1

    def test_symmetry_and_rotation_invariance(self):
        base = float(closed_at(8.0, 8.0))
        swapped = float(pep_exact(QPSK.points[1], QPSK.points[0], qpsk_cfg(8.0, 8.0)))
        rotated = float(pep_exact(QPSK.points[1], QPSK.points[2], qpsk_cfg(8.0, 8.0)))
        assert swapped == pytest.approx(base, rel=1e-10)
        assert rotated == pytest.approx(base, rel=1e-10)

    def test_monotone_decreasing_in_snr(self):
        vals = [float(closed_at(db, db)) for db in (8.0, 11.0, 14.0, 20.0)]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_rejects_points_off_constellation(self):
        with pytest.raises(ValueError):
            pep_exact(0.3 + 0.1j, QPSK.points[1], qpsk_cfg(8.0, 8.0))
        with pytest.raises(ValueError):
            pep_exact(QPSK.points[0], QPSK.points[0], qpsk_cfg(8.0, 8.0))


class TestQuadratureApprox:
    def test_matches_closed_form_at_high_snr(self):
        for db in (20.0, 25.0, 30.0):
            approx = float(
                pep_quadrature_approx(QPSK.points[0], QPSK.points[1], qpsk_cfg(db, db))
            )
            ref = float(closed_at(db, db))
            assert approx == pytest.approx(ref, rel=0.10)

    def test_value_is_a_probability(self):
        res = pep_quadrature_approx(QPSK.points[0], QPSK.points[1], qpsk_cfg(10.0, 10.0))
        assert 0.0 < float(res) < 1.0

    @staticmethod
    def _analytic_cfg(m, db):
        link = LinkParams(sigma2=1.0, noise_var=10.0 ** (-db / 10.0))
        eps = analytic_epsilon_psk(link, make_psk(m))
        return PepTermsConfig(snr_point=SnrPoint.from_db(db, db), eps=eps, m=m)

    def test_matches_adaptive_oracle(self):
        for m in (2, 4, 16):
            pts = make_psk(m).points
            for db in (0.0, 18.0, 36.0):
                cfg = self._analytic_cfg(m, db)
                res = pep_quadrature_approx(pts[0], pts[1], cfg)
                assert res.converged and not res.warnings
                ref = gaussian_pep_adaptive(
                    pts, 0, 1, cfg.eps, cfg.threshold,
                    cfg.snr_point.gamma_sd, cfg.snr_point.gamma_rd,
                )
                assert float(res) == pytest.approx(ref, rel=1e-8)

    @pytest.mark.parametrize("z, scale, gbar", [
        (-1.2, 1.5, 3.0), (0.0, 0.8, 40.0), (0.7, 1.1, 0.5), (-0.3, 2.0, 400.0),
    ])
    def test_laplace_law_matches_gaussian_average(self, z, scale, gbar):
        nu, mu = _laplace_scales(z, scale * scale, gbar)
        for w in (-2.5, -0.4, 0.0, 0.3, 3.0):
            assert float(_laplace_tail(w, nu, mu)) == pytest.approx(
                gaussian_tail_average(w, z, scale, gbar), rel=1e-8, abs=1e-13)
            assert float(_laplace_density(w, nu, mu)) == pytest.approx(
                gaussian_density_average(w, z, scale, gbar), rel=1e-8, abs=1e-13)

    def test_legendre_rule_matches_scipy(self):
        nodes, weights = _legendre_rule()
        ref_nodes, ref_weights = sp.roots_legendre(201)
        np.testing.assert_allclose(nodes, ref_nodes, rtol=0.0, atol=1e-13)
        # absolute: the smallest edge weights, about 1.8e-4, differ by 1e-10 relative,
        # where numpy's are the nearer to an extended-precision Newton refinement
        np.testing.assert_allclose(weights, ref_weights, rtol=0.0, atol=1e-13)

    def test_finite_and_decreasing_at_high_snr(self):
        for m in (4, 32):
            pts = make_psk(m).points
            vals = [float(pep_quadrature_approx(pts[0], pts[1], self._analytic_cfg(m, db)))
                    for db in np.arange(30.0, 61.0, 3.0)]
            assert all(math.isfinite(v) and v > 0.0 for v in vals)
            assert all(a > b for a, b in zip(vals, vals[1:]))


class TestSerNearestNeighbor:
    def test_sums_over_the_neighbor_set(self):
        calls = []

        def fake_pep(x_p, x_q, cfg):
            calls.append((x_p, x_q))
            return PepResult(0.01, True, ("quadrature strained",))

        res = ser_nearest_neighbor(QPSK, fake_pep, qpsk_cfg(8.0, 8.0))
        neigh = nearest_neighbors(QPSK, 0)
        assert len(calls) == len(neigh) == 2
        assert {q for _, q in calls} == {complex(QPSK.points[j]) for j in neigh}
        assert float(res) == pytest.approx(0.02, rel=1e-12)
        assert res.warnings == ("quadrature strained",)

    def test_qpsk_neighbor_terms_equal_by_symmetry(self):
        cfg = qpsk_cfg(15.0, 15.0)
        neigh = nearest_neighbors(QPSK, 0)
        terms = [
            float(pep_exact(complex(QPSK.points[0]), complex(QPSK.points[j]), cfg))
            for j in neigh
        ]
        assert terms[0] == pytest.approx(terms[1], rel=1e-12)
        total = float(ser_nearest_neighbor(QPSK, pep_exact, cfg))
        assert total == pytest.approx(sum(terms), rel=1e-12)

    def test_binary_has_a_single_term(self):
        pts2 = make_psk(2)
        cfg = PepTermsConfig(snr_point=SnrPoint(4.0, 4.0), eps=0.1, m=2)
        total = float(ser_nearest_neighbor(pts2, pep_exact, cfg))
        ref = float(pep_exact(complex(pts2.points[0]), complex(pts2.points[1]), cfg))
        assert total == pytest.approx(ref, rel=1e-14)

    def test_rejects_mismatched_inputs(self):
        with pytest.raises(ValueError):
            ser_nearest_neighbor(make_qam(16), pep_exact, qpsk_cfg(8.0, 8.0))
        with pytest.raises(ValueError):
            ser_nearest_neighbor(make_psk(8), pep_exact, qpsk_cfg(8.0, 8.0))


class TestAsymptotic:
    def test_zero_snr_is_exactly_half(self):
        for n in range(4):
            res = pep_asymptotic_conditional(QPSK.points[0], QPSK.points[1], n, 0.0)
            assert float(res) == pytest.approx(0.5, abs=1e-12)
            assert res.converged

    def test_conditional_matches_direct_summation(self):
        trunc = SeriesTruncation(max_terms=8192, rel_tol=1e-12)
        for n in (1, 2, 3):
            for gamma_t in (0.5, 5.0, 50.0):
                val = float(
                    pep_asymptotic_conditional(
                        QPSK.points[0], QPSK.points[1], n, gamma_t, truncation=trunc
                    )
                )
                ref = asymptotic_conditional_direct(
                    QPSK.points[0], QPSK.points[1], n, gamma_t
                )
                assert val == pytest.approx(ref, rel=1e-9)

    def test_multirelay_matches_quadrature_reference(self):
        trunc = SeriesTruncation(max_terms=8192, rel_tol=1e-12)
        for n, db in ((1, 15.0), (2, 18.0)):
            gbar = 10.0 ** (db / 10.0)
            cfg = qpsk_cfg(db, db, truncation=trunc)
            val = float(
                pep_asymptotic_multirelay(QPSK.points[0], QPSK.points[1], n, gbar, cfg)
            )
            ref = asymptotic_average_reference(QPSK.points[0], QPSK.points[1], n, gbar)
            assert val == pytest.approx(ref, rel=1e-6)

    def test_flags_exhausted_budget(self):
        res = pep_asymptotic_multirelay(
            QPSK.points[0], QPSK.points[1], 2, 10.0 ** 1.8,
            qpsk_cfg(18.0, 18.0, truncation=SeriesTruncation(max_terms=64, rel_tol=1e-12)),
        )
        assert not res.converged
        assert res.warnings
        tight = pep_asymptotic_conditional(
            QPSK.points[0], QPSK.points[1], 1, 50.0,
            truncation=SeriesTruncation(max_terms=8, rel_tol=1e-12),
        )
        assert not tight.converged

    def test_multirelay_decreasing_in_snr_and_diversity(self):
        trunc = SeriesTruncation(max_terms=8192, rel_tol=1e-12)
        by_snr = [
            float(pep_asymptotic_multirelay(
                QPSK.points[0], QPSK.points[1], 2, 10.0 ** (db / 10.0),
                qpsk_cfg(db, db, truncation=trunc)))
            for db in (15.0, 18.0, 21.0)
        ]
        assert all(a > b for a, b in zip(by_snr, by_snr[1:]))
        n3 = float(pep_asymptotic_multirelay(
            QPSK.points[0], QPSK.points[1], 3, 10.0 ** 1.8,
            qpsk_cfg(18.0, 18.0, truncation=trunc)))
        assert n3 < by_snr[1]

    def test_log_factorials_match_scipy_as_the_table_grows(self):
        small = _log_factorials(40).copy()
        deep = _log_factorials(200_000)
        np.testing.assert_array_equal(deep[:41], small)
        k = np.arange(deep.size, dtype=float)
        np.testing.assert_allclose(deep, sp.gammaln(k + 1.0), rtol=1e-14, atol=1e-15)
        assert _log_factorials(10).size == 11

    def test_input_validation(self):
        with pytest.raises(ValueError):
            pep_asymptotic_conditional(QPSK.points[0], QPSK.points[1], -1, 1.0)
        with pytest.raises(ValueError):
            pep_asymptotic_conditional(QPSK.points[0], QPSK.points[1], 1, -1.0)
        with pytest.raises(ValueError):
            pep_asymptotic_multirelay(
                QPSK.points[0], QPSK.points[1], 0, 10.0, qpsk_cfg(10.0, 10.0)
            )
        with pytest.raises(ValueError):
            pep_asymptotic_conditional(1.0 + 0.0j, 0.5 + 0.0j, 1, 1.0)


class TestDiversitySlope:
    @settings(deadline=None, max_examples=40)
    @given(slope=st.floats(0.5, 4.0), level=st.floats(-4.0, -1.0))
    def test_recovers_synthetic_slope(self, slope, level):
        snr = np.arange(15.0, 31.0, 3.0)
        ser = 10.0 ** (level - slope * snr / 10.0)
        curve = SimpleNamespace(
            snr_db=snr, ser=ser, ci_low=ser * 0.95, ci_high=ser * 1.05
        )
        fitted = fit_diversity_slope(curve, (15.0, 30.0))
        assert fitted == pytest.approx(slope, abs=1e-9)

    def test_works_without_confidence_intervals(self):
        snr = np.array([10.0, 13.0, 16.0])
        curve = SimpleNamespace(snr_db=snr, ser=10.0 ** (-snr / 10.0))
        assert fit_diversity_slope(curve, (10.0, 16.0)) == pytest.approx(1.0, abs=1e-9)

    def test_refuses_sparse_window(self):
        curve = SimpleNamespace(
            snr_db=np.array([10.0, 20.0, 30.0]), ser=np.array([1e-1, 1e-2, 1e-3])
        )
        with pytest.raises(ValueError, match="at least 3"):
            fit_diversity_slope(curve, (15.0, 25.0))

    def test_refuses_noisy_estimates(self):
        snr = np.array([10.0, 13.0, 16.0])
        ser = 10.0 ** (-snr / 10.0)
        curve = SimpleNamespace(
            snr_db=snr, ser=ser, ci_low=ser * 0.5, ci_high=ser * 2.0
        )
        with pytest.raises(ValueError, match="confidence interval"):
            fit_diversity_slope(curve, (10.0, 16.0))

    def test_refuses_nonpositive_rates_and_bad_windows(self):
        curve = SimpleNamespace(
            snr_db=np.array([10.0, 13.0, 16.0]), ser=np.array([1e-1, 0.0, 1e-3])
        )
        with pytest.raises(ValueError):
            fit_diversity_slope(curve, (10.0, 16.0))
        good = SimpleNamespace(
            snr_db=np.array([10.0, 13.0, 16.0]), ser=np.array([1e-1, 1e-2, 1e-3])
        )
        with pytest.raises(ValueError):
            fit_diversity_slope(good, (16.0, 10.0))


class TestConditionalSpotChecks:
    """Fixed-channel checks of the conditional building blocks."""

    def test_event_monte_carlo_matches_cf_at_fixed_snr(self):
        ref = cf_pep_total(
            QPSK.points, 0, 1, EPS, THRESHOLD, gamma_sd=2.0, gamma_rd=2.0
        )
        errors, trials = event_monte_carlo(
            QPSK.points, 0, 1, EPS, THRESHOLD, 2.0, 2.0, 2_000_000, 7,
            conditional=True,
        )
        mc = errors / trials
        sd = math.sqrt(mc * (1.0 - mc) / trials)
        assert abs(ref - mc) < 3.5 * sd

    def test_conditional_series_tracks_true_law_loosely(self):
        # the conditional series is an approximation whose left-tail error
        # peaks near the clip threshold; at working SNRs it stays within tens
        # of percent of the inverted CF and improves from there
        gamma = 10.0 ** 1.1
        approx = series_conditional_pep(
            QPSK.points, 0, 1, EPS, THRESHOLD, gamma, gamma
        )
        ref = cf_pep_total(
            QPSK.points, 0, 1, EPS, THRESHOLD, gamma_sd=gamma, gamma_rd=gamma
        )
        assert abs(approx - ref) / ref < 0.25

    def test_middle_sum_regrouping_is_exact(self):
        direct = series_middle_direct(
            QPSK.points, 0, 1, EPS, THRESHOLD, 1.8, 2.2, 22, 20
        )
        regrouped = series_middle(
            QPSK.points, 0, 1, EPS, THRESHOLD, 1.8, 2.2, k_rd=22, k_sd=20
        )
        assert regrouped == pytest.approx(direct, rel=1e-10)
