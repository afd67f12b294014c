"""Analytical pairwise error probabilities for the clipped-combiner decoder.

Everything here evaluates the single-relay destination test

    decide x_p over x_q  iff  t0 + clip(t, T) > 0

where t0 and t are the source-destination and relay-destination differential
correlation statistics and T is the clip level tied to the relay error rate.
Three evaluators with different accuracy/cost trade-offs are provided:

``pep_closed_form``
    Exponential averages of the conditional series expansions, organised as
    grouped triple sums.  Exact up to truncation where the series applies;
    the series genuinely diverges for dense constellations at high SNR (the
    term-by-term average of a conditionally convergent expansion), in which
    case the result is flagged and the value comes from ``pep_exact``.

``pep_exact``
    Closed form with no truncation at all: averaged over Rayleigh fading each
    statistic is an indefinite Hermitian quadratic form in a zero-mean complex
    Gaussian pair, so its unconditional law is two-sided exponential with
    rates from a 2x2 eigenvalue problem, and every probability piece reduces
    to elementary exponential integrals.  Requires equal-modulus symbols.

``pep_quadrature_approx``
    The Gaussian-statistic approximation.  Averaged over Rayleigh fading a
    conditionally Gaussian statistic is asymmetric-Laplace, so its tails and
    density are closed form; only the clip-region integral over [-T, T] runs
    on a fixed 201-node Gauss-Legendre rule.  Cheap and applicable to any
    PSK alphabet, accurate to a few percent at high SNR.

``pep_asymptotic_conditional`` / ``pep_asymptotic_multirelay`` cover the
high-SNR multirelay error floor, and ``fit_diversity_slope`` extracts
diversity orders from SER curves.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
from scipy import special as sp

from .constellation import ConstellationSpec, make_psk, nearest_neighbors
from .decoders import clip_threshold
from .specfun import (
    SeriesTruncation,
    log_incomplete_gamma_lower,
    log_incomplete_gamma_upper,
)

_LN2 = math.log(2.0)
# A geometric-ratio bound this close to 1 means thousands of terms for no
# better accuracy than the exact evaluation, so treat it as infeasible.
_RATIO_MARGIN = 0.97
# Fixed-order Gauss-Legendre rule for the clip-region integrals; odd order
# puts a node at w = 0 where the integrand peaks.
_W_NODES = 201
_POINT_MATCH_TOL = 1e-9


# ---------------------------------------------------------------------------
# configuration types


@dataclass(frozen=True)
class SnrPoint:
    """Mean link SNRs in linear scale.

    ``gamma_sr`` may be infinite (error-free relay reception); the destination
    links must be finite and positive.
    """

    gamma_sd: float
    gamma_rd: float
    gamma_sr: float = math.inf

    def __post_init__(self) -> None:
        for name in ("gamma_sd", "gamma_rd"):
            v = getattr(self, name)
            if not (math.isfinite(v) and v > 0.0):
                raise ValueError(f"{name} must be finite and > 0, got {v!r}")
        if not (self.gamma_sr > 0.0):
            raise ValueError(f"gamma_sr must be > 0, got {self.gamma_sr!r}")

    @classmethod
    def from_db(cls, sd_db: float, rd_db: float, sr_db: float | None = None) -> "SnrPoint":
        sr = math.inf if sr_db is None else 10.0 ** (float(sr_db) / 10.0)
        return cls(10.0 ** (float(sd_db) / 10.0), 10.0 ** (float(rd_db) / 10.0), sr)


@dataclass(frozen=True)
class PepTermsConfig:
    """Inputs shared by all pairwise-error-probability evaluators.

    ``threshold`` defaults to the clip level implied by ``(m, eps)``; passing
    an inconsistent value is rejected rather than silently accepted, because
    the series coefficients and the decoder must agree on the clip point.
    """

    snr_point: SnrPoint
    eps: float
    m: int
    threshold: float | None = None
    truncation: SeriesTruncation = SeriesTruncation()

    def __post_init__(self) -> None:
        if int(self.m) != self.m or self.m < 2:
            raise ValueError(f"m must be an integer >= 2, got {self.m!r}")
        object.__setattr__(self, "m", int(self.m))
        if not (0.0 < self.eps < 1.0):
            raise ValueError(f"eps must lie in (0, 1), got {self.eps!r}")
        derived = clip_threshold(self.m, self.eps)
        if derived < 0.0:
            raise ValueError(
                f"eps = {self.eps} exceeds the uniform-error rate for m = {self.m}; "
                "the clip level would be negative"
            )
        if self.threshold is None:
            object.__setattr__(self, "threshold", derived)
        else:
            t = float(self.threshold)
            if not math.isfinite(t) or t < 0.0:
                raise ValueError(f"threshold must be finite and >= 0, got {t!r}")
            if abs(t - derived) > 1e-6 * max(1.0, derived):
                raise ValueError(
                    f"threshold = {t} is inconsistent with the clip level "
                    f"{derived} implied by (m = {self.m}, eps = {self.eps})"
                )
            object.__setattr__(self, "threshold", t)


@dataclass(frozen=True)
class PepResult:
    """Value plus convergence status of one evaluation.

    ``converged`` is False when a series was truncated before settling;
    ``warnings`` say which and why.  The
    value is always the best available number, never NaN.
    """

    value: float
    converged: bool = True
    warnings: tuple[str, ...] = ()

    def __float__(self) -> float:
        return float(self.value)


# ---------------------------------------------------------------------------
# shared geometry


def _locate(points: np.ndarray, x: complex, name: str) -> int:
    dist = np.abs(points - complex(x))
    idx = int(np.argmin(dist))
    if dist[idx] > _POINT_MATCH_TOL:
        raise ValueError(f"{name} = {complex(x)!r} is not a constellation point")
    return idx


def _pair_coefficients(points: np.ndarray, p: int, q: int):
    """Exponent coefficient arrays for the pair decision (p over q).

    For every constellation symbol s, ``b[s] = 2(2|xbar|^2 + beta_s)`` and
    ``c[s] = 2(2|xbar|^2 - beta_s)`` with ``beta_s = 2 Re{x_s xbar*}`` and
    ``xbar = x_p - x_q``; b and c sum to ``8|xbar|^2`` identically.
    """
    xbar = complex(points[p] - points[q])
    abs2 = abs(xbar) ** 2
    beta = 2.0 * np.real(points * np.conj(xbar))
    b = 2.0 * (2.0 * abs2 + beta)
    c = 2.0 * (2.0 * abs2 - beta)
    return xbar, abs2, beta, b, c


def _signed_log(x: float) -> tuple[float, float]:
    if x == 0.0:
        return -math.inf, 0.0
    return math.log(abs(x)), math.copysign(1.0, x)


def _log_sum_signed(log_terms: np.ndarray, signs: np.ndarray) -> tuple[float, float]:
    if log_terms.size == 0:
        return -math.inf, 0.0
    total, sign = sp.logsumexp(log_terms, b=signs, return_sign=True)
    return float(total), float(sign)


def _signed_log_add(acc_log, acc_sign, add_log, add_sign) -> None:
    """Elementwise signed log-domain accumulation, in place on acc."""
    hi = np.maximum(acc_log, add_log)
    hi_safe = np.where(np.isfinite(hi), hi, 0.0)
    with np.errstate(under="ignore"):
        s = acc_sign * np.exp(acc_log - hi_safe) + add_sign * np.exp(add_log - hi_safe)
    with np.errstate(divide="ignore"):
        acc_log[...] = np.where(np.isfinite(hi), hi_safe + np.log(np.abs(s)), -np.inf)
    acc_sign[...] = np.sign(s)


# ---------------------------------------------------------------------------
# grouped-series kernel for the exponential averages
#
# Every averaged series used below is a triple sum over an outer offset d and
# inner indices (n, i2 <= n) of
#
#   sign(Y)^(n+d) sign(X)^i2 * exp( pref + extra[d]
#       + (n+d)(log|Y| - k_denom) - log (n+d)!
#       - n * n_denom
#       + log C(n, i2) + i2 log|X| - log i2! - 3 i2 log 2
#       + log Gamma(n + d + i2 + 1) - (n + d + i2 + 1) log base )
#
# with base = 2|xbar|^2 - X/8 + 1/gbar.  The families differ only in the
# denominators, the prefactor, and the per-row weight ``extra``.
#
# The double inner sum is evaluated for all rows at once as a scaled matrix
# product: the (n, s = n + i2) grid of inner coefficients depends only on
# (X, n_denom) and the (s, d) table of Gamma(s + d + 1) / base^(s + d + 1)
# only on base, so their product collapses the i2 index for every (n, d) in
# one BLAS call.  Per-row and per-column log offsets keep both factors
# inside float64 range; signs ride along in the linear-domain factors.


class _SeriesRows:
    __slots__ = ("log", "sign", "inner_truncated", "outer_truncated", "peak")

    def __init__(self, log, sign, inner_truncated, outer_truncated, peak):
        self.log = log
        self.sign = sign
        self.inner_truncated = inner_truncated
        self.outer_truncated = outer_truncated
        self.peak = peak


def _lower_gamma_log_table(v_max: int, y: float) -> np.ndarray:
    """log of the lower incomplete gamma at integer orders 1..v_max."""
    out = np.full(v_max + 1, -np.inf)
    if y > 0.0:
        for v in range(1, v_max + 1):
            out[v] = log_incomplete_gamma_lower(v, y)
    return out


def _upper_gamma_log_table(v_max: int, y: float) -> np.ndarray:
    out = np.zeros(v_max + 1)
    for v in range(1, v_max + 1):
        out[v] = log_incomplete_gamma_upper(v, y)
    return out


class _AveragedEngine:
    """One evaluation context of the averaged series at a fixed inner order.

    Groups the ten probability pieces around three row families sharing the
    kernel: the single-statistic tail averages, the clip-region factors on
    the relay side (rows paired with the coupling table H), and those on the
    source side.  Rows are cached per (family, X, Y, link) so repeated pieces
    reuse work.
    """

    def __init__(self, abs2, threshold, gamma_sd, gamma_rd, n_max, rel_tol):
        self.abs2 = abs2
        self.t = threshold
        self.gsd = gamma_sd
        self.grd = gamma_rd
        self.n_max = n_max
        self.rel_tol = rel_tol
        self.flags: list[str] = []
        self.truncated = False
        self.peak = -math.inf
        self._rows_cache: dict[tuple, _SeriesRows] = {}
        self._e_cache: dict[tuple, tuple] = {}
        self._g_cache: dict[float, tuple] = {}
        self._eg_cache: dict[tuple, tuple] = {}
        k = n_max
        self._n = np.arange(k + 1)
        self._s = np.arange(2 * k + 1)
        self._lg = sp.gammaln(np.arange(3 * k + 3, dtype=float))
        vmax = 2 * k + 2
        self._lgl_4t = _lower_gamma_log_table(vmax, 4.0 * threshold)
        self._lgl_2t = _lower_gamma_log_table(vmax, 2.0 * threshold)
        self._lgu_2t = _upper_gamma_log_table(k + 1, 2.0 * threshold)
        d = self._n
        # Per-row weights: tail family carries Gamma(d+1, 2T)/d!, the
        # relay-side clip family carries 1/d!.
        self._extra_tail = self._lgu_2t[d + 1] - self._lg[d + 1]
        self._extra_alpha = -self._lg[d + 1]
        self._extra_none = np.zeros(k + 1)

    def _e_matrix(self, x: float, n_denom_log: float) -> tuple:
        """Inner-coefficient log grid over (n, s = n + i2), with sign flips."""
        key = (round(x, 12), round(n_denom_log, 12))
        hit = self._e_cache.get(key)
        if hit is not None:
            return hit
        x_log, x_sign = _signed_log(x)
        n = self._n
        lg = self._lg
        i2 = self._s[None, :] - n[:, None]
        valid = (i2 >= 0) & (i2 <= n[:, None])
        i2c = np.where(valid, i2, 0)
        log_choose = lg[n[:, None] + 1] - lg[i2c + 1] - lg[n[:, None] - i2c + 1]
        x_term = np.where(i2c == 0, 0.0, i2c * (x_log - 3.0 * _LN2))
        e_log = log_choose + x_term - lg[i2c + 1] - (n * n_denom_log)[:, None]
        e_log[~valid] = -np.inf
        flip = None
        if x_sign < 0.0:
            flip = (i2c % 2 != 0) & valid
        out = (e_log, flip)
        self._e_cache[key] = out
        return out

    def _g_matrix(self, base: float) -> np.ndarray:
        """log of Gamma(s + d + 1) / base^(s + d + 1) over (s, d)."""
        key = round(math.log(base), 14)
        hit = self._g_cache.get(key)
        if hit is not None:
            return hit
        log_base = math.log(base)
        sd1 = self._s[:, None] + self._n[None, :] + 1
        g_log = self._lg[sd1] - sd1 * log_base
        self._g_cache[key] = g_log
        return g_log

    def _eg(self, x: float, n_denom_log: float, base: float) -> tuple:
        """Signed and absolute log inner sums over i2, for every (n, d).

        The s axis is swept in blocks so each partial product can be scaled
        by its own block-local row and column peaks; a single global scaling
        would underflow because the two factors peak at distant s.  Blocks
        are combined elementwise in signed log domain.  Within one block the
        product's log slope along s is the difference of two bounded slopes,
        so the block peak stays within float64 range of the local scales.
        """
        key = (round(x, 12), round(n_denom_log, 12), round(base, 14))
        hit = self._eg_cache.get(key)
        if hit is not None:
            return hit
        e_log, flip = self._e_matrix(x, n_denom_log)
        g_log = self._g_matrix(base)
        shape = (self._n.size, self._n.size)
        acc_log = np.full(shape, -np.inf)
        acc_sign = np.ones(shape)
        abs_log = np.full(shape, -np.inf)
        block = 64
        for s0 in range(0, self._s.size, block):
            sl = slice(s0, min(s0 + block, self._s.size))
            eb = e_log[:, sl]
            gb = g_log[sl, :]
            rmax = np.max(eb, axis=1)
            live = np.isfinite(rmax)
            rmax_safe = np.where(live, rmax, 0.0)
            cmax = np.max(gb, axis=0)
            with np.errstate(under="ignore"):
                e_blk = np.exp(eb - rmax_safe[:, None])
                g_blk = np.exp(gb - cmax[None, :])
            e_blk[~live, :] = 0.0
            if flip is None:
                p = e_blk @ g_blk
                p_abs = p
            else:
                a_blk = e_blk.copy()
                e_blk = e_blk * np.where(flip[:, sl], -1.0, 1.0)
                p = e_blk @ g_blk
                p_abs = a_blk @ g_blk
            offset = rmax_safe[:, None] + cmax[None, :]
            with np.errstate(divide="ignore"):
                p_log = np.log(np.abs(p)) + offset
                pa_log = np.log(p_abs) + offset
            _signed_log_add(acc_log, acc_sign, p_log, np.sign(p))
            np.logaddexp(abs_log, pa_log, out=abs_log)
        out = (acc_log, acc_sign, abs_log)
        self._eg_cache[key] = out
        return out

    def _series_rows(
        self,
        y: float,
        x: float,
        base: float,
        pref_log: float,
        k_denom_log: float,
        n_denom_log: float,
        extra_log: np.ndarray,
    ) -> _SeriesRows:
        eg_log, eg_sign, eg_abs_log = self._eg(x, n_denom_log, base)
        y_log, y_sign = _signed_log(y)
        n = self._n
        nd = n[:, None] + n[None, :]
        y_term = np.where(nd == 0, 0.0, nd * (y_log - k_denom_log))
        f_log = y_term - self._lg[nd + 1]
        m_log = f_log + eg_log
        m_abs = f_log + eg_abs_log
        m_sign = eg_sign
        if y_sign < 0.0:
            m_sign = m_sign * np.where(nd % 2 != 0, -1.0, 1.0)
        col_log, col_sign = sp.logsumexp(m_log, axis=0, b=m_sign, return_sign=True)
        rows_log = pref_log + extra_log + col_log
        abs_cols = sp.logsumexp(m_abs, axis=0)
        peak = pref_log + float(np.max(extra_log + np.max(m_abs, axis=0)))
        log_tol = math.log(self.rel_tol)
        # The last inner row or the last outer row still carrying weight
        # means the cap, not convergence, ended the sum.
        inner_truncated = bool(np.any(m_abs[-1, :] > abs_cols + log_tol - 2.3))
        abs_rows = pref_log + extra_log + abs_cols
        total_abs = float(sp.logsumexp(abs_rows))
        outer_truncated = bool(abs_rows[-1] > total_abs + log_tol - 2.3)
        return _SeriesRows(rows_log, col_sign, inner_truncated, outer_truncated, peak)

    def _rows(self, family: str, x: float, y: float, gbar: float) -> _SeriesRows:
        key = (family, round(x, 12), round(y, 12), gbar)
        hit = self._rows_cache.get(key)
        if hit is not None:
            return hit
        base = 2.0 * self.abs2 - x / 8.0 + 1.0 / gbar
        if family == "tail":
            rows = self._series_rows(
                y, x, base, -_LN2 - math.log(gbar), 2.0 * _LN2, _LN2, self._extra_tail
            )
        elif family == "alpha":
            rows = self._series_rows(
                y, x, base, -math.log(gbar), _LN2, 2.0 * _LN2, self._extra_alpha
            )
        else:
            rows = self._series_rows(
                y, x, base, -_LN2 - math.log(gbar), 2.0 * _LN2, _LN2, self._extra_none
            )
        if rows.inner_truncated or rows.outer_truncated:
            self.truncated = True
        if rows.outer_truncated:
            self.flags.append(
                f"{family} series rows still significant at the cap d = {self.n_max}"
            )
        self._rows_cache[key] = rows
        return rows

    def tail_average(self, a_pow: float, a_base: float, gbar: float) -> float:
        """Average over the fading density of one conditional tail."""
        rows = self._rows("tail", a_base, a_pow, gbar)
        total, sign = _log_sum_signed(rows.log, rows.sign)
        self.peak = max(self.peak, rows.peak)
        if np.isfinite(rows.peak) and rows.peak - total > 34.0 and np.any(rows.sign < 0):
            self.flags.append("severe cancellation in a tail series")
        return sign * math.exp(total)

    def _h_matrix(self, n_rows: int, n_cols: int) -> np.ndarray:
        d = np.arange(n_rows)[:, None]
        i1 = np.arange(n_cols)[None, :]
        terms = (
            i1 * _LN2
            - sp.gammaln(i1 + 1.0)
            - (d + i1 + 1) * 2.0 * _LN2
            + self._lgl_4t[d + i1 + 1]
        )
        return np.logaddexp.accumulate(terms, axis=1)

    def clip_cross(self, alpha: _SeriesRows, chi: _SeriesRows) -> float:
        """Coupled clip-region piece: sum_{d,j} alpha(d) chi(j) H(d, j)."""
        n_d = alpha.log.size
        n_j = chi.log.size
        h = self._h_matrix(n_d, n_j)
        grid = alpha.log[:, None] + chi.log[None, :] + h
        signs = alpha.sign[:, None] * chi.sign[None, :]
        total, sign = _log_sum_signed(grid.ravel(), signs.ravel())
        return sign * math.exp(total)

    def clip_single(self, alpha: _SeriesRows) -> float:
        """Uncoupled clip-region piece: sum_d alpha(d) glow(d+1, 2T)/2^(d+1)."""
        d = np.arange(alpha.log.size)
        terms = alpha.log - (d + 1) * _LN2 + self._lgl_2t[d + 1]
        total, sign = _log_sum_signed(terms, alpha.sign)
        return sign * math.exp(total)


def _dedupe_pairs(b: np.ndarray, c: np.ndarray, skip: int) -> list[tuple[float, float, int]]:
    """Distinct (b_i, c_i) coefficient pairs with multiplicity, i != skip."""
    seen: dict[tuple[float, float], int] = {}
    for i in range(b.size):
        if i == skip:
            continue
        key = (round(float(b[i]), 10), round(float(c[i]), 10))
        seen[key] = seen.get(key, 0) + 1
    return [(bk, ck, mult) for (bk, ck), mult in seen.items()]


def _series_step_ratio(y: float, x: float, base: float) -> float:
    """Asymptotic per-row ratio of one averaged series instance.

    Along rays (n, i2, d) = (alpha d, beta d, d) the log of the largest term
    grows like d * psi(alpha, beta); the per-row ratio of the series is
    exp(sup psi), with the log-factorial and binomial contributions entering
    through their Stirling limits.  The supremum is taken on a grid, refined
    once if it lands on the alpha boundary.
    """
    y_l = math.log(abs(y) / 4.0)
    x_l = math.log(abs(x) / 8.0) if x != 0.0 else -744.0
    base_l = math.log(base)

    def sup_psi(amax: float) -> tuple[float, bool]:
        a = np.linspace(1e-6, amax, 400)[:, None]
        s = np.linspace(1e-6, 1.0 - 1e-6, 200)[None, :]
        bb = s * a
        ent = -(s * np.log(s) + (1.0 - s) * np.log(1.0 - s))
        psi = (
            (1.0 + a) * y_l
            - (1.0 + a) * np.log(1.0 + a)
            - a * _LN2
            + a * ent
            + bb * x_l
            - bb * np.log(bb)
            + (1.0 + a + bb) * np.log(1.0 + a + bb)
            - (1.0 + a + bb) * base_l
        )
        flat = int(np.argmax(psi))
        top = float(psi.ravel()[flat])
        on_edge = flat // psi.shape[1] == psi.shape[0] - 1
        return top, on_edge

    top, on_edge = sup_psi(8.0)
    if on_edge:
        top, _ = sup_psi(64.0)
    return math.exp(top)


def _series_feasibility(abs2, b, c, p, gamma_sd, gamma_rd) -> str | None:
    """None when every series instance converges fast enough, else a reason.

    base <= 0 means the term-by-term average is already infinite.  Otherwise
    each instance sums at the asymptotic per-row ratio of
    ``_series_step_ratio``; at or above 1 the series diverges even though
    the underlying probability is finite, and close to 1 the number of rows
    needed grows past any practical truncation.
    """
    instances = [(b[p], c[p], gamma_sd), (c[p], b[p], gamma_sd),
                 (c[p], b[p], gamma_rd), (b[p], c[p], gamma_rd)]
    for i in range(b.size):
        if i == p:
            continue
        instances.append((c[i], b[i], gamma_rd))
        instances.append((b[i], c[i], gamma_rd))
    worst = 0.0
    for y, x, gbar in instances:
        base = 2.0 * abs2 - x / 8.0 + 1.0 / gbar
        if base <= 0.0:
            return (
                f"series base 2|xbar|^2 - X/8 + 1/gbar = {base:.4g} <= 0 "
                f"for X = {x:.4g}; the averaged expansion does not exist here"
            )
        worst = max(worst, _series_step_ratio(y, x, base))
    if worst >= _RATIO_MARGIN:
        return (
            f"series per-row convergence ratio {worst:.4g} >= {_RATIO_MARGIN}; "
            "the averaged expansion diverges or converges too slowly here"
        )
    return None


def _averaged_series_value(points, p, q, cfg: PepTermsConfig, n_max: int):
    """One full evaluation of the averaged series at inner order n_max."""
    _, abs2, _, b, c = _pair_coefficients(points, p, q)
    gsd = cfg.snr_point.gamma_sd
    grd = cfg.snr_point.gamma_rd
    eps = cfg.eps
    m = cfg.m
    bp, cp = float(b[p]), float(c[p])
    eng = _AveragedEngine(abs2, cfg.threshold, gsd, grd, n_max, cfg.truncation.rel_tol)
    pairs = _dedupe_pairs(b, c, p)

    p1 = 1.0 - eng.tail_average(bp, cp, gsd)
    p4 = eng.tail_average(cp, bp, gsd)
    p2 = (1.0 - eps) * eng.tail_average(cp, bp, grd)
    p5 = (1.0 - eps) * eng.tail_average(bp, cp, grd)
    p3 = (eps / (m - 1)) * sum(
        mult * eng.tail_average(ci, bi, grd) for bi, ci, mult in pairs
    )
    p6 = (eps / (m - 1)) * sum(
        mult * eng.tail_average(bi, ci, grd) for bi, ci, mult in pairs
    )

    chi_pref = eng._rows("chi", bp, cp, gsd)
    chi_alt = eng._rows("chi", cp, bp, gsd)
    alpha_pref = eng._rows("alpha", cp, bp, grd)
    alpha_alt = eng._rows("alpha", bp, cp, grd)

    p7 = (1.0 - eps) * eng.clip_cross(alpha_pref, chi_pref)
    diff8 = eng.clip_single(alpha_alt) - eng.clip_cross(alpha_alt, chi_alt)
    p9 = 0.0
    diff10 = 0.0
    for bi, ci, mult in pairs:
        a_i = eng._rows("alpha", ci, bi, grd)
        a_i_alt = eng._rows("alpha", bi, ci, grd)
        p9 += mult * eng.clip_cross(a_i, chi_pref)
        diff10 += mult * (eng.clip_single(a_i_alt) - eng.clip_cross(a_i_alt, chi_alt))
    p9 *= eps / (m - 1)

    flags = list(eng.flags)
    for name, val in (("middle complement piece", diff8), ("middle cross piece", diff10)):
        if val < -1e-9:
            flags.append(f"{name} came out {val:.3e} < 0; clamped")
    p8 = (1.0 - eps) * max(diff8, 0.0)
    p10 = (eps / (m - 1)) * max(diff10, 0.0)

    value = p1 * (p2 + p3) + p4 * (p5 + p6) + p7 + p8 + p9 + p10
    return value, eng.truncated, flags


def pep_closed_form(x_p: complex, x_q: complex, cfg: PepTermsConfig) -> PepResult:
    """Average pairwise error probability from the averaged series expansions.

    ``x_p`` is the transmitted symbol, ``x_q`` the competing one; both must
    belong to the M-PSK alphabet of ``cfg.m``.  Where the averaged expansion
    diverges (dense constellations at high SNR), the returned value comes
    from ``pep_exact`` and the result is flagged rather than silent.
    """
    spec = make_psk(cfg.m)
    points = spec.points
    p = _locate(points, x_p, "x_p")
    q = _locate(points, x_q, "x_q")
    if p == q:
        raise ValueError("x_p and x_q must be distinct constellation points")

    _, abs2, _, b, c = _pair_coefficients(points, p, q)
    reason = _series_feasibility(abs2, b, c, p, cfg.snr_point.gamma_sd, cfg.snr_point.gamma_rd)
    if reason is not None:
        value = _exact_value(points, p, q, cfg)
        return PepResult(
            value, False,
            (f"closed-form series inapplicable: {reason}; "
             "value taken from the exact two-sided-exponential evaluation",),
        )

    trunc = cfg.truncation
    schedule = []
    k = min(32, trunc.max_terms)
    while True:
        schedule.append(k)
        if k >= trunc.max_terms:
            break
        k = min(2 * k, trunc.max_terms)

    prev = None
    value = math.nan
    truncated = True
    flags: list[str] = []
    settled = False
    for n_max in schedule:
        value, truncated, flags = _averaged_series_value(points, p, q, cfg, n_max)
        if (
            prev is not None
            and abs(value - prev) <= trunc.rel_tol * max(abs(value), 1e-300)
            and not truncated
        ):
            settled = True
            break
        prev = value

    warnings = list(dict.fromkeys(flags))
    if not settled:
        warnings.append(
            f"series not settled within max_terms = {trunc.max_terms}; "
            "partial value returned, raise max_terms"
        )
    if value < -1e-9 or value > 1.0 + 1e-9:
        warnings.append(f"probability {value:.6e} outside [0, 1]; clamped")
    value = min(max(value, 0.0), 1.0)
    return PepResult(value, settled, tuple(warnings))


# ---------------------------------------------------------------------------
# exact unconditional evaluation


def _rates(abs2: float, beta: float, gbar: float) -> tuple[float, float]:
    """Two-sided exponential rates (positive side, negative side).

    Averaged over Rayleigh fading, the pair statistic conditioned on symbol s
    is a quadratic form in a zero-mean complex Gaussian pair whose 2x2 kernel
    has trace gbar*beta/2 and determinant -(abs2/4)(2 gbar + 1); its law is
    P{t > w} = nu/(nu+m) e^(-w/nu) and P{t < -w} = m/(nu+m) e^(-w/m), w >= 0.
    """
    tr = gbar * beta / 2.0
    disc = math.sqrt(tr * tr + abs2 * (2.0 * gbar + 1.0))
    return (tr + disc) / 2.0, (disc - tr) / 2.0


def _tails(nu: float, mneg: float, t: float) -> tuple[float, float]:
    s = nu + mneg
    return (nu / s) * math.exp(-t / nu), (mneg / s) * math.exp(-t / mneg)


def _middle_integral(nu_s, m_s, nu_0, m_0, t) -> float:
    """integral over [-T, T] of p_s(w) * P{t0 <= -w} dw, all closed form."""
    if t <= 0.0:
        return 0.0
    c_s = 1.0 / (nu_s + m_s)
    lo_0 = m_0 / (nu_0 + m_0)
    hi_0 = nu_0 / (nu_0 + m_0)
    k1 = 1.0 / nu_s + 1.0 / m_0
    pos = c_s * lo_0 * (-math.expm1(-t * k1)) / k1
    k2 = 1.0 / m_s + 1.0 / nu_0
    neg = c_s * m_s * (-math.expm1(-t / m_s)) - c_s * hi_0 * (-math.expm1(-t * k2)) / k2
    return pos + neg


def _exact_value(points: np.ndarray, p: int, q: int, cfg: PepTermsConfig) -> float:
    xbar, abs2, beta, _, _ = _pair_coefficients(points, p, q)
    if abs(abs(points[p]) - abs(points[q])) > _POINT_MATCH_TOL:
        raise ValueError("exact evaluation requires equal-modulus symbols")
    t = cfg.threshold
    eps = cfg.eps
    m = cfg.m
    gsd = cfg.snr_point.gamma_sd
    grd = cfg.snr_point.gamma_rd

    nu0, m0 = _rates(abs2, float(beta[p]), gsd)
    hi0, lo0 = _tails(nu0, m0, t)

    mix_lo = 0.0
    mix_hi = 0.0
    mid = 0.0
    for s in range(m):
        w = (1.0 - eps) if s == p else eps / (m - 1)
        nus, ms = _rates(abs2, float(beta[s]), grd)
        hi_s, lo_s = _tails(nus, ms, t)
        mix_lo += w * lo_s
        mix_hi += w * hi_s
        mid += w * _middle_integral(nus, ms, nu0, m0, t)
    return (1.0 - hi0) * mix_lo + lo0 * mix_hi + mid


def pep_exact(x_p: complex, x_q: complex, cfg: PepTermsConfig) -> PepResult:
    """Exact average pairwise error probability, no series or quadrature.

    Uses the unconditional two-sided-exponential law of each pair statistic;
    every piece of the error decomposition reduces to elementary exponential
    integrals.  Valid for any equal-modulus alphabet at any SNR.
    """
    points = make_psk(cfg.m).points
    p = _locate(points, x_p, "x_p")
    q = _locate(points, x_q, "x_q")
    if p == q:
        raise ValueError("x_p and x_q must be distinct constellation points")
    return PepResult(_exact_value(points, p, q, cfg), True, ())


# ---------------------------------------------------------------------------
# Gaussian-approximation quadrature evaluation


@functools.cache
def _legendre_rule() -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights on [-1, 1], built on first use."""
    return sp.roots_legendre(_W_NODES)


def _laplace_scales(z, scale2: float, gbar: float):
    """Side scales (positive, negative) of X = z*gamma + sqrt(scale2*gamma)*N.

    Averaged over gamma ~ Exp(gbar), X is asymmetric-Laplace with
    nu - mu = gbar*z and nu*mu = gbar*scale2/2.  The larger scale is formed
    as a sum and the smaller from the product, so neither cancels.
    """
    gz = gbar * np.asarray(z, dtype=float)
    big = (np.sqrt(gz * gz + 2.0 * gbar * scale2) + np.abs(gz)) / 2.0
    small = gbar * scale2 / (2.0 * big)
    pos = gz >= 0.0
    return np.where(pos, big, small), np.where(pos, small, big)


def _laplace_tail(tau, nu, mu):
    """P{X > tau} for the asymmetric-Laplace law with side scales (nu, mu)."""
    a = np.abs(tau)
    above = nu * np.exp(-a / nu)
    below = nu - mu * np.expm1(-a / mu)
    return np.where(tau >= 0.0, above, below) / (nu + mu)


def _laplace_density(w, nu, mu):
    """Density at w of the asymmetric-Laplace law with side scales (nu, mu)."""
    return np.exp(-np.abs(w) / np.where(w >= 0.0, nu, mu)) / (nu + mu)


def _quadrature_terms(x_p: complex, x_q: complex, cfg: PepTermsConfig):
    """The probability pieces of the Gaussian-statistic approximation.

    Returns the two tail products and the clip-region integral, each
    nonnegative.  Conditioned on the link gain gamma, the statistic for
    symbol s is N(z_s*gamma, |xbar|^2*gamma); its fading average is
    asymmetric-Laplace, so every tail and density is elementary and only the
    clip-region integral over [-T, T] uses the fixed Gauss-Legendre rule.
    """
    points = make_psk(cfg.m).points
    p = _locate(points, x_p, "x_p")
    q = _locate(points, x_q, "x_q")
    if p == q:
        raise ValueError("x_p and x_q must be distinct constellation points")

    # Statistics are oriented decided-minus-transmitted, so the means are
    # z_s * gamma with z_s = Re{x_s xbar*} and xbar = x_q - x_p; the
    # transmitted symbol has z < 0.
    xbar = complex(points[q] - points[p])
    scale2 = abs(xbar) ** 2
    z = np.real(points * np.conj(xbar))
    t = cfg.threshold
    eps = cfg.eps
    m = cfg.m
    mix = np.full(m, eps / (m - 1))
    mix[p] = 1.0 - eps
    nu_sd, mu_sd = _laplace_scales(z[p], scale2, cfg.snr_point.gamma_sd)
    nu_rd, mu_rd = _laplace_scales(z, scale2, cfg.snr_point.gamma_rd)

    # Source statistic beyond the clip on the wrong side, relay hard-correct;
    # negating z swaps the two side scales.
    i1 = float(_laplace_tail(t, nu_sd, mu_sd)) * float(mix @ _laplace_tail(t, mu_rd, nu_rd))
    i2 = float(_laplace_tail(-t, nu_sd, mu_sd)) * float(mix @ _laplace_tail(t, nu_rd, mu_rd))

    if t > 0.0:
        nodes, weights = _legendre_rule()
        w_nodes = t * nodes
        g_vals = _laplace_tail(-w_nodes, nu_sd, mu_sd)
        density = _laplace_density(w_nodes, nu_rd[:, None], mu_rd[:, None])
        i34 = float(mix @ (density @ (t * weights * g_vals)))
    else:
        i34 = 0.0
    return i1, i2, i34


def pep_quadrature_approx(x_p: complex, x_q: complex, cfg: PepTermsConfig) -> PepResult:
    """Pairwise error probability under the Gaussian-statistic approximation.

    Models both differential statistics as conditionally Gaussian.  Averaged
    over Rayleigh fading each becomes asymmetric-Laplace, so the tail factors
    are closed form; the clip-region contribution is integrated on a fixed
    201-node Gauss-Legendre rule over [-T, T].  Biased by the approximation
    itself (a few percent at high SNR) but applicable to any PSK alphabet and
    SNR.  Nothing is truncated or adaptive, so the result is always converged.
    """
    value = float(sum(_quadrature_terms(x_p, x_q, cfg)))
    return PepResult(min(max(value, 0.0), 1.0), True, ())


# ---------------------------------------------------------------------------
# union-bound SER


def ser_nearest_neighbor(spec: ConstellationSpec, pep_fn, cfg: PepTermsConfig) -> PepResult:
    """Nearest-neighbor SER estimate: sum of pairwise error probabilities.

    Sums ``pep_fn(x_ref, x_neighbor, cfg)`` over the nearest neighbors of the
    reference symbol; exact for M = 2, the usual tight high-SNR approximation
    otherwise.  Convergence flags and warnings of the terms are merged.
    """
    if spec.kind != "psk":
        raise ValueError(f"nearest-neighbor SER expects a PSK spec, got kind = {spec.kind!r}")
    if spec.M != cfg.m:
        raise ValueError(f"spec has M = {spec.M} but cfg.m = {cfg.m}")
    ref = complex(spec.points[0])
    total = 0.0
    converged = True
    warnings: list[str] = []
    for j in nearest_neighbors(spec, 0):
        res = pep_fn(ref, complex(spec.points[j]), cfg)
        total += float(res)
        converged = converged and bool(getattr(res, "converged", True))
        warnings.extend(getattr(res, "warnings", ()))
    return PepResult(min(total, 1.0), converged, tuple(dict.fromkeys(warnings)))


# ---------------------------------------------------------------------------
# high-SNR multirelay asymptotics


def _asymptotic_pair(x_p: complex, x_q: complex) -> tuple[float, float]:
    x_p = complex(x_p)
    x_q = complex(x_q)
    if abs(abs(x_p) - abs(x_q)) > _POINT_MATCH_TOL:
        raise ValueError("asymptotic series requires equal-modulus symbols")
    xbar = x_p - x_q
    abs2 = abs(xbar) ** 2
    if abs2 <= 0.0:
        raise ValueError("x_p and x_q must be distinct")
    beta = 2.0 * (x_p.conjugate() * xbar).real
    return abs2, beta


def pep_asymptotic_conditional(
    x_p: complex,
    x_q: complex,
    n_relays: int,
    gamma_t: float,
    truncation: SeriesTruncation | None = None,
) -> PepResult:
    """High-SNR pairwise error probability conditioned on the combined SNR.

    With N error-free relays and total combined instantaneous SNR
    ``gamma_t``, evaluates the conditional error series for the threshold
    combiner in the regime where all relays decode correctly.  At
    ``gamma_t = 0`` the value is exactly one half.
    """
    if int(n_relays) != n_relays or n_relays < 0:
        raise ValueError(f"n_relays must be an integer >= 0, got {n_relays!r}")
    n_relays = int(n_relays)
    if not (math.isfinite(gamma_t) and gamma_t >= 0.0):
        raise ValueError(f"gamma_t must be finite and >= 0, got {gamma_t!r}")
    trunc = truncation if truncation is not None else SeriesTruncation()
    abs2, beta = _asymptotic_pair(x_p, x_q)
    big_n = n_relays

    if gamma_t == 0.0:
        value = sum(
            math.comb(big_n + n, n) / 2.0 ** (big_n + n + 1) for n in range(big_n + 1)
        )
        return PepResult(value, True, ())

    a1 = 2.0 * abs2 - beta
    a2 = 2.0 * abs2 + beta
    log_pref = (beta / 4.0 - 1.5 * abs2) * gamma_t - (big_n + 1) * _LN2

    from .specfun import log_laguerre_neg_table

    k_cap = trunc.max_terms
    lag = log_laguerre_neg_table(k_cap + big_n, a2 * gamma_t / 4.0, alpha=big_n)
    n_idx = np.arange(k_cap + big_n + 1)
    prefix = np.logaddexp.accumulate(lag - n_idx * _LN2)
    k = np.arange(k_cap + 1)
    log_a1g = math.log(a1 * gamma_t) if a1 * gamma_t > 0 else -math.inf
    rows = np.where(k == 0, 0.0, k * (log_a1g - _LN2)) - sp.gammaln(k + 1.0) + prefix[k + big_n]

    prev = None
    total = -math.inf
    used = 0
    converged = False
    checkpoint = 32
    for kk in range(k_cap + 1):
        total = np.logaddexp(total, rows[kk])
        used = kk + 1
        if used >= checkpoint or kk == k_cap:
            if prev is not None and abs(total - prev) <= trunc.rel_tol:
                converged = True
                break
            prev = total
            checkpoint *= 2
    value = math.exp(log_pref + total)
    warnings = () if converged else (
        f"conditional asymptotic series not settled within max_terms = {trunc.max_terms}",
    )
    return PepResult(value, converged, warnings)


def pep_asymptotic_multirelay(
    x_p: complex,
    x_q: complex,
    n_relays: int,
    gamma_bar: float,
    cfg: PepTermsConfig,
) -> PepResult:
    """High-SNR average pairwise error probability with N error-free relays.

    Averages the conditional series over the chi-square density of the
    combined SNR (N + 1 independent Rayleigh branches of mean ``gamma_bar``),
    giving a diversity-(N+1) lower bound on the erroneous-relay system's SER.
    The system approaches it only when the source-relay links are
    asymptotically stronger than the other links; with all links at one SNR
    its diversity order is ceil(N/2) + 1.
    Only ``cfg.truncation`` is consulted; the series needs thousands of terms
    at high SNR, so size ``max_terms`` accordingly.
    """
    if int(n_relays) != n_relays or n_relays < 1:
        raise ValueError(f"n_relays must be an integer >= 1, got {n_relays!r}")
    n_relays = int(n_relays)
    if not (math.isfinite(gamma_bar) and gamma_bar > 0.0):
        raise ValueError(f"gamma_bar must be finite and > 0, got {gamma_bar!r}")
    abs2, beta = _asymptotic_pair(x_p, x_q)
    big_n = n_relays
    trunc = cfg.truncation

    a1 = 2.0 * abs2 - beta
    a2 = 2.0 * abs2 + beta
    c = 1.5 * abs2 - beta / 4.0
    s = 1.0 / gamma_bar + c
    log_s = math.log(s)
    log_a1 = math.log(a1) - _LN2
    log_a2 = math.log(a2) - 2.0 * _LN2
    k_cap = trunc.max_terms
    lg = sp.gammaln(np.arange(2 * k_cap + 2 * big_n + 4, dtype=float))
    log_pref = -lg[big_n + 1] - (big_n + 1) * math.log(gamma_bar)

    # Running inner cumulative over i of sum_{n >= i} C(N+n, N+i)/2^(N+n+1),
    # extended one n-shell per k step so memory stays linear in k.
    n0 = np.arange(big_n + 1)
    logcum = np.full(k_cap + big_n + 2, -np.inf)
    for i in range(big_n + 1):
        shells = lg[big_n + n0[i:] + 1] - lg[big_n + i + 1] - lg[n0[i:] - i + 1] \
            - (big_n + n0[i:] + 1) * _LN2
        logcum[i] = sp.logsumexp(shells)

    total = -math.inf
    prev = None
    converged = False
    checkpoint = 32
    hi = big_n  # current largest n in the cumulative
    for k in range(k_cap + 1):
        if k > 0:
            hi = k + big_n
            i_idx = np.arange(hi + 1)
            new_shell = lg[big_n + hi + 1] - lg[big_n + i_idx + 1] - lg[hi - i_idx + 1] \
                - (big_n + hi + 1) * _LN2
            logcum[: hi + 1] = np.logaddexp(logcum[: hi + 1], new_shell)
        i_idx = np.arange(hi + 1)
        inner = (
            logcum[: hi + 1]
            + i_idx * log_a2
            - lg[i_idx + 1]
            + lg[big_n + k + i_idx + 1]
            - (big_n + k + i_idx + 1) * log_s
        )
        row = (k * log_a1 if k > 0 else 0.0) - lg[k + 1] + sp.logsumexp(inner)
        total = np.logaddexp(total, row)
        if k + 1 >= checkpoint or k == k_cap:
            if prev is not None and abs(total - prev) <= trunc.rel_tol:
                converged = True
                break
            prev = total
            checkpoint *= 2
    value = math.exp(log_pref + total)
    warnings = () if converged else (
        f"asymptotic average series not settled within max_terms = {trunc.max_terms}; "
        "partial value returned, raise max_terms",
    )
    return PepResult(min(value, 1.0), converged, warnings)


# ---------------------------------------------------------------------------
# diversity-order extraction


def fit_diversity_slope(curve, snr_window: tuple[float, float]) -> float:
    """Magnitude of the log10(SER)-per-decade slope over an SNR window.

    ``curve`` needs array attributes ``snr_db`` and ``ser``; optional
    ``ci_low``/``ci_high`` gate the fit on statistical quality.  Raises
    ValueError rather than returning a slope from insufficient or too-noisy
    data: fewer than 3 points in the window, any nonpositive SER, or any
    relative CI half-width of 30% or more.
    """
    lo, hi = float(snr_window[0]), float(snr_window[1])
    if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi):
        raise ValueError(f"snr_window must be a finite (lo, hi) with lo < hi, got {snr_window!r}")
    snr = np.asarray(curve.snr_db, dtype=float)
    ser = np.asarray(curve.ser, dtype=float)
    if snr.ndim != 1 or snr.shape != ser.shape:
        raise ValueError("curve.snr_db and curve.ser must be 1-D arrays of equal length")
    mask = (snr >= lo - 1e-9) & (snr <= hi + 1e-9)
    count = int(np.count_nonzero(mask))
    if count < 3:
        raise ValueError(
            f"need at least 3 curve points inside [{lo}, {hi}] dB to fit a slope, found {count}"
        )
    ser_w = ser[mask]
    snr_w = snr[mask]
    if np.any(ser_w <= 0.0):
        bad = snr_w[ser_w <= 0.0][0]
        raise ValueError(f"SER must be positive to fit a log slope; point at {bad} dB is not")
    ci_low = getattr(curve, "ci_low", None)
    ci_high = getattr(curve, "ci_high", None)
    if ci_low is not None and ci_high is not None:
        ci_low = np.asarray(ci_low, dtype=float)[mask]
        ci_high = np.asarray(ci_high, dtype=float)[mask]
        rel_half = (ci_high - ci_low) / (2.0 * ser_w)
        worst = int(np.argmax(rel_half))
        if rel_half[worst] >= 0.3:
            raise ValueError(
                f"confidence interval too wide for a slope fit: relative half-width "
                f"{rel_half[worst]:.3f} >= 0.3 at {snr_w[worst]} dB"
            )
    coef = np.polyfit(snr_w / 10.0, np.log10(ser_w), 1)
    return float(abs(coef[0]))
