"""Analytical pairwise error probabilities for the clipped-combiner decoder.

Everything here evaluates the single-relay destination test

    decide x_p over x_q  iff  t0 + clip(t, T) > 0

where t0 and t are the source-destination and relay-destination differential
correlation statistics and T is the clip level tied to the relay error rate.
Averaged over Rayleigh fading each statistic is asymmetric-Laplace with side
scales nu, mu, where nu - mu = gbar*z_s for the symbol s the link carries.
The two SER routes share this law and one evaluator, and differ only in the
product nu*mu:

``pep_exact``
    The closed form, with no truncation at all.  Each statistic is an
    indefinite Hermitian quadratic form in a zero-mean complex Gaussian
    pair, so nu*mu = |xbar|^2 (2 gbar + 1)/4 exactly, and the clip-region
    integral over [-T, T] is closed form too.  The paper's averaged series
    for the same probability is kept only as a test oracle: its term-by-term
    fading average is biased at low SNR and diverges for dense
    constellations at high SNR.

``pep_quadrature_approx``
    The paper's approximate SER, which ignores higher-order noise terms:
    conditionally Gaussian statistics give nu*mu = gbar |xbar|^2/2, dropping
    the noise-times-noise term |xbar|^2/4.  The clip-region integral runs on
    a fixed 201-node Gauss-Legendre rule.  Within a few percent at high SNR.

``pep_asymptotic_multirelay`` is the high-SNR multirelay law with
error-free relays: the paper's fading average of its conditional series,
which sums to the finite L-branch binomial form
sum_{k=0..N} C(N+k, k) p^(N+1) (1-p)^k and is evaluated as that sum.  The
conditional series itself lives only in the test oracles.  No evaluator
here truncates a series, so every result is converged.
``fit_diversity_slope`` extracts diversity orders from SER curves.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .constellation import ConstellationSpec, make_psk, nearest_neighbors
from .decoders import clip_threshold
from .specfun import SeriesTruncation

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

    ``threshold`` is not an argument: it is always the clip level implied by
    ``(m, eps)``, so the evaluators and the decoder agree on the clip point.
    ``truncation`` is accepted but read by no evaluator, since none
    truncates a series.  It stays because the benchmark harness
    (``perfbench/workloads.py``) still passes it.
    """

    snr_point: SnrPoint
    eps: float
    m: int
    truncation: SeriesTruncation = SeriesTruncation()
    threshold: float = field(init=False)

    def __post_init__(self) -> None:
        if int(self.m) != self.m or self.m < 2:
            raise ValueError(f"m must be an integer >= 2, got {self.m!r}")
        object.__setattr__(self, "m", int(self.m))
        if not (0.0 < self.eps < 1.0):
            raise ValueError(f"eps must lie in (0, 1), got {self.eps!r}")
        threshold = clip_threshold(self.m, self.eps)
        if threshold < 0.0:
            raise ValueError(
                f"eps = {self.eps} exceeds the uniform-error rate for m = {self.m}; "
                "the clip level would be negative"
            )
        object.__setattr__(self, "threshold", threshold)


@dataclass(frozen=True)
class PepResult:
    """Value plus convergence status of one evaluation.

    ``converged`` would be False for a series truncated before settling; no
    evaluator in this package truncates a series, so every result here is
    converged.  It stays because the benchmark harness
    (``perfbench/spans.py``) counts unconverged rows.  The value is never NaN.
    """

    value: float
    converged: bool = True

    def __float__(self) -> float:
        return float(self.value)


# ---------------------------------------------------------------------------
# the shared error law


def _locate(points: np.ndarray, x: complex, name: str) -> int:
    dist = np.abs(points - complex(x))
    idx = int(np.argmin(dist))
    if dist[idx] > _POINT_MATCH_TOL:
        raise ValueError(f"{name} = {complex(x)!r} is not a constellation point")
    return idx


@functools.cache
def _legendre_rule() -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights on [-1, 1], built on first use."""
    return np.polynomial.legendre.leggauss(_W_NODES)


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


def _statistic_scales(z, abs2: float, gbar: float, exact: bool):
    """Side scales of one route's fading-averaged statistic with mean z*gamma.

    The exact law keeps the noise-times-noise term abs2/4 in nu*mu.
    """
    return _laplace_scales(z, abs2 * (1.0 + 0.5 / gbar) if exact else abs2, gbar)


def _laplace_tail(tau, nu, mu):
    """P{X > tau} for the asymmetric-Laplace law with side scales (nu, mu)."""
    a = np.abs(tau)
    above = nu * np.exp(-a / nu)
    below = nu - mu * np.expm1(-a / mu)
    return np.where(tau >= 0.0, above, below) / (nu + mu)


def _laplace_density(w, nu, mu):
    """Density at w of the asymmetric-Laplace law with side scales (nu, mu)."""
    return np.exp(-np.abs(w) / np.where(w >= 0.0, nu, mu)) / (nu + mu)


def _clip_integral(t: float, nu, mu, nu0, mu0):
    """Integral over [-T, T] of p(w) P{X0 > -w} dw, closed form.

    p has side scales (nu, mu), one entry per relay symbol; X0 has (nu0, mu0).
    """
    k_pos = 1.0 / nu + 1.0 / mu0
    k_neg = 1.0 / mu + 1.0 / nu0
    pos = -nu * np.expm1(-t / nu) + mu0 / (nu0 + mu0) * np.expm1(-t * k_pos) / k_pos
    neg = -nu0 / (nu0 + mu0) * np.expm1(-t * k_neg) / k_neg
    return (pos + neg) / (nu + mu)


def _pep_value(x_p: complex, x_q: complex, cfg: PepTermsConfig, exact: bool) -> float:
    """Error probability of the pair decision (x_p over x_q) on one route.

    The relay statistic is a mixture over the symbol s the relay sent, weight
    1 - eps on x_p and eps/(M-1) on each other symbol.  The value is the two
    tail products (relay clipped at -T or +T) plus the clip-region integral.
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
    abs2 = abs(xbar) ** 2
    z = np.real(points * np.conj(xbar))
    t = cfg.threshold
    mix = np.full(cfg.m, cfg.eps / (cfg.m - 1))
    mix[p] = 1.0 - cfg.eps
    nu_sd, mu_sd = _statistic_scales(z[p], abs2, cfg.snr_point.gamma_sd, exact)
    nu_rd, mu_rd = _statistic_scales(z, abs2, cfg.snr_point.gamma_rd, exact)

    # Source statistic beyond the clip on the wrong side, relay hard-correct;
    # negating z swaps the two side scales.
    i1 = float(_laplace_tail(t, nu_sd, mu_sd)) * float(mix @ _laplace_tail(t, mu_rd, nu_rd))
    i2 = float(_laplace_tail(-t, nu_sd, mu_sd)) * float(mix @ _laplace_tail(t, nu_rd, mu_rd))

    if t <= 0.0:
        mid = 0.0
    elif exact:
        mid = float(mix @ _clip_integral(t, nu_rd, mu_rd, nu_sd, mu_sd))
    else:
        nodes, weights = _legendre_rule()
        w_nodes = t * nodes
        g_vals = _laplace_tail(-w_nodes, nu_sd, mu_sd)
        density = _laplace_density(w_nodes, nu_rd[:, None], mu_rd[:, None])
        mid = float(mix @ (density @ (t * weights * g_vals)))
    return min(max(i1 + i2 + mid, 0.0), 1.0)


def pep_exact(x_p: complex, x_q: complex, cfg: PepTermsConfig) -> PepResult:
    """Exact average pairwise error probability, no series or quadrature.

    Every piece of the error decomposition under the exact law is an
    elementary exponential integral, valid for any PSK alphabet at any SNR.
    This is the closed form behind the CLI's ``closed_form`` overlay.
    """
    return PepResult(_pep_value(x_p, x_q, cfg, exact=True))


def pep_quadrature_approx(x_p: complex, x_q: complex, cfg: PepTermsConfig) -> PepResult:
    """Pairwise error probability under the Gaussian-statistic approximation.

    Models both differential statistics as conditionally Gaussian, which drops
    the noise-times-noise term of the exact law; the clip-region integral runs
    on the fixed 201-node Gauss-Legendre rule.  Biased by the approximation
    (a few percent at high SNR), never truncated, so always converged.
    """
    return PepResult(_pep_value(x_p, x_q, cfg, exact=False))


# ---------------------------------------------------------------------------
# union-bound SER


def ser_nearest_neighbor(spec: ConstellationSpec, pep_fn, cfg: PepTermsConfig) -> PepResult:
    """Nearest-neighbor SER estimate: sum of pairwise error probabilities.

    Sums ``pep_fn(x_ref, x_neighbor, cfg)`` over the nearest neighbors of the
    reference symbol; exact for M = 2, the usual tight high-SNR approximation
    otherwise.  Only the terms' values are read: every evaluator here is
    converged, so the sum is too.
    """
    if spec.kind != "psk":
        raise ValueError(f"nearest-neighbor SER expects a PSK spec, got kind = {spec.kind!r}")
    if spec.M != cfg.m:
        raise ValueError(f"spec has M = {spec.M} but cfg.m = {cfg.m}")
    ref = complex(spec.points[0])
    total = 0.0
    for j in nearest_neighbors(spec, 0):
        total += float(pep_fn(ref, complex(spec.points[j]), cfg))
    return PepResult(min(total, 1.0))


# ---------------------------------------------------------------------------
# high-SNR multirelay asymptotics


def _asymptotic_pair(x_p: complex, x_q: complex) -> float:
    """|x_p - x_q|^2 of two distinct equal-modulus symbols."""
    x_p = complex(x_p)
    x_q = complex(x_q)
    if abs(abs(x_p) - abs(x_q)) > _POINT_MATCH_TOL:
        raise ValueError("asymptotic series requires equal-modulus symbols")
    abs2 = abs(x_p - x_q) ** 2
    if abs2 <= 0.0:
        raise ValueError("x_p and x_q must be distinct")
    return abs2


def pep_asymptotic_multirelay(
    x_p: complex,
    x_q: complex,
    n_relays: int,
    gamma_bar: float,
    cfg: PepTermsConfig,
) -> PepResult:
    """High-SNR average pairwise error probability with N error-free relays.

    The paper's average of the conditional series over the chi-square
    density of the combined SNR (N + 1 independent Rayleigh branches of mean
    ``gamma_bar``) sums to the L-branch binomial form

        P = sum_{k=0..N} C(N+k, k) p^(N+1) (1-p)^k,

    a race over N + 1 branches each lost with probability p.  With
    g = |x_p - x_q|^2 gamma_bar and R = sqrt(g^2 + 8g + 4),
    p = (4g + 2) / (R (R + g)), which is (1 - g/R)/2 without the
    cancellation.  The sum needs the equal-modulus identity
    2 Re{x_p^* (x_p - x_q)} = |x_p - x_q|^2 of the series' coefficients.
    It is a diversity-(N+1) lower bound on the erroneous-relay system's
    SER, which the system approaches only when the source-relay links are
    asymptotically stronger than the other links; with all links at one SNR
    its diversity order is ceil(N/2) + 1.  No field of ``cfg`` is read.
    """
    if int(n_relays) != n_relays or n_relays < 1:
        raise ValueError(f"n_relays must be an integer >= 1, got {n_relays!r}")
    n_relays = int(n_relays)
    if not (math.isfinite(gamma_bar) and gamma_bar > 0.0):
        raise ValueError(f"gamma_bar must be finite and > 0, got {gamma_bar!r}")
    abs2 = _asymptotic_pair(x_p, x_q)
    g = abs2 * gamma_bar
    r = math.sqrt(g * g + 8.0 * g + 4.0)
    p = (4.0 * g + 2.0) / (r * (r + g))
    race = sum(math.comb(n_relays + k, k) * (1.0 - p) ** k for k in range(n_relays + 1))
    return PepResult(p ** (n_relays + 1) * race)


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
