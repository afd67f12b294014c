"""Independent reference implementations used as test oracles.

These deliberately avoid the production code paths: densities are assembled
and maximized directly in extended precision, with no log-domain tricks.
"""

import numpy as np


def _pair_density_psk(y_prev, y_curr, x, noise_var):
    """Density of the current sample given the previous one and the symbol.

    The differential pair model for unit-modulus symbols has effective noise
    variance twice the per-sample value.
    """
    y_prev = np.asarray(y_prev, dtype=np.complex128)[..., None]
    y_curr = np.asarray(y_curr, dtype=np.complex128)[..., None]
    resid = np.abs(y_curr - y_prev * x).astype(np.longdouble) ** 2
    var = np.longdouble(2.0 * noise_var)
    return np.exp(-resid / var) / (np.pi * var)


def _pair_density_qam(y_prev, y_curr, x, noise_var, prev_mag):
    """Same as above for amplitude-bearing symbols with scaled feedback."""
    y_prev = np.asarray(y_prev, dtype=np.complex128)[..., None]
    y_curr = np.asarray(y_curr, dtype=np.complex128)[..., None]
    prev_mag = np.asarray(prev_mag, dtype=float)[..., None]
    resid = np.abs(y_curr - y_prev * x / prev_mag).astype(np.longdouble) ** 2
    var = np.longdouble(noise_var) * (1.0 + np.abs(x) ** 2 / prev_mag**2)
    return np.exp(-resid / var) / (np.pi * var)


def _mixture(link_density, eps):
    """Relay right-or-wrong mixture: rows are instances, columns candidates."""
    m = link_density.shape[-1]
    if eps == 0.0:
        return link_density
    total = link_density.sum(axis=-1, keepdims=True)
    others = total - link_density
    return (1.0 - eps) * link_density + eps / (m - 1) * others


def pdf_decode_psk(sd_prev, sd_curr, rd_prevs, rd_currs, sd_noise_var,
                   rd_noise_vars, points, epsilons):
    """Brute-force joint-density PSK decision per instance.

    sd_prev/sd_curr have shape (B,); rd_prevs/rd_currs shape (R, B).
    Returns (B,) decisions.
    """
    like = _pair_density_psk(sd_prev, sd_curr, points, sd_noise_var)
    for r, eps in enumerate(epsilons):
        link = _pair_density_psk(rd_prevs[r], rd_currs[r], points, rd_noise_vars[r])
        like = like * _mixture(link, eps)
    return np.argmax(like, axis=-1)


def pdf_decode_qam(sd_prev, sd_curr, rd_prevs, rd_currs, sd_noise_var,
                   rd_noise_vars, points, epsilons, sd_prev_mag, rd_prev_mags):
    """Brute-force joint-density QAM decision per instance.

    Magnitude feedback values are per instance: sd_prev_mag (B,),
    rd_prev_mags (R, B).
    """
    like = _pair_density_qam(sd_prev, sd_curr, points, sd_noise_var, sd_prev_mag)
    for r, eps in enumerate(epsilons):
        link = _pair_density_qam(
            rd_prevs[r], rd_currs[r], points, rd_noise_vars[r], rd_prev_mags[r]
        )
        like = like * _mixture(link, eps)
    return np.argmax(like, axis=-1)


def exact_relay_llr(t, eps, m):
    """Exact log-likelihood-ratio nonlinearity applied to a relay statistic."""
    t = np.asarray(t, dtype=float)
    w = eps / (m - 1)
    return np.log(((1.0 - eps) * np.exp(t) + w) / ((1.0 - eps) + w * np.exp(t)))


# ---------------------------------------------------------------------------
# pairwise-statistic references for the analysis module
#
# The decision statistic of one destination link is
#   t = Re{conj(y[n]) * y[n-1] * (x_p - x_q)}
# with y[n-1] = h + z1, y[n] = h*x_s + z2, h ~ CN(0, gbar), z ~ CN(0, 1),
# where x_s is the symbol carried by the link.  Everything below evaluates
# laws of t (and of the clipped two-link combination) by routes that share no
# code with the production evaluators: characteristic-function inversion,
# plain Monte Carlo, and the incomplete-gamma/Laguerre series representation
# summed per term at fixed link SNR and then averaged numerically.

import math
import warnings

import scipy.integrate as si
import scipy.special as sp

_LN2 = math.log(2.0)
_LN4 = math.log(4.0)


def pair_coefficients(points, p, q):
    """Difference vector and the per-symbol quadratic-form coefficients."""
    points = np.asarray(points, dtype=complex)
    xbar = points[p] - points[q]
    abs2 = abs(xbar) ** 2
    beta = 2.0 * (points * np.conj(xbar)).real
    b = 2.0 * (2.0 * abs2 + beta)
    c = 2.0 * (2.0 * abs2 - beta)
    return xbar, abs2, b, c


# -- characteristic-function route ------------------------------------------


def _cf_params(points, p, q, s):
    """Scale and the two squared half-sums entering the pair CF."""
    points = np.asarray(points, dtype=complex)
    xbar = points[p] - points[q]
    lam = abs(xbar) / 2.0
    phase = xbar / abs(xbar)
    zs = points[s] * np.conj(phase)
    kp = abs(1.0 + zs) ** 2 / 2.0
    km = abs(1.0 - zs) ** 2 / 2.0
    return lam, kp, km


def _cf_conditional(u, lam, kp, km, gamma):
    d1 = 1.0 - 1j * u * lam
    d2 = 1.0 + 1j * u * lam
    return np.exp(1j * u * lam * kp * gamma / d1 - 1j * u * lam * km * gamma / d2) / (d1 * d2)


def _cf_averaged(u, lam, kp, km, gbar):
    d1 = 1.0 - 1j * u * lam
    d2 = 1.0 + 1j * u * lam
    a = 1j * u * lam * kp / d1 - 1j * u * lam * km / d2
    return 1.0 / (d1 * d2 * (1.0 - gbar * a))


def _quad_inf(f):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        val, _ = si.quad(f, 0.0, np.inf, limit=800)
    return val


def cf_tail(points, p, q, s, w, *, gamma=None, gbar=None):
    """Pr{t > w} for one link, conditional on gamma or averaged over fading."""
    lam, kp, km = _cf_params(points, p, q, s)
    if (gamma is None) == (gbar is None):
        raise ValueError("pass exactly one of gamma, gbar")
    if gamma is not None:
        phi = lambda u: _cf_conditional(u, lam, kp, km, gamma)
    else:
        phi = lambda u: _cf_averaged(u, lam, kp, km, gbar)
    integrand = lambda u: (np.exp(-1j * u * w) * phi(u)).imag / u
    return 0.5 + _quad_inf(integrand) / math.pi


def _cf_mixture_averaged(points, p, q, eps, gbar):
    """Averaged CF of the relay-link statistic under the right-or-wrong mix."""
    m = len(points)
    comps = []
    for s in range(m):
        weight = (1.0 - eps) if s == p else eps / (m - 1)
        comps.append((weight, _cf_params(points, p, q, s)))
    def phi(u):
        return sum(w * _cf_averaged(u, lam, kp, km, gbar) for w, (lam, kp, km) in comps)
    return phi


def cf_pep_total(points, p, q, eps, threshold, gbar_sd=None, gbar_rd=None, *,
                 gamma_sd=None, gamma_rd=None):
    """Clipped-combiner pairwise error probability via CF inversion only.

    The two links are independent given their SNRs, so the error event splits
    into the two saturated branches plus the linear region, each factor
    evaluated from its own CF.  Pass the ``gbar_*`` pair for the fading
    average or the ``gamma_*`` pair for fixed instantaneous SNRs.
    """
    if (gbar_sd is None) == (gamma_sd is None) or (gbar_rd is None) == (gamma_rd is None):
        raise ValueError("give gbar_sd/gbar_rd or gamma_sd/gamma_rd, not both")
    points = np.asarray(points, dtype=complex)
    t = float(threshold)
    m = len(points)
    lam0, kp0, km0 = _cf_params(points, p, q, p)
    if gbar_sd is not None:
        phi0 = lambda u: _cf_averaged(u, lam0, kp0, km0, gbar_sd)
    else:
        phi0 = lambda u: _cf_conditional(u, lam0, kp0, km0, gamma_sd)
    comps = []
    for s in range(m):
        weight = (1.0 - eps) if s == p else eps / (m - 1)
        comps.append((weight, _cf_params(points, p, q, s)))
    if gbar_rd is not None:
        phi_t = lambda u: sum(
            w * _cf_averaged(u, lam, kp, km, gbar_rd)
            for w, (lam, kp, km) in comps)
    else:
        phi_t = lambda u: sum(
            w * _cf_conditional(u, lam, kp, km, gamma_rd)
            for w, (lam, kp, km) in comps)

    def tail0(w):
        return 0.5 + _quad_inf(lambda u: (np.exp(-1j * u * w) * phi0(u)).imag / u) / math.pi

    def tail_t(w):
        return 0.5 + _quad_inf(lambda u: (np.exp(-1j * u * w) * phi_t(u)).imag / u) / math.pi

    def pdf_t(w):
        return _quad_inf(lambda u: (np.exp(-1j * u * w) * phi_t(u)).real) / math.pi

    total = (1.0 - tail_t(-t)) * (1.0 - tail0(t)) + tail_t(t) * (1.0 - tail0(-t))
    nodes, weights = np.polynomial.legendre.leggauss(64)
    mid = 0.0
    for lo, hi in ((-t, 0.0), (0.0, t)):
        half = (hi - lo) / 2.0
        centre = (hi + lo) / 2.0
        for x, wt in zip(nodes, weights):
            w = centre + half * x
            mid += half * wt * pdf_t(w) * (1.0 - tail0(-w))
    return total + mid


def cf_self_check(points, p, q, eps, threshold, gbar_rd):
    """Mass balance of the mixture law: both tails plus the clip region."""
    t = float(threshold)
    phi_t = _cf_mixture_averaged(points, p, q, eps, gbar_rd)

    def tail_t(w):
        return 0.5 + _quad_inf(lambda u: (np.exp(-1j * u * w) * phi_t(u)).imag / u) / math.pi

    def pdf_t(w):
        return _quad_inf(lambda u: (np.exp(-1j * u * w) * phi_t(u)).real) / math.pi

    nodes, weights = np.polynomial.legendre.leggauss(64)
    mid = 0.0
    for lo, hi in ((-t, 0.0), (0.0, t)):
        half = (hi - lo) / 2.0
        centre = (hi + lo) / 2.0
        for x, wt in zip(nodes, weights):
            mid += half * wt * pdf_t(centre + half * x)
    return (1.0 - tail_t(-t)) + tail_t(t) + mid


# -- Monte Carlo route ------------------------------------------------------


def event_monte_carlo(points, p, q, eps, threshold, snr_sd, snr_rd, trials,
                      seed, *, conditional=False, chunk=1_000_000):
    """Count clipped-combiner pairwise errors by simulating the signal model.

    ``snr_*`` are mean link SNRs drawn through Rayleigh fading, or the fixed
    instantaneous SNRs when ``conditional`` is set.  Returns (errors, trials);
    trials are independent pairs, so the binomial error bar is exact.
    """
    points = np.asarray(points, dtype=complex)
    m = len(points)
    xbar = points[p] - points[q]
    t = float(threshold)
    rng = np.random.default_rng(seed)
    errors = 0
    done = 0
    while done < trials:
        n = min(chunk, trials - done)
        if conditional:
            h_sd = np.full(n, math.sqrt(snr_sd), dtype=complex)
            h_rd = np.full(n, math.sqrt(snr_rd), dtype=complex)
        else:
            h_sd = rng.normal(scale=math.sqrt(snr_sd / 2.0), size=(n, 2)) @ np.array([1.0, 1j])
            h_rd = rng.normal(scale=math.sqrt(snr_rd / 2.0), size=(n, 2)) @ np.array([1.0, 1j])
        z1 = rng.normal(scale=math.sqrt(0.5), size=(n, 2)) @ np.array([1.0, 1j])
        z2 = rng.normal(scale=math.sqrt(0.5), size=(n, 2)) @ np.array([1.0, 1j])
        z3 = rng.normal(scale=math.sqrt(0.5), size=(n, 2)) @ np.array([1.0, 1j])
        z4 = rng.normal(scale=math.sqrt(0.5), size=(n, 2)) @ np.array([1.0, 1j])
        wrong = rng.random(n) < eps
        other = rng.integers(0, m - 1, size=n)
        other = np.where(other >= p, other + 1, other)
        idx = np.where(wrong, other, p)
        x_r = points[idx]
        y_prev_sd = h_sd + z1
        y_curr_sd = h_sd * points[p] + z2
        y_prev_rd = h_rd + z3
        y_curr_rd = h_rd * x_r + z4
        t0 = (np.conj(y_curr_sd) * y_prev_sd * xbar).real
        tm = (np.conj(y_curr_rd) * y_prev_rd * xbar).real
        lam = t0 + np.clip(tm, -t, t)
        errors += int(np.count_nonzero(lam < 0.0))
        done += n
    return errors, trials


# -- series route -----------------------------------------------------------
#
# Conditional laws expressed as double series over incomplete-gamma and
# Laguerre factors, evaluated by plain summation in signed-free log domain
# (every term is positive for the constellations these oracles accept), then
# averaged over the exponential SNR densities by panelled Gauss-Legendre
# quadrature.  The two-dimensional SNR average of the product terms factors
# link by link, which the evaluation exploits; the quadrature result is
# algebraically identical to the full product grid.
#
# The scalar evaluators below are the finite-series definitions the series
# builds on (incomplete gamma at integer order, Laguerre polynomials by the
# three-term recurrence, and their log-domain forms for the deep tails).  The
# tables further down are their vectorised counterparts.


def _check_finite(name, x):
    x = float(x)
    if not math.isfinite(x):
        raise ValueError(f"{name} must be finite, got {x!r}")
    return x


def _check_order(name, v, minimum):
    if int(v) != v or v < minimum:
        raise ValueError(f"{name} must be an integer >= {minimum}, got {v!r}")
    return int(v)


def incomplete_gamma_upper(v, y):
    """Gamma(v, y) = (v-1)! e^{-y} sum_{k<v} y^k / k!, integer v >= 1, y >= 0."""
    v = _check_order("v", v, 1)
    y = _check_finite("y", y)
    if y < 0.0:
        raise ValueError(f"y must be >= 0, got {y}")
    acc = 0.0
    term = 1.0
    for k in range(v):
        if k > 0:
            term *= y / k
        acc += term
    return math.factorial(v - 1) * math.exp(-y) * acc


def incomplete_gamma_lower(v, y):
    """gamma(v, y) = (v-1)! - Gamma(v, y)."""
    v = _check_order("v", v, 1)
    return math.factorial(v - 1) - incomplete_gamma_upper(v, y)


def laguerre(n, x):
    """L_n(x) by the three-term recurrence."""
    n = _check_order("n", n, 0)
    x = _check_finite("x", x)
    if n == 0:
        return 1.0
    prev = 1.0
    curr = 1.0 - x
    for k in range(1, n):
        prev, curr = curr, ((2 * k + 1 - x) * curr - k * prev) / (k + 1)
    return curr


def laguerre_generalized(alpha, n, x):
    """L_n^alpha(x) by the three-term recurrence; C(n+alpha, n) at x = 0."""
    alpha = _check_order("alpha", alpha, 0)
    n = _check_order("n", n, 0)
    x = _check_finite("x", x)
    if n == 0:
        return 1.0
    prev = 1.0
    curr = 1.0 + alpha - x
    for k in range(1, n):
        prev, curr = curr, ((2 * k + 1 + alpha - x) * curr - (k + alpha) * prev) / (k + 1)
    return curr


def log_incomplete_gamma_upper(v, y):
    """ln Gamma(v, y) for integer v >= 1, safe where Gamma(v, y) underflows."""
    v = _check_order("v", v, 1)
    y = _check_finite("y", y)
    if y < 0.0:
        raise ValueError(f"y must be >= 0, got {y}")
    if y == 0.0:
        return math.lgamma(v)
    q = sp.gammaincc(v, y)
    if q > 1e-280:
        return math.lgamma(v) + math.log(q)
    # The regularised form underflowed; sum the finite series in log domain.
    ks = np.arange(v)
    return float(-y + sp.logsumexp(ks * math.log(y) - sp.gammaln(ks + 1)))


def log_incomplete_gamma_lower(v, y):
    """ln gamma(v, y) for integer v >= 1, safe in the deep left tail.

    Where the regularised lower gamma underflows (y << v), the series
    P(v, y) = y^v e^{-y} / Gamma(v+1) * sum_j y^j / prod_{t<=j}(v+t)
    converges fast.
    """
    v = _check_order("v", v, 1)
    y = _check_finite("y", y)
    if y < 0.0:
        raise ValueError(f"y must be >= 0, got {y}")
    if y == 0.0:
        return -math.inf
    p = sp.gammainc(v, y)
    if p > 1e-280:
        return math.lgamma(v) + math.log(p)
    acc = 0.0
    term = 1.0
    for j in range(1, 10_000):
        term *= y / (v + j)
        acc += term
        if term < 1e-18 * (1.0 + acc):
            break
    log_p = v * math.log(y) - y - math.lgamma(v + 1.0) + math.log1p(acc)
    return math.lgamma(v) + log_p


def _log_laguerre_neg(n_max, x, alpha=0):
    """ln L_n^alpha(-x) for n = 0..n_max at x >= 0; values are all positive."""
    out = np.empty(n_max + 1)
    out[0] = 0.0
    if n_max == 0:
        return out
    prev = 1.0
    curr = 1.0 + alpha + x
    out[1] = math.log(curr)
    shift = 0.0
    for n in range(1, n_max):
        nxt = ((2 * n + alpha + 1 + x) * curr - (n + alpha) * prev) / (n + 1)
        if nxt > 1e280:
            prev = curr / nxt
            shift += math.log(nxt)
            curr = 1.0
        else:
            prev = curr
            curr = nxt
        out[n + 1] = shift + math.log(curr)
    return out


def _log_lower_gamma_table(v_max, y):
    """ln of the unregularised lower incomplete gamma at integer orders."""
    v = np.arange(1, v_max + 1, dtype=float)
    reg = sp.gammainc(v, y)
    with np.errstate(divide="ignore"):
        out = np.log(reg) + sp.gammaln(v)
    deep = reg < 1e-280
    if np.any(deep):
        vv = v[deep]
        acc = np.zeros_like(vv)
        term = np.ones_like(vv)
        for mstep in range(1, 400):
            term = term * y / (vv + mstep)
            acc += term
            if float(np.max(term)) < 1e-18:
                break
        out[deep] = vv * math.log(y) - y - np.log(vv) + np.log1p(acc)
    full = np.empty(v_max + 1)
    full[0] = -math.inf
    full[1:] = out
    return full


def _diag_sums(pref, scale_log, n_factor_log, lag, k_cap, *, diag_factorial,
               chunk=256):
    """ln of the anti-diagonal sums of a triangular double series.

    Entry d of the result is the log of
      sum_{n=0}^{k_cap-d} exp(pref) * r^(n+d) / (n+d)! * f^n * L_n
    with r = exp(scale_log), f = exp(n_factor_log), L_n the tabulated
    Laguerre values, optionally divided by d!.
    """
    glt = sp.gammaln(np.arange(k_cap + 2, dtype=float))
    out = np.full(k_cap + 1, -np.inf)
    n_idx = np.arange(k_cap + 1, dtype=float)
    base_n = n_idx * n_factor_log + lag[: k_cap + 1]
    for start in range(0, k_cap + 1, chunk):
        stop = min(start + chunk, k_cap + 1)
        d = np.arange(start, stop, dtype=int)
        width = k_cap + 1 - start
        n_local = np.arange(width, dtype=int)
        k_tot = d[:, None] + n_local[None, :]
        terms = np.where(
            k_tot <= k_cap,
            pref + k_tot * scale_log - sp.gammaln(k_tot + 1.0) + base_n[None, :width],
            -np.inf,
        )
        if diag_factorial:
            terms = terms - glt[d + 1][:, None]
        out[start:stop] = sp.logsumexp(terms, axis=1)
    return out


def series_tail(abs2, a_i, a_j, gamma, threshold, k_cap=None):
    """One tail factor of the link-statistic law at fixed SNR.

    ``a_i`` drives the exponential prefactor and the Laguerre argument,
    ``a_j`` the power series; with coefficients (c_s, b_s) of symbol s this
    is Pr{t > threshold} for the link carrying s, and with (b_s, c_s) the
    mirrored left tail Pr{t < -threshold}.  Positive coefficients only.
    """
    if a_i <= 0.0 or a_j <= 0.0:
        raise ValueError("series oracle needs positive coefficients")
    if k_cap is None:
        peak = gamma * a_j / 4.0
        k_cap = int(peak + 8.0 * math.sqrt(peak + 1.0) + 60.0)
    pref = -gamma * (2.0 * abs2 - a_i / 8.0)
    lag = _log_laguerre_neg(k_cap, a_i * gamma / 8.0)
    rows = _diag_sums(pref, math.log(gamma * a_j / 4.0), -_LN2, lag, k_cap,
                      diag_factorial=False)
    with np.errstate(divide="ignore"):
        gicc = np.log(sp.gammaincc(np.arange(1, k_cap + 2, dtype=float),
                                   2.0 * threshold))
    return 0.5 * math.exp(sp.logsumexp(rows + gicc))


def _kcap(peak):
    return int(peak + 8.0 * math.sqrt(peak + 1.0) + 80.0)


def _middle_vectors(abs2, a_i, a_j, gamma, k_cap, side):
    """Anti-diagonal sums of one middle-term coefficient table.

    ``side`` is 'pdf' for the relay-link table (powers of a_j*gamma/2) or
    'cdf' for the direct-link table (powers of a_j*gamma/4, halved).
    """
    if a_i <= 0.0 or a_j <= 0.0:
        raise ValueError("series oracle needs positive coefficients")
    pref = -gamma * (2.0 * abs2 - a_i / 8.0)
    lag = _log_laguerre_neg(k_cap, a_i * gamma / 8.0)
    if side == "pdf":
        return _diag_sums(pref, math.log(a_j * gamma / 2.0), -2.0 * _LN2, lag,
                          k_cap, diag_factorial=True)
    if side == "cdf":
        return _diag_sums(pref - _LN2, math.log(a_j * gamma / 4.0), -_LN2, lag,
                          k_cap, diag_factorial=True)
    raise ValueError(f"unknown side {side!r}")


def _seven_sums(pieces, threshold, k_rd, k_sd, chunk=256):
    """Couple relay-side and direct-side vectors through the clip-region grid.

    ``pieces`` is a list of (ln_a, ln_c) vector pairs sharing the coupling
    grid; returns one linear value per pair.
    """
    qlow4 = _log_lower_gamma_table(k_rd + k_sd + 2, 4.0 * threshold)
    i_idx = np.arange(k_sd + 1)
    base_i = -i_idx * _LN2 - sp.gammaln(i_idx + 1.0)
    gl_j = sp.gammaln(i_idx + 1.0)
    acc = [-math.inf] * len(pieces)
    for start in range(0, k_rd + 1, chunk):
        stop = min(start + chunk, k_rd + 1)
        d = np.arange(start, stop)
        terms = qlow4[d[:, None] + i_idx[None, :] + 1] + base_i[None, :]
        inner = np.logaddexp.accumulate(terms, axis=1)
        ln_s = gl_j[None, :] + inner - (d[:, None] + 1.0) * _LN4
        for k, (ln_a, ln_c) in enumerate(pieces):
            block = ln_a[start:stop][:, None] + ln_s + ln_c[None, :]
            acc[k] = np.logaddexp(acc[k], sp.logsumexp(block))
    return [math.exp(a) for a in acc]


def _single_sums(vectors, threshold):
    """The uncoupled clip-region sums paired with the seven-index ones."""
    out = []
    for ln_a in vectors:
        k_rd = len(ln_a) - 1
        qlow2 = _log_lower_gamma_table(k_rd + 1, 2.0 * threshold)
        d = np.arange(k_rd + 1)
        out.append(math.exp(sp.logsumexp(ln_a + qlow2[d + 1] - (d + 1) * _LN2)))
    return out


def _middle_pieces(ln_a7, ln_a8, ln_a9, ln_a10, ln_c_pos, ln_c_neg, eps,
                   threshold, k_rd, k_sd):
    seven = _seven_sums(
        [(ln_a7, ln_c_pos), (ln_a8, ln_c_neg), (ln_a9, ln_c_pos), (ln_a10, ln_c_neg)],
        threshold, k_rd, k_sd,
    )
    single = _single_sums([ln_a8, ln_a10], threshold)
    p7 = (1.0 - eps) * seven[0]
    p8 = (1.0 - eps) * (single[0] - seven[1])
    p9 = eps * seven[2]
    p10 = eps * (single[1] - seven[3])
    return p7 + p8 + p9 + p10


def _mixture_log(vectors, m):
    stack = np.stack(vectors)
    return sp.logsumexp(stack, axis=0) - math.log(m - 1)


def series_middle(points, p, q, eps, threshold, gamma_sd, gamma_rd,
                  k_rd=None, k_sd=None):
    """Clip-region part of the conditional error probability at fixed SNRs."""
    _, abs2, b, c = pair_coefficients(points, p, q)
    m = len(points)
    amax = float(max(b.max(), c.max()))
    if k_rd is None:
        k_rd = _kcap(gamma_rd * amax / 2.0)
    if k_sd is None:
        k_sd = _kcap(gamma_sd * amax / 4.0)
    a_cache = {}
    def avec(ai, aj):
        key = (round(ai, 12), round(aj, 12))
        if key not in a_cache:
            a_cache[key] = _middle_vectors(abs2, ai, aj, gamma_rd, k_rd, "pdf")
        return a_cache[key]
    c_cache = {}
    def cvec(ai, aj):
        key = (round(ai, 12), round(aj, 12))
        if key not in c_cache:
            c_cache[key] = _middle_vectors(abs2, ai, aj, gamma_sd, k_sd, "cdf")
        return c_cache[key]
    others = [i for i in range(m) if i != p]
    ln_a7 = avec(c[p], b[p])
    ln_a8 = avec(b[p], c[p])
    ln_a9 = _mixture_log([avec(c[i], b[i]) for i in others], m)
    ln_a10 = _mixture_log([avec(b[i], c[i]) for i in others], m)
    ln_c_pos = cvec(b[p], c[p])
    ln_c_neg = cvec(c[p], b[p])
    return _middle_pieces(ln_a7, ln_a8, ln_a9, ln_a10, ln_c_pos, ln_c_neg,
                          eps, threshold, k_rd, k_sd)


def series_conditional_pep(points, p, q, eps, threshold, gamma_sd, gamma_rd):
    """Conditional pairwise error probability from the series representation."""
    _, abs2, b, c = pair_coefficients(points, p, q)
    m = len(points)
    others = [i for i in range(m) if i != p]
    def g_sd(ai, aj):
        return series_tail(abs2, ai, aj, gamma_sd, threshold)
    def g_rd(ai, aj):
        return series_tail(abs2, ai, aj, gamma_rd, threshold)
    p1 = 1.0 - g_sd(c[p], b[p])
    p23 = (1.0 - eps) * g_rd(b[p], c[p]) + eps / (m - 1) * sum(
        g_rd(b[i], c[i]) for i in others)
    p4 = g_sd(b[p], c[p])
    p56 = (1.0 - eps) * g_rd(c[p], b[p]) + eps / (m - 1) * sum(
        g_rd(c[i], b[i]) for i in others)
    middle = series_middle(points, p, q, eps, threshold, gamma_sd, gamma_rd)
    return p1 * p23 + p4 * p56 + middle


def series_middle_direct(points, p, q, eps, threshold, gamma_sd, gamma_rd,
                         k_rd, k_sd):
    """Brute-force clip-region sum with the loops written out literally.

    Plain float arithmetic, so only small caps and moderate SNRs; used to
    validate the regrouped evaluation on identical truncation domains.
    """
    _, abs2, b, c = pair_coefficients(points, p, q)
    m = len(points)
    fact = [math.factorial(i) for i in range(k_rd + k_sd + 3)]
    vmax = k_rd + k_sd + 2
    v = np.arange(1, vmax + 1, dtype=float)
    low4 = sp.gammainc(v, 4.0 * threshold) * sp.gamma(v)
    low2 = sp.gammainc(v, 2.0 * threshold) * sp.gamma(v)

    def dmat(ai, aj, gamma, cap, kind):
        lagv = sp.eval_laguerre(np.arange(cap + 1), -ai * gamma / 8.0)
        mat = np.zeros((cap + 1, cap + 1))
        for k in range(cap + 1):
            for n in range(k + 1):
                if kind == "pdf":
                    mat[k, n] = (math.exp(-gamma * (2.0 * abs2 - ai / 8.0))
                                 * (aj * gamma) ** k / (fact[k] * 2.0 ** k)
                                 * lagv[n] / (fact[k - n] * 4.0 ** n))
                else:
                    mat[k, n] = (0.5 * math.exp(-gamma * (2.0 * abs2 - ai / 8.0))
                                 * (aj * gamma) ** k / (fact[k] * 4.0 ** k)
                                 * lagv[n] / (fact[k - n] * 2.0 ** n))
        return mat

    def seven(dm, dbm):
        tot = 0.0
        for k in range(k_rd + 1):
            for n in range(k + 1):
                if dm[k, n] == 0.0:
                    continue
                for m1 in range(k_sd + 1):
                    for l in range(m1 + 1):
                        for i1 in range(m1 - l + 1):
                            tot += (dm[k, n] * dbm[m1, l] * fact[m1 - l]
                                    * 2.0 ** i1 / fact[i1]
                                    * 4.0 ** (n - k - i1 - 1)
                                    * low4[k - n + i1])
        return tot

    def single(dm):
        tot = 0.0
        for k in range(k_rd + 1):
            for n in range(k + 1):
                tot += dm[k, n] * 2.0 ** (n - k - 1) * low2[k - n]
        return tot

    others = [i for i in range(m) if i != p]
    d_a7 = dmat(c[p], b[p], gamma_rd, k_rd, "pdf")
    d_a8 = dmat(b[p], c[p], gamma_rd, k_rd, "pdf")
    d_a9 = sum(dmat(c[i], b[i], gamma_rd, k_rd, "pdf") for i in others) / (m - 1)
    d_a10 = sum(dmat(b[i], c[i], gamma_rd, k_rd, "pdf") for i in others) / (m - 1)
    db_pos = dmat(b[p], c[p], gamma_sd, k_sd, "cdf")
    db_neg = dmat(c[p], b[p], gamma_sd, k_sd, "cdf")
    p7 = (1.0 - eps) * seven(d_a7, db_pos)
    p8 = (1.0 - eps) * (single(d_a8) - seven(d_a8, db_neg))
    p9 = eps * seven(d_a9, db_pos)
    p10 = eps * (single(d_a10) - seven(d_a10, db_neg))
    return p7 + p8 + p9 + p10


def _exp_nodes(gbar, s_max=12.0, per_panel=12):
    """Panelled Gauss-Legendre nodes for averages over an exponential density.

    Returns (gamma nodes, weights); panel edges refine geometrically near the
    origin on the 1/gbar scale where high-SNR integrands concentrate.  The
    tail beyond ``s_max`` mean-multiples is dropped; its mass is below
    exp(-s_max).
    """
    edges = [0.0]
    a = 2.0 / gbar
    while a < s_max:
        edges.append(a)
        a *= 4.0
    edges.append(s_max)
    x, w = np.polynomial.legendre.leggauss(per_panel)
    ss = []
    ww = []
    for lo, hi in zip(edges[:-1], edges[1:]):
        half = (hi - lo) / 2.0
        mid = (hi + lo) / 2.0
        ss.append(mid + half * x)
        ww.append(half * w)
    s = np.concatenate(ss)
    w = np.concatenate(ww)
    return gbar * s, w * np.exp(-s)


def series_pep_average(points, p, q, eps, threshold, gbar_sd, gbar_rd, *,
                       per_panel=12, s_max=12.0):
    """Fading average of the conditional series by numerical quadrature.

    The two-link average of every product term factors link by link, so the
    product-grid quadrature is evaluated in its factored form; the result is
    identical to summing the full grid.
    """
    _, abs2, b, c = pair_coefficients(points, p, q)
    m = len(points)
    others = [i for i in range(m) if i != p]
    nodes_sd, w_nodes_sd = _exp_nodes(gbar_sd, s_max, per_panel)
    nodes_rd, w_nodes_rd = _exp_nodes(gbar_rd, s_max, per_panel)
    amax = float(max(b.max(), c.max()))
    k_rd = _kcap(nodes_rd.max() * amax / 2.0)
    k_sd = _kcap(nodes_sd.max() * amax / 4.0)

    def tail_avg(nodes, weights, ai, aj, cache):
        key = (round(ai, 12), round(aj, 12))
        if key not in cache:
            cache[key] = float(sum(
                wt * series_tail(abs2, ai, aj, gam, threshold)
                for gam, wt in zip(nodes, weights)))
        return cache[key]

    def vec_avg(nodes, weights, ai, aj, k_cap, side, scale, cache):
        key = (round(ai, 12), round(aj, 12))
        if key not in cache:
            acc = np.full(k_cap + 1, -np.inf)
            for gam, wt in zip(nodes, weights):
                local = min(k_cap, _kcap(gam * aj / scale))
                vv = _middle_vectors(abs2, ai, aj, gam, local, side)
                acc[: local + 1] = np.logaddexp(acc[: local + 1], vv + math.log(wt))
            cache[key] = acc
        return cache[key]

    t_sd, t_rd = {}, {}
    p1 = 1.0 - tail_avg(nodes_sd, w_nodes_sd, c[p], b[p], t_sd)
    p23 = (1.0 - eps) * tail_avg(nodes_rd, w_nodes_rd, b[p], c[p], t_rd)
    p23 += eps / (m - 1) * sum(
        tail_avg(nodes_rd, w_nodes_rd, b[i], c[i], t_rd) for i in others)
    p4 = tail_avg(nodes_sd, w_nodes_sd, b[p], c[p], t_sd)
    p56 = (1.0 - eps) * tail_avg(nodes_rd, w_nodes_rd, c[p], b[p], t_rd)
    p56 += eps / (m - 1) * sum(
        tail_avg(nodes_rd, w_nodes_rd, c[i], b[i], t_rd) for i in others)

    va, vc = {}, {}
    ln_a7 = vec_avg(nodes_rd, w_nodes_rd, c[p], b[p], k_rd, "pdf", 2.0, va)
    ln_a8 = vec_avg(nodes_rd, w_nodes_rd, b[p], c[p], k_rd, "pdf", 2.0, va)
    ln_a9 = _mixture_log(
        [vec_avg(nodes_rd, w_nodes_rd, c[i], b[i], k_rd, "pdf", 2.0, va)
         for i in others], m)
    ln_a10 = _mixture_log(
        [vec_avg(nodes_rd, w_nodes_rd, b[i], c[i], k_rd, "pdf", 2.0, va)
         for i in others], m)
    ln_c_pos = vec_avg(nodes_sd, w_nodes_sd, b[p], c[p], k_sd, "cdf", 4.0, vc)
    ln_c_neg = vec_avg(nodes_sd, w_nodes_sd, c[p], b[p], k_sd, "cdf", 4.0, vc)
    middle = _middle_pieces(ln_a7, ln_a8, ln_a9, ln_a10, ln_c_pos, ln_c_neg,
                            eps, threshold, k_rd, k_sd)
    return p1 * p23 + p4 * p56 + middle


# -- error-free-relay asymptotics -------------------------------------------


def _asymptotic_conditional_log(x_p, x_q, n_relays, gamma_t, k_cap=None):
    x_p = complex(x_p)
    x_q = complex(x_q)
    xbar = x_p - x_q
    abs2 = abs(xbar) ** 2
    beta = 2.0 * (x_p.conjugate() * xbar).real
    a1 = 2.0 * abs2 - beta
    a2 = 2.0 * abs2 + beta
    big_n = int(n_relays)
    if gamma_t == 0.0:
        val = sum(math.comb(big_n + n, n) / 2.0 ** (big_n + n + 1)
                  for n in range(big_n + 1))
        return math.log(val)
    if k_cap is None:
        k_cap = _kcap(a1 * gamma_t / 2.0)
    lag = _log_laguerre_neg(k_cap + big_n, a2 * gamma_t / 4.0, alpha=big_n)
    halves = lag - np.arange(k_cap + big_n + 1) * _LN2
    rows = np.empty(k_cap + 1)
    for k in range(k_cap + 1):
        inner = sp.logsumexp(halves[: k + big_n + 1])
        rows[k] = (k * math.log(a1 * gamma_t) - k * _LN2
                   - sp.gammaln(k + 1.0) + inner)
    pref = (beta / 4.0 - 1.5 * abs2) * gamma_t - (big_n + 1) * _LN2
    return pref + sp.logsumexp(rows)


def asymptotic_conditional_direct(x_p, x_q, n_relays, gamma_t, k_cap=None):
    """Conditional error-free-relay error probability, summed term by term."""
    return math.exp(_asymptotic_conditional_log(x_p, x_q, n_relays, gamma_t,
                                                k_cap))


def asymptotic_average_reference(x_p, x_q, n_relays, gbar, nodes=64):
    """Numeric fading average of the conditional error-free-relay series.

    The combined SNR has a gamma density; a rate substitution absorbs the
    known exponential decay of the conditional value so a fixed generalized
    Gauss-Laguerre rule converges.
    """
    x_p = complex(x_p)
    x_q = complex(x_q)
    xbar = x_p - x_q
    abs2 = abs(xbar) ** 2
    beta = 2.0 * (x_p.conjugate() * xbar).real
    big_n = int(n_relays)
    c = 1.5 * abs2 - beta / 4.0
    d = 1.0 + c * gbar
    u, w = sp.roots_genlaguerre(nodes, big_n)
    acc = 0.0
    for ui, wi in zip(u, w):
        ln_val = _asymptotic_conditional_log(x_p, x_q, big_n, gbar * ui / d)
        acc += wi * math.exp(ln_val + ui * c * gbar / d)
    return acc / (math.gamma(big_n + 1.0) * d ** (big_n + 1))


def dpsk_ser_rayleigh(m, gbar):
    """Average M-DPSK symbol error rate over Rayleigh fading.

    Nested quadrature: the conditional SER at instantaneous SNR g is the
    single-integral form (sin(pi/M)/(2 pi)) * int_{-pi/2}^{pi/2}
    exp(-g a(t))/a(t) dt with a(t) = 1 - cos(pi/M) cos(t), integrated
    against the exponential density of g = gbar * s.
    """
    cospm = math.cos(math.pi / m)
    pref = math.sin(math.pi / m) / (2.0 * math.pi)

    def conditional(g):
        val, _ = si.quad(
            lambda t: math.exp(-g * (1.0 - cospm * math.cos(t)))
            / (1.0 - cospm * math.cos(t)),
            -math.pi / 2.0, math.pi / 2.0, limit=200)
        return pref * val

    avg, _ = si.quad(lambda s: math.exp(-s) * conditional(gbar * s),
                            0.0, math.inf, limit=200)
    return avg


def dpsk_epsilon_quad(m, gbar):
    """Average M-DPSK error rate over Rayleigh fading by one adaptive quadrature.

    The fading average of the conditional single-integral form is taken
    inside the integral, leaving sin(pi/M)/(2 pi) times the integral over
    [-pi/2, pi/2] of 1/(a(t) (1 + gbar a(t))), a(t) = 1 - cos(pi/M) cos(t).
    This is the route the relay calibration used before its closed form.
    """
    cospm = math.cos(math.pi / m)

    def integrand(t):
        a = 1.0 - cospm * math.cos(t)
        return 1.0 / (a * (1.0 + gbar * a))

    val, _ = si.quad(integrand, -math.pi / 2, math.pi / 2, epsabs=1e-14, epsrel=1e-12)
    return math.sin(math.pi / m) / (2.0 * math.pi) * val


# -- Gaussian-statistic approximation by nested adaptive quadrature ---------
#
# The adaptive route the quadrature evaluator used before its fading averages
# were put in closed form.  Each statistic is N(z*gamma, scale^2*gamma) given
# the link gain gamma ~ Exp(gbar); tails and densities are averaged over gamma
# by adaptive quadrature, and the clip region [-T, T] by the same 201-node
# Gauss-Legendre rule as production.

_GAUSS_ABS_TOL = 1e-12
_GAUSS_REL_TOL = 1e-9
_GAUSS_LIMIT = 200
_GAUSS_W_NODES = 201


def gaussian_tail_average(tau, z, scale, gbar):
    """Average over gamma ~ Exp(gbar) of Q((tau - z*gamma)/(scale*sqrt(gamma))).

    The semi-infinite range is mapped to (0, 1) by gamma = gbar*u/(1-u).
    """

    def integrand(u):
        frac = u / (1.0 - u)
        g = gbar * frac
        arg = (tau - z * g) / (scale * math.sqrt(g))
        weight = math.exp(-frac) / ((1.0 - u) ** 2)
        if weight == 0.0:
            return 0.0
        return weight * float(sp.ndtr(-arg))

    val, _ = si.quad(integrand, 0.0, 1.0, epsabs=_GAUSS_ABS_TOL,
                     epsrel=_GAUSS_REL_TOL, limit=_GAUSS_LIMIT)
    return val


def gaussian_density_average(w, z, scale, gbar):
    """Average over gamma ~ Exp(gbar) of the N(z*gamma, scale^2*gamma) density at w.

    The map gamma = gbar*(r/(1-r))^2 removes the inverse-square-root endpoint
    of the density while keeping the range on (0, 1).
    """
    pref = 1.0 / (math.sqrt(2.0 * math.pi) * scale)

    def integrand(r):
        frac = r / (1.0 - r)
        g = gbar * frac * frac
        if g == 0.0:
            return 0.0
        jac = 2.0 * gbar * frac / ((1.0 - r) ** 2)
        expo = -g / gbar - (w - z * g) ** 2 / (2.0 * scale * scale * g)
        if expo < -700.0:
            return 0.0
        return (jac / gbar) * math.exp(expo) * pref / math.sqrt(g)

    val, _ = si.quad(integrand, 0.0, 1.0, epsabs=_GAUSS_ABS_TOL,
                     epsrel=_GAUSS_REL_TOL, limit=_GAUSS_LIMIT)
    return val


def gaussian_pep_adaptive(points, p, q, eps, threshold, gbar_sd, gbar_rd):
    """Gaussian-statistic PEP with every fading average done adaptively.

    Statistics are oriented decided-minus-transmitted: the mean of the one
    carrying symbol s is z_s*gamma with z_s = Re{x_s conj(x_q - x_p)}.
    """
    points = np.asarray(points, dtype=complex)
    m = len(points)
    xbar = complex(points[q] - points[p])
    scale = abs(xbar)
    z = np.real(points * np.conj(xbar))
    z_tx = float(z[p])
    t = threshold
    others = [i for i in range(m) if i != p]

    def avg_q(tau, zz, gbar):
        return gaussian_tail_average(tau, zz, scale, gbar)

    sd_hi = avg_q(t, z_tx, gbar_sd)
    rd_lo = (1.0 - eps) * avg_q(t, -z_tx, gbar_rd) + (eps / (m - 1)) * sum(
        avg_q(t, -float(z[i]), gbar_rd) for i in others
    )
    i1 = sd_hi * rd_lo

    sd_lo_c = avg_q(-t, z_tx, gbar_sd)
    rd_hi = (1.0 - eps) * avg_q(t, z_tx, gbar_rd) + (eps / (m - 1)) * sum(
        avg_q(t, float(z[i]), gbar_rd) for i in others
    )
    i2 = sd_lo_c * rd_hi

    if t > 0.0:
        nodes, weights = sp.roots_legendre(_GAUSS_W_NODES)
        w_nodes = t * nodes
        w_weights = t * weights
        g_vals = np.array([avg_q(-w, z_tx, gbar_sd) for w in w_nodes])

        def density_profile(zz):
            return np.array([gaussian_density_average(w, zz, scale, gbar_rd)
                             for w in w_nodes])

        i3 = (1.0 - eps) * float(np.sum(w_weights * density_profile(z_tx) * g_vals))
        mix = np.zeros(_GAUSS_W_NODES)
        for i in others:
            mix += density_profile(float(z[i]))
        i4 = (eps / (m - 1)) * float(np.sum(w_weights * mix * g_vals))
    else:
        i3 = 0.0
        i4 = 0.0
    return min(max(i1 + i2 + i3 + i4, 0.0), 1.0)


def pairwise_select_bruteforce(base, rels, thresholds):
    """All-pairs form of the piecewise-linear rule, one instance at a time.

    base (..., M), rels (..., R, M).  lam[i, j] = base_i - base_j plus the
    relay differences clipped to each relay's threshold; the winner beats
    every rival (lam > 0), and without one the largest row total wins.
    Returns (winners, number of instances without a unanimous winner).
    """
    base = np.asarray(base, dtype=float)
    m = base.shape[-1]
    b2 = base.reshape(-1, m)
    r2 = np.asarray(rels, dtype=float).reshape(b2.shape[0], len(thresholds), m)
    thr = np.asarray(thresholds, dtype=float)[:, None, None]
    winners = np.empty(b2.shape[0], dtype=np.int64)
    n_fallback = 0
    for i in range(b2.shape[0]):
        diffm = r2[i][:, :, None] - r2[i][:, None, :]
        lam = b2[i][:, None] - b2[i][None, :] + np.clip(diffm, -thr, thr).sum(axis=0)
        beats = (lam > 0.0) | np.eye(m, dtype=bool)
        unanimous = np.flatnonzero(beats.all(axis=1))
        if unanimous.size:
            winners[i] = unanimous[0]
        else:
            n_fallback += 1
            winners[i] = np.argmax(lam.sum(axis=1))
    return winners.reshape(base.shape[:-1]), n_fallback


def _mixture_logsumexp(scores, eps):
    """Relay mixture in the log domain, through scipy's logsumexp."""
    m = scores.shape[-1]
    if eps == 0.0:
        return scores
    out = np.empty_like(scores)
    for k in range(m):
        b = np.full(m, eps / (m - 1))
        b[k] = 1.0 - eps
        out[..., k] = sp.logsumexp(scores, axis=-1, b=b)
    return out


def diff_encode_stream(xs):
    """Streaming differential encoder, one symbol at a time.

    v[0] = 1 and v[n] = v[n-1] x[n] / |x[n-1]| with |x[0]| taken as 1; for
    unit-modulus symbols this is v[n] = v[n-1] x[n].  xs has shape (L,);
    returns the (L+1,) transmit stream.
    """
    v = [1.0 + 0.0j]
    prev_mag = 1.0
    for x in xs:
        x = complex(x)
        v.append(v[-1] * x / prev_mag)
        prev_mag = abs(x)
    return np.array(v)


def qam_pair_objective(y_prev, y_curr, noise_var, points, prev_mag):
    """Per-candidate decision objective for differential QAM, broadcastable."""
    energy = np.abs(points) ** 2
    denom = 1.0 + energy / prev_mag**2
    resid = np.abs(y_curr - y_prev * points / prev_mag) ** 2
    return np.log(denom) + resid / (denom * noise_var)


def decode_qam_frames_per_symbol(y_sd, y_rd, sd_noise_var, rd_noise_vars, spec, kind,
                                 epsilons, thresholds, true_source_mags=None,
                                 true_relay_mags=None):
    """Symbol-by-symbol QAM frame decoder: every chain advanced inside one loop.

    y_sd (B, L+1), y_rd (R, B, L+1).  At each symbol the destination first
    re-decides each relay's previous symbol from that relay's last two
    samples (or reads the true magnitudes for genie_reference), then scores
    every link and decides with the literal ``qam_pair_objective``.  Returns
    (decisions (B, L), fallback count).
    """
    n_batch, n_data = y_sd.shape[0], y_sd.shape[1] - 1
    n_rel = len(epsilons)
    mags = np.abs(spec.points)
    genie = kind == "genie_reference"
    decisions = np.empty((n_batch, n_data), dtype=np.int64)
    m0 = np.ones(n_batch)
    mr = np.ones((n_rel, n_batch))
    n_fallback = 0
    for n in range(n_data):
        if n > 0 and genie:
            m0 = true_source_mags[:, n - 1]
            mr = true_relay_mags[:, :, n - 1]
        elif n > 0:
            for r in range(n_rel):
                obj = qam_pair_objective(y_rd[r][:, n - 1, None], y_rd[r][:, n, None],
                                         rd_noise_vars[r], spec.points, mr[r][:, None])
                mr[r] = mags[np.argmin(obj, axis=-1)]
        base = -qam_pair_objective(y_sd[:, n, None], y_sd[:, n + 1, None], sd_noise_var,
                                   spec.points, m0[:, None])
        rels = np.stack([
            -qam_pair_objective(y_rd[r][:, n, None], y_rd[r][:, n + 1, None],
                                rd_noise_vars[r], spec.points, mr[r][:, None])
            for r in range(n_rel)
        ], axis=-2) if n_rel else np.empty((n_batch, 0, spec.M))
        if kind == "pl":
            winners, nf = pairwise_select_bruteforce(base, rels, thresholds)
            n_fallback += nf
        else:
            obj = base.copy()
            for r, eps in enumerate(epsilons):
                obj += _mixture_logsumexp(rels[:, r, :], eps)
            winners = np.argmax(obj, axis=-1)
        decisions[:, n] = winners
        if not genie:
            m0 = mags[winners]
    return decisions, n_fallback
