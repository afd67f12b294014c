"""Relay-side differential demodulation, re-encoding, and error-rate calibration.

The relay decodes each received symbol from the previous and current samples
only (no channel state information), re-encodes its decisions differentially,
and forwards them.  The average probability that a relay decision is wrong is
the quantity the destination decoders need; it is measured here, either by
Monte Carlo simulation or, for PSK, from the closed form of the exact
differential-detection error rate averaged over the fading distribution.

Kernel layouts.  The DPSK decision is one rounded phase per symbol.  The
QAM chain is sequential in time and batched over all leading axes, so one
call runs every relay's frames, (R, B, L+1), with per-relay noise variances.
Calibration draws its trials in chunks of 65,536 and runs the QAM detector
over blocks of _QAM_DETECT_BLOCK draws of a chunk, so its (draws x M)
scores never span the whole chunk; the draws do not depend on the block.

Ring tables.  The QAM objective of a sample pair depends on the previous
symbol only through its magnitude, so each alphabet gets one cached table
with M+1 rows: row 0 follows the unit reference and row p+1 follows point p.
A row holds the candidates scaled by the previous magnitude, log(denom) and
1/denom, and ``qam_objective`` looks rows up by index instead of taking a
complex division and a log per call.
"""

from __future__ import annotations

import csv
import functools
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .channel import LinkParams, draw_block_gain, draw_noise, make_stream
from .constellation import ConstellationSpec
from .diffmod import encode_psk_frame, encode_qam_frame

# Draws per block of calibration's QAM detector: its (draws x M) scores stay
# small beside the chunk's samples.
_QAM_DETECT_BLOCK = 4096


@dataclass(frozen=True)
class EpsilonEstimate:
    """Average relay symbol error probability with its provenance.

    ``trials`` is the Monte Carlo trial count, 0 for the analytic value.
    """

    value: float
    trials: int
    std_err: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.value < 1.0:
            raise ValueError(f"value must be in [0, 1), got {self.value}")
        if self.trials < 0:
            raise ValueError(f"trials must be >= 0, got {self.trials}")
        if self.std_err < 0.0:
            raise ValueError(f"std_err must be >= 0, got {self.std_err}")


def demod_psk_frame(y: np.ndarray, spec: ConstellationSpec) -> np.ndarray:
    """Vectorized differential PSK decisions over a frame.

    ``y`` has shape (..., L+1) including the reference symbol; the result has
    shape (..., L) of symbol indices.  The candidate maximizing
    Re(z x_k), z = conj(y[n+1]) y[n], is the point nearest in phase to
    conj(z): k = rint(-angle(z) M / 2 pi) mod M.
    """
    if spec.kind != "psk":
        raise ValueError(f"expected a psk constellation, got {spec.kind!r}")
    return psk_sector(pair_products(np.asarray(y)), spec.M)


def pair_products(y):
    """conj(y[n+1]) y[n] over the sample pairs of frames y (..., L+1)."""
    z = np.conj(y[..., 1:])
    return np.multiply(z, y[..., :-1], out=z)


def psk_sector(z, m: int) -> np.ndarray:
    """rint(-angle(z) M / 2 pi) mod M: the M-PSK point nearest in phase to conj(z).

    The rounded value lies in [-M/2, M/2], so it is shifted by M while still
    a float and reduced by a table of 2M residues: about 2 ns an element,
    where numpy's int64 modulo of the signed values takes about 10.
    """
    k = np.angle(z)
    k *= -m / (2.0 * math.pi)
    np.rint(k, out=k)
    k += m
    return (np.arange(2 * m) % m)[k.astype(np.int64)]


@functools.lru_cache(maxsize=16)
def _ring_table(spec: ConstellationSpec):
    """(points / prev_mag, log(denom), 1/denom), one row per previous symbol."""
    prev_mag = np.concatenate(([1.0], np.abs(spec.points)))[:, None]
    denom = 1.0 + np.abs(spec.points) ** 2 / prev_mag**2
    return spec.points / prev_mag, np.log(denom), 1.0 / denom


def qam_objective(y_prev, y_curr, noise_var, spec: ConstellationSpec, prev_row):
    """Differential QAM decision objective, candidates on a new last axis.

    Entry k is log(d_k) + |y_curr - y_prev x_k / a|^2 / (d_k noise_var),
    with a the previous symbol's magnitude and d_k = 1 + |x_k|^2 / a^2; the
    smallest entry is the decision.  ``prev_row`` holds each pair's ring
    table row (0 after the reference, p+1 after point p); the samples and
    ``noise_var`` broadcast against it.
    """
    scaled, log_denom, inv_denom = _ring_table(spec)
    d = np.multiply(np.asarray(y_prev)[..., None], scaled[prev_row])
    d -= np.asarray(y_curr)[..., None]
    obj = np.square(d.real)
    obj += np.square(d.imag)
    obj *= inv_denom[prev_row]
    obj /= np.asarray(noise_var, dtype=float)[..., None]
    obj += log_denom[prev_row]
    return obj


def demod_qam_frame(
    y: np.ndarray, spec: ConstellationSpec, noise_var: float | np.ndarray
) -> np.ndarray:
    """Sequential differential QAM decisions over a frame.

    The previous symbol is fed back from the relay's own decisions, starting
    from the unit reference.  ``noise_var`` broadcasts against the leading
    shape, as (R, 1) does for R relays' (R, B, L+1).
    """
    if spec.kind != "qam":
        raise ValueError(f"expected a qam constellation, got {spec.kind!r}")
    noise_var = np.asarray(noise_var, dtype=float)
    if not np.all(noise_var > 0.0):
        raise ValueError(f"noise_var must be > 0, got {noise_var}")
    y = np.asarray(y)
    n_data = y.shape[-1] - 1
    decisions = np.empty(y.shape[:-1] + (n_data,), dtype=np.int64)
    if decisions.size == 0:  # nothing to decide, e.g. a stack of no relays
        return decisions
    row = np.zeros(y.shape[:-1], dtype=np.int64)
    for n in range(n_data):
        d = np.argmin(qam_objective(y[..., n], y[..., n + 1], noise_var, spec, row), axis=-1)
        decisions[..., n] = d
        row = d + 1
    return decisions


def relay_process_frame(
    y: np.ndarray, spec: ConstellationSpec, noise_var: float | np.ndarray
):
    """Demodulate a received frame and differentially re-encode the decisions.

    Returns (v_r, decisions) where v_r is the relay's transmit frame including
    its reference symbol.  Several relays' frames go in one call as
    (R, B, L+1), with ``noise_var`` as for ``demod_qam_frame``.
    """
    y = np.asarray(y)
    if y.shape[-1] < 2:
        raise ValueError("a frame needs at least the reference and one data symbol")
    if spec.kind == "psk":
        decisions = demod_psk_frame(y, spec)
        return encode_psk_frame(decisions, spec), decisions
    decisions = demod_qam_frame(y, spec, noise_var)
    return encode_qam_frame(decisions, spec), decisions


def _simulate_error_fraction(
    link: LinkParams, spec: ConstellationSpec, trials: int, rng: np.random.Generator
) -> tuple[int, int]:
    """Count relay demodulation errors over independent fading realizations.

    Each trial draws its own gain and a fresh symbol pair, so outcomes are
    i.i.d. and the binomial standard error of the frequency is exact.  QAM
    trials use the true previous-symbol magnitude, drawn uniformly over the
    constellation.
    """
    errors = 0
    total = 0
    chunk = 1 << 16
    for start in range(0, trials, chunk):
        b = min(chunk, trials - start)
        idx = rng.integers(0, spec.M, size=b)
        iprev = rng.integers(0, spec.M, size=b)
        x_prev = spec.points[iprev]
        v_curr = x_prev * spec.points[idx]
        if spec.kind == "qam":
            v_curr /= np.abs(x_prev)
        h = draw_block_gain(link, rng, size=b)
        y = h[:, None] * np.stack([x_prev, v_curr], axis=-1)
        y += draw_noise(link.noise_var, rng, size=(b, 2))
        if spec.kind == "psk":
            d = demod_psk_frame(y, spec)[:, 0]
        else:
            d = np.empty(b, dtype=np.int64)
            for lo in range(0, b, _QAM_DETECT_BLOCK):
                blk = slice(lo, lo + _QAM_DETECT_BLOCK)
                obj = qam_objective(y[blk, 0], y[blk, 1], link.noise_var, spec, iprev[blk] + 1)
                d[blk] = np.argmin(obj, axis=-1)
        errors += int(np.count_nonzero(d != idx))
        total += b
    return errors, total


def analytic_epsilon_psk(link: LinkParams, spec: ConstellationSpec) -> float:
    """Exact average error rate of differential PSK detection over Rayleigh fading.

    With c = cos(pi/M), s = sin(pi/M) and a(t) = 1 - c cos t, averaging the
    conditional error rate over the exponential SNR density gives

        eps = s/(2 pi) int_{-pi/2}^{pi/2} dt / (a(t) (1 + gbar a(t)))

    (Pawula, Rice & Roberts 1982; Simon & Alouini 2005, ch. 8).  The integrand
    is 1/a - 1/(a + d) with d = 1/gbar, and each piece integrates in closed
    form: int dt/(p - c cos t) = 4 arctan(sqrt((p+c)/(p-c))) / sqrt(p^2 - c^2).
    The plain difference of the two pieces cancels at high SNR, so it is
    arranged without a subtraction.  With p = 1 + d, r = sqrt(p^2 - c^2),
    u = cot(pi/(2M)) = sqrt((1+c)/(1-c)) and v = sqrt((p+c)/(p-c)),

        eps = (2/pi) [arctan(u) d(2+d) / (r (r+s)) + s atan2(u-v, 1+uv) / r]

    where arctan(u) = pi (M-1)/(2M), 1/s - 1/r = d(2+d)/(r s (r+s)) uses
    r^2 - s^2 = d(2+d), and u - v = 2cd / ((1-c)(p-c)(u+v)); 1 - c is formed
    as 2 sin^2(pi/(2M)).  Agrees with 40-digit arithmetic to about 6e-16
    relative for M up to 32 at 0-60 dB.
    """
    if spec.kind != "psk":
        raise ValueError("analytic_approx is available for psk constellations only")
    m = spec.M
    d = 1.0 / link.avg_snr
    c = math.cos(math.pi / m)
    s = math.sin(math.pi / m)
    one_minus_c = 2.0 * math.sin(math.pi / (2 * m)) ** 2
    p_minus_c = d + one_minus_c
    p_plus_c = 2.0 + d - one_minus_c
    r2_minus_s2 = d * (2.0 + d)
    r = math.sqrt(r2_minus_s2 + s * s)
    u = 1.0 / math.tan(math.pi / (2 * m))
    v = math.sqrt(p_plus_c / p_minus_c)
    u_minus_v = 2.0 * c * d / (one_minus_c * p_minus_c * (u + v))
    atan_u = math.pi * (m - 1) / (2 * m)
    scaled = atan_u * r2_minus_s2 / (r * (r + s)) + s * math.atan2(u_minus_v, 1.0 + u * v) / r
    return 2.0 / math.pi * scaled


def calibrate_epsilon(
    link: LinkParams,
    spec: ConstellationSpec,
    method: str = "monte_carlo",
    trials: int = 1_000_000,
    seed: int = 0,
    rng: np.random.Generator | None = None,
    target_std_err: float | None = None,
) -> EpsilonEstimate:
    """Estimate the relay's average symbol error probability for one link."""
    if method == "analytic_approx":
        value = analytic_epsilon_psk(link, spec)
        return EpsilonEstimate(value=value, trials=0, std_err=0.0)
    if method != "monte_carlo":
        raise ValueError(f"unknown method {method!r}")
    if trials <= 0:
        raise ValueError(f"trials must be > 0, got {trials}")
    if rng is None:
        snr_code = int(round(10.0 * math.log10(link.avg_snr) * 100.0)) % (1 << 64)
        rng = make_stream(seed, spec.M, snr_code)
    errors, total = _simulate_error_fraction(link, spec, trials, rng)
    value = errors / total
    std_err = math.sqrt(max(value * (1.0 - value), 1.0 / total) / total)
    if target_std_err is not None and std_err > target_std_err:
        warnings.warn(
            f"calibration budget too small: std_err {std_err:.3g} exceeds "
            f"target {target_std_err:.3g}",
            stacklevel=2,
        )
    return EpsilonEstimate(value=value, trials=total, std_err=std_err)


def save_epsilon_table(path, table: dict) -> None:
    """Persist calibration results keyed by (kind, M, snr_db) as CSV."""
    rows = sorted(table.items(), key=lambda kv: (kv[0][0], kv[0][1], kv[0][2]))
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["M", "kind", "snr_db", "epsilon", "std_err", "trials"])
        for (kind, m, snr_db), est in rows:
            writer.writerow([m, kind, repr(float(snr_db)), repr(est.value),
                             repr(est.std_err), est.trials])


def load_epsilon_table(path) -> dict:
    """Load a calibration table written by save_epsilon_table."""
    table = {}
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        for row in reader:
            est = EpsilonEstimate(
                value=float(row["epsilon"]),
                trials=int(row["trials"]),
                std_err=float(row["std_err"]),
            )
            table[(row["kind"], int(row["M"]), float(row["snr_db"]))] = est
    return table
