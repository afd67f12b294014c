"""Rayleigh block-fading links with AWGN and reproducible random streams.

Every random draw comes from a counter-based Philox stream addressed by a
small integer path (for example seed, sweep point, batch, link), so any part
of a simulation can be re-generated independently of worker scheduling.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

_STREAM_SALT = 0x9E3779B97F4A7C15
_CALIBRATION_SALT = 0xC2B2AE3D27D4EB4F
_MASK64 = (1 << 64) - 1


@dataclass(frozen=True)
class LinkParams:
    """One fading link: channel gain variance and noise variance."""

    sigma2: float
    noise_var: float

    def __post_init__(self) -> None:
        if not self.sigma2 > 0.0:
            raise ValueError(f"sigma2 must be > 0, got {self.sigma2}")
        if not self.noise_var > 0.0:
            raise ValueError(f"noise_var must be > 0, got {self.noise_var}")

    @property
    def avg_snr(self) -> float:
        """Average SNR of the link, sigma2 over this link's own noise variance."""
        return self.sigma2 / self.noise_var


def make_stream(seed: int, *path: int, salt: int = _STREAM_SALT) -> np.random.Generator:
    """Counter-based random stream addressed by (seed, path).

    Identical arguments always produce the identical draw sequence, on any
    worker; distinct paths give statistically independent streams.  The
    seed is the first word of the key, so one outside [0, 2**64) is refused
    rather than folded onto another seed's streams.  The salt is the second
    word: every simulation stream has the default, so a stream with another
    salt shares no address with any.
    """
    if len(path) > 3:
        raise ValueError(f"stream path supports at most 3 components, got {len(path)}")
    if not 0 <= seed <= _MASK64:
        raise ValueError(f"stream seed must lie in [0, 2**64), got {seed}")
    counter = [0, 0, 0, 0]
    for i, part in enumerate(path):
        if part < 0:
            raise ValueError(f"stream path components must be >= 0, got {part}")
        counter[1 + i] = int(part) & _MASK64
    key = [int(seed), salt]
    return np.random.Generator(np.random.Philox(counter=counter, key=key))


def calibration_stream(seed: int, kind: str, m: int, snr_db: float) -> np.random.Generator:
    """Monte Carlo epsilon calibration stream addressed by (seed, kind, M, SNR).

    The SNR enters in millionths of a dB, as a 64-bit two's complement, so
    a negative dB value has a stream of its own; a salt of its own keeps
    every calibration stream apart from the simulation streams.
    """
    snr_code = round(snr_db * 1e6) & _MASK64
    return make_stream(seed, ("psk", "qam").index(kind), m, snr_code, salt=_CALIBRATION_SALT)


def draw_block_gain(link: LinkParams, rng: np.random.Generator, size=None, out=None):
    """Circular complex Gaussian gain h with E|h|^2 = link.sigma2 (into out, if given)."""
    return _complex_normal(np.sqrt(link.sigma2 / 2.0), rng, size, out)


def draw_noise(noise_var: float, rng: np.random.Generator, size=None, out=None):
    """Complex AWGN with total variance noise_var (into out, if given)."""
    return _complex_normal(np.sqrt(noise_var / 2.0), rng, size, out)


def _complex_normal(scale, rng, size, out):
    """Real parts, then imaginary parts, each rng.normal(0.0, scale, size).

    normal(0, s) returns 0.0 + s z for a standard normal z, so each part is
    drawn into one float plane, scaled and written into place: the same
    draws and the same bytes, with no complex temporaries.  out, when
    given, must have shape size; without either, the result is a complex.
    """
    scalar = size is None and out is None
    if out is None:
        out = np.empty(() if size is None else size, dtype=complex)
    plane = np.empty(out.shape)
    for part in (out.real, out.imag):
        rng.standard_normal(size, out=plane)
        plane *= scale
        np.add(plane, 0.0, out=part)
    return complex(out) if scalar else out
