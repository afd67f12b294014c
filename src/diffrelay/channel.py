"""Rayleigh block-fading links with AWGN and reproducible random streams.

Every random draw comes from a counter-based Philox stream addressed by a
small integer path (for example seed, sweep point, batch, link), so any part
of a simulation can be re-generated independently of worker scheduling.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

_STREAM_SALT = 0x9E3779B97F4A7C15
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


def make_stream(seed: int, *path: int) -> np.random.Generator:
    """Counter-based random stream addressed by (seed, path).

    Identical arguments always produce the identical draw sequence, on any
    worker; distinct paths give statistically independent streams.
    """
    if len(path) > 3:
        raise ValueError(f"stream path supports at most 3 components, got {len(path)}")
    counter = [0, 0, 0, 0]
    for i, part in enumerate(path):
        if part < 0:
            raise ValueError(f"stream path components must be >= 0, got {part}")
        counter[1 + i] = int(part) & _MASK64
    key = [int(seed) & _MASK64, _STREAM_SALT]
    return np.random.Generator(np.random.Philox(counter=counter, key=key))


def draw_block_gain(link: LinkParams, rng: np.random.Generator, size=None):
    """Circular complex Gaussian gain h with E|h|^2 = link.sigma2."""
    scale = np.sqrt(link.sigma2 / 2.0)
    h = rng.normal(0.0, scale, size=size) + 1j * rng.normal(0.0, scale, size=size)
    return complex(h) if size is None else h


def draw_noise(noise_var: float, rng: np.random.Generator, size=None):
    """Complex AWGN with total variance noise_var."""
    scale = np.sqrt(noise_var / 2.0)
    e = rng.normal(0.0, scale, size=size) + 1j * rng.normal(0.0, scale, size=size)
    return complex(e) if size is None else e
