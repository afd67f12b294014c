"""Symbol alphabets: M-PSK and M-QAM point sets and their nearest neighbors.

Points are stored in a fixed, documented order (PSK: increasing phase from
1+0j; QAM: lexicographic by real then imaginary part) so indices are stable
across runs.  All indices are 0-based positions into ``points``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

_QAM_SIZES = (8, 16, 32, 64)

# Neighbor ties are exact by symmetry up to last-ulp rounding.
_TIE_RTOL = 1e-9


@dataclass(frozen=True, eq=False)
class ConstellationSpec:
    """A symbol alphabet: its kind, size and points."""

    kind: str
    M: int
    points: np.ndarray


def make_psk(M: int) -> ConstellationSpec:
    """Unit-modulus M-PSK alphabet, point k at phase 2*pi*k/M."""
    if int(M) != M or M < 2:
        raise ValueError(f"PSK size must be an integer >= 2, got {M!r}")
    M = int(M)
    phases = 2.0 * np.pi * np.arange(M) / M
    points = np.exp(1j * phases)
    points[0] = 1.0 + 0.0j
    return ConstellationSpec("psk", M, points)


def make_qam(M: int) -> ConstellationSpec:
    """M-QAM alphabet scaled to unit average energy.

    16 and 64 are square grids; 8 is the 3x3 grid without its center point;
    32 is the 6x6 grid without its four corners.
    """
    if M not in _QAM_SIZES:
        raise ValueError(f"QAM size must be one of {_QAM_SIZES}, got {M!r}")
    if M == 8:
        levels = np.array([-2.0, 0.0, 2.0])
        grid = [complex(a, b) for a in levels for b in levels if not (a == 0.0 and b == 0.0)]
        scale = np.sqrt(6.0)
    elif M == 16:
        levels = np.array([-3.0, -1.0, 1.0, 3.0])
        grid = [complex(a, b) for a in levels for b in levels]
        scale = np.sqrt(10.0)
    elif M == 32:
        levels = np.array([-5.0, -3.0, -1.0, 1.0, 3.0, 5.0])
        grid = [
            complex(a, b)
            for a in levels
            for b in levels
            if not (abs(a) == 5.0 and abs(b) == 5.0)
        ]
        scale = np.sqrt(20.0)
    else:
        levels = np.array([-7.0, -5.0, -3.0, -1.0, 1.0, 3.0, 5.0, 7.0])
        grid = [complex(a, b) for a in levels for b in levels]
        scale = np.sqrt(42.0)
    pts = sorted(grid, key=lambda p: (p.real, p.imag))
    return ConstellationSpec("qam", M, np.asarray(pts, dtype=complex) / scale)


def nearest_neighbors(spec: ConstellationSpec, index: int) -> list[int]:
    """Indices of all points at minimal distance from ``spec.points[index]``."""
    if int(index) != index or not 0 <= index < spec.M:
        raise ValueError(f"index must be in [0, {spec.M}), got {index!r}")
    index = int(index)
    dist = np.abs(spec.points - spec.points[index])
    dist[index] = np.inf
    return [int(j) for j in np.flatnonzero(dist <= dist.min() * (1.0 + _TIE_RTOL))]
