"""Differential encoding for unitary (PSK) and non-unitary (QAM) alphabets.

Unitary encoding multiplies phases: v[n] = v[n-1] * x[n].  Non-unitary
encoding divides out the previous symbol's magnitude so the transmitted
power tracks the alphabet's: v[n] = v[n-1] * x[n] / |x[n-1]|, which makes
|v[n]| = |x[n]| hold exactly along the whole stream.  Both streams start
from the initialization symbol v[0] = 1 with |x[0]| taken as 1.
"""

from __future__ import annotations

import numpy as np

from .constellation import ConstellationSpec


def encode_psk_frame(indices: np.ndarray, spec: ConstellationSpec) -> np.ndarray:
    """Vectorized PSK encoding of index frames.

    ``indices`` has shape (..., L); the result has shape (..., L+1) with the
    initialization symbol in slot 0.  Phase accumulation is done on integer
    indices, so every transmitted symbol is an exact constellation point.
    """
    indices = np.asarray(indices)
    if spec.kind != "psk":
        raise ValueError("encode_psk_frame requires a PSK alphabet")
    csum = np.cumsum(indices, axis=-1) % spec.M
    out = np.empty(indices.shape[:-1] + (indices.shape[-1] + 1,), dtype=complex)
    out[..., 0] = 1.0
    out[..., 1:] = spec.points[csum]
    return out


def encode_qam_frame(indices: np.ndarray, spec: ConstellationSpec) -> np.ndarray:
    """Vectorized QAM encoding of index frames; same shapes as the PSK form."""
    indices = np.asarray(indices)
    if spec.kind != "qam":
        raise ValueError("encode_qam_frame requires a QAM alphabet")
    x = spec.points[indices]
    unit = x / np.abs(x)
    phase = np.cumprod(unit, axis=-1)
    out = np.empty(indices.shape[:-1] + (indices.shape[-1] + 1,), dtype=complex)
    out[..., 0] = 1.0
    out[..., 1] = x[..., 0]
    out[..., 2:] = x[..., 1:] * phase[..., :-1]
    return out
