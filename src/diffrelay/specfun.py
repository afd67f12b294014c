"""Series kernels for the high-SNR asymptotic SER evaluators.

``SeriesTruncation`` is the stopping policy of the asymptotic series, and
``log_laguerre_neg_table`` tabulates the Laguerre factors of the conditional
one.  Those series multiply factorially growing factors by exponentially
small ones, so the table stays in log space.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class SeriesTruncation:
    """Stopping policy for infinite series.

    A series evaluation halts at the first of: relative term contribution
    below ``rel_tol``, or ``max_terms`` terms used.  Evaluators report which
    condition fired through their own result types.
    """

    max_terms: int = 200
    rel_tol: float = 1e-10

    def __post_init__(self) -> None:
        if self.max_terms < 1:
            raise ValueError(f"max_terms must be >= 1, got {self.max_terms}")
        if not (self.rel_tol > 0.0):
            raise ValueError(f"rel_tol must be > 0, got {self.rel_tol}")


def _check_order(name: str, v: int, minimum: int) -> int:
    if int(v) != v or v < minimum:
        raise ValueError(f"{name} must be an integer >= {minimum}, got {v!r}")
    return int(v)


def log_laguerre_neg_table(n_max: int, x, alpha: int = 0) -> np.ndarray:
    """ln L_n^alpha(-x) for n = 0..n_max and x >= 0, stacked on axis 0.

    At negative argument every series term of L_n^alpha is positive, and the
    three-term recurrence runs along the dominant (growing) solution, so the
    ratio form below is stable.  Values overflow the linear domain quickly,
    hence the log-space recurrence:

        r_{k+1} = L_k / L_{k+1} = (k+1) / (2k+1+alpha+x - (k+alpha) r_k)

    with r_1 = 1/(1+alpha+x) and ln L_{k+1} = ln L_k - ln r_{k+1}.
    """
    n_max = _check_order("n_max", n_max, 0)
    alpha = _check_order("alpha", alpha, 0)
    x = np.asarray(x, dtype=float)
    if np.any(x < 0.0) or not np.all(np.isfinite(x)):
        raise ValueError("x must be finite and >= 0")
    out = np.empty((n_max + 1,) + x.shape, dtype=float)
    out[0] = 0.0
    if n_max == 0:
        return out
    out[1] = np.log1p(alpha + x)
    r = 1.0 / (1.0 + alpha + x)
    for k in range(1, n_max):
        r = (k + 1.0) / (2.0 * k + 1.0 + alpha + x - (k + alpha) * r)
        out[k + 1] = out[k] - np.log(r)
    return out
