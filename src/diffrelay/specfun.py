"""Scalar special functions for the analytical SER engine.

Plain-domain evaluators (incomplete gamma, Laguerre) follow the
finite-series definitions that the analysis module builds on.  The log-domain
variants exist because the SER series multiply factorially growing factors by
exponentially small ones; they keep every intermediate in log space.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import special as sp


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


def _check_finite(name: str, x: float) -> float:
    x = float(x)
    if not math.isfinite(x):
        raise ValueError(f"{name} must be finite, got {x!r}")
    return x


def _check_order(name: str, v: int, minimum: int) -> int:
    if int(v) != v or v < minimum:
        raise ValueError(f"{name} must be an integer >= {minimum}, got {v!r}")
    return int(v)


def incomplete_gamma_upper(v: int, y: float) -> float:
    """Upper incomplete gamma for integer order.

    Gamma(v, y) = (v-1)! e^{-y} sum_{k=0}^{v-1} y^k / k!, exact for
    integer v >= 1 and y >= 0.
    """
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


def incomplete_gamma_lower(v: int, y: float) -> float:
    """Lower incomplete gamma gamma(v, y) = (v-1)! - Gamma(v, y)."""
    v = _check_order("v", v, 1)
    return math.factorial(v - 1) - incomplete_gamma_upper(v, y)


def laguerre(n: int, x: float) -> float:
    """Laguerre polynomial L_n(x) by the three-term recurrence."""
    n = _check_order("n", n, 0)
    x = _check_finite("x", x)
    if n == 0:
        return 1.0
    prev = 1.0
    curr = 1.0 - x
    for k in range(1, n):
        prev, curr = curr, ((2 * k + 1 - x) * curr - k * prev) / (k + 1)
    return curr


def laguerre_generalized(alpha: int, n: int, x: float) -> float:
    """Generalized Laguerre polynomial L_n^alpha(x).

    Same polynomial as the binomial series
    sum_{i=0}^{n} (-1)^i C(n+alpha, n-i) x^i / i! (which the tests keep as an
    independent oracle), evaluated by the stable three-term recurrence; at
    x = 0 the value is C(n+alpha, n).
    """
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


def log_incomplete_gamma_upper(v: int, y: float) -> float:
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
    # Regularized form underflowed; use the exact finite series in log domain.
    ks = np.arange(v)
    return float(-y + sp.logsumexp(ks * math.log(y) - sp.gammaln(ks + 1)))


def log_incomplete_gamma_lower(v: int, y: float) -> float:
    """ln gamma(v, y) for integer v >= 1, safe in the deep left tail.

    scipy's regularized lower gamma underflows to 0 when y << v; the fallback
    series P(v, y) = y^v e^{-y} / Gamma(v+1) * sum_j y^j / prod_{t<=j}(v+t)
    converges fast exactly in that regime.
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
