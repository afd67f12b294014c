"""Destination-side decoders for differential decode-and-forward relaying.

The destination observes the direct link and each relay link as consecutive
sample pairs and combines them knowing only noise variances and each relay's
average decision error probability.  Two decoder families are provided:

* the exact maximum-likelihood rule, which mixes each relay's contribution
  over the relay being right or wrong, evaluated in the log domain;
* the piecewise-linear rule, which replaces the mixture nonlinearity by a
  clipped linear function of per-link statistic differences and selects the
  winner through pairwise comparisons.

QAM decoding needs the magnitude of each link's previous symbol; those are
fed back either from the destination's own decisions (decision-directed) or
from the true values (genie reference).  The decoders take whole frames and
carry the previous symbol as a row index into the relay module's ring table,
so every QAM score is a table lookup (``relay.qam_objective``).

Kernel layouts.  Scores keep candidates last, (..., M), and relays first,
(R, ..., M), so the ML mixture reduces over contiguous rows.  The pairwise
tournament runs candidate-major, (M, n) and (M, R, n), carrying the
champion's values instead of gathering them.  QAM frames score and mix every
relay link over (R, B, L, M) before the per-symbol loop, which keeps only
the direct link's score, the combination and the decision; B may be a
worker's whole share of a round, so the loop's overhead is paid once per
share.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .channel import make_stream
from .constellation import ConstellationSpec, make_psk
from .relay import demod_qam_frame, qam_objective

_KINDS = ("ml", "pl", "naive_eps0", "genie_reference")
_EXP_CLAMP = 700.0


@dataclass(frozen=True)
class DecoderConfig:
    """Decoder family plus per-relay reliability parameters."""

    kind: str
    epsilons: tuple[float, ...] = ()

    def __post_init__(self) -> None:
        if self.kind not in _KINDS:
            raise ValueError(f"kind must be one of {_KINDS}, got {self.kind!r}")
        if any(not 0.0 <= e < 1.0 for e in self.epsilons):
            raise ValueError("epsilons must lie in [0, 1)")

    def effective_epsilons(self) -> tuple[float, ...]:
        if self.kind == "naive_eps0":
            return tuple(0.0 for _ in self.epsilons)
        return self.epsilons

    def resolved_thresholds(self, m: int) -> tuple[float, ...]:
        return tuple(
            clip_threshold(m, e) if e > 0.0 else math.inf for e in self.effective_epsilons()
        )


def clip_threshold(m: int, eps: float) -> float:
    """Clipping level of the piecewise-linear relay statistic, in nats."""
    if m < 2:
        raise ValueError(f"m must be >= 2, got {m}")
    if not 0.0 < eps < 1.0:
        raise ValueError(f"eps must lie in (0, 1), got {eps}")
    return math.log((m - 1) * (1.0 - eps) / eps)


def _psk_statistics(y, points, noise_var):
    """Per-candidate correlation statistics of the sample pairs of frames y.

    y has shape (..., L+1); the result has shape (..., L, M), or (M, n) over
    the n flattened pairs when points is a column (candidate-major).
    """
    z = np.conj(y[..., 1:]) * y[..., :-1]
    if points.ndim == 1:
        return np.real(z[..., None] * points) / noise_var
    return np.real(z.ravel() * points) / noise_var


def _mixture_log_scores(scores, eps):
    """Log of the right-or-wrong relay mixture applied to one relay's scores.

    scores has candidates on the last axis; entry k of the result is the log
    of (1-eps) exp(scores[k]) + eps/(M-1) sum over i != k of exp(scores[i]),
    evaluated as mx + log((1-eps) e_k + w (S - e_k)) with mx the largest
    score, e = exp(scores - mx) and S the sum of e.
    """
    scores = np.asarray(scores, dtype=float)
    if eps == 0.0:
        return scores
    mx = scores.max(axis=-1, keepdims=True)
    e = np.exp(scores - mx)
    mix = e.sum(axis=-1, keepdims=True) - e
    mix *= eps / (scores.shape[-1] - 1)
    mix += (1.0 - eps) * e
    np.log(mix, out=mix)
    mix += mx
    return mix


def _ml_objective(base, rels, epsilons):
    """base (..., M) plus the mixture log-scores of relay-major rels (R, ..., M)."""
    obj = np.array(base, dtype=float)
    for scores, eps in zip(rels, epsilons):
        obj += _mixture_log_scores(scores, eps)
    return obj


def _tournament(base, rels, thresholds):
    """Winner of the pairwise clipped-statistic rule, candidate-major.

    base has shape (M, n) and rels (M, R, n).  A candidate wins when its
    pairwise statistic against every rival is positive; a champion found by a
    sequential tournament is verified against all rivals, and when no
    unanimous winner exists the candidate with the largest total pairwise
    statistic is chosen (lowest index on ties).  The champion's own base and
    relay values are carried along and overwritten where it loses, so no
    step gathers.  Returns (winners of shape (n,), number of instances that
    needed the total-statistic fallback).
    """
    m, n = base.shape
    thr = np.asarray(thresholds, dtype=float)[:, None]
    champ = np.zeros(n, dtype=np.int64)
    cb = base[0].copy()
    cr = rels[0].copy()
    for q in range(1, m):
        lam = cb - base[q]
        lam += np.clip(cr - rels[q], -thr, thr).sum(axis=0)
        lose = ~(lam > 0.0)
        np.putmask(champ, lose, q)
        np.copyto(cb, base[q], where=lose)
        np.copyto(cr, rels[q], where=lose)
    lam_all = cb - base
    lam_all += np.clip(cr - rels, -thr, thr).sum(axis=1)
    # the champion's statistic against itself is exactly 0, never positive
    bad = np.flatnonzero(np.count_nonzero(lam_all > 0.0, axis=0) < m - 1)
    if bad.size:
        b2 = base[:, bad].T
        r2 = rels[:, :, bad].T
        diff0 = b2[:, :, None] - b2[:, None, :]
        diffm = r2[:, :, :, None] - r2[:, :, None, :]
        lam_mat = diff0 + np.clip(diffm, -thr[..., None], thr[..., None]).sum(axis=1)
        champ[bad] = np.argmax(lam_mat.sum(axis=-1), axis=-1)
    return champ, int(bad.size)


def _check_psk(spec: ConstellationSpec) -> None:
    if spec.kind != "psk":
        raise ValueError(f"expected a psk constellation, got {spec.kind!r}")


def _check_qam(spec: ConstellationSpec) -> None:
    if spec.kind != "qam":
        raise ValueError(f"expected a qam constellation, got {spec.kind!r}")


def decode_psk_frames(y_sd, y_rd, sd_noise_var, rd_noise_vars, spec, cfg):
    """Decode whole PSK frames at once.

    y_sd has shape (..., L+1) and y_rd shape (R, ..., L+1); returns
    (indices of shape (..., L), pairwise-fallback count).
    """
    _check_psk(spec)
    y_sd = np.asarray(y_sd)
    y_rd = np.asarray(y_rd)
    if y_rd.shape[0] != len(cfg.epsilons) or len(rd_noise_vars) != len(cfg.epsilons):
        raise ValueError("relay counts of observations, noise vars, and config differ")
    if cfg.kind == "pl":
        points = spec.points[:, None]
        t0 = _psk_statistics(y_sd, points, sd_noise_var)
        rels = np.empty((spec.M, len(rd_noise_vars), t0.shape[1]))
        for r, nv in enumerate(rd_noise_vars):
            rels[:, r] = _psk_statistics(y_rd[r], points, nv)
        winners, n_fallback = _tournament(t0, rels, cfg.resolved_thresholds(spec.M))
        return winners.reshape(y_sd.shape[:-1] + (-1,)), n_fallback
    t0 = _psk_statistics(y_sd, spec.points, sd_noise_var)
    rels = [_psk_statistics(y, spec.points, nv) for y, nv in zip(y_rd, rd_noise_vars)]
    obj = _ml_objective(t0, rels, cfg.effective_epsilons())
    return np.argmax(obj, axis=-1), 0


def decode_qam_frames(
    y_sd,
    y_rd,
    sd_noise_var,
    rd_noise_vars,
    spec,
    cfg,
    true_source_idx=None,
    true_relay_idx=None,
):
    """Decode whole QAM frames, running the magnitude feedback chains.

    y_sd has shape (B, L+1) and y_rd shape (R, B, L+1).  Decision-directed
    operation feeds each link's previous symbol from the destination's own
    decisions; the genie_reference kind reads the true ones (source symbols
    and relay transmit decisions) instead, which must then be supplied as
    (B, L) and (R, B, L) index arrays.  Returns (indices of shape (B, L),
    pairwise-fallback count).

    The destination's estimate of a relay's chain depends only on that
    relay's samples, so it runs first, for all relays at once, and fixes
    every relay-link score before the direct link's decision-directed loop.
    """
    _check_qam(spec)
    y_sd = np.asarray(y_sd)
    y_rd = np.asarray(y_rd)
    n_rel = len(cfg.epsilons)
    if y_rd.shape[0] != n_rel or len(rd_noise_vars) != n_rel:
        raise ValueError("relay counts of observations, noise vars, and config differ")
    genie = cfg.kind == "genie_reference"
    if genie and (true_source_idx is None or true_relay_idx is None):
        raise ValueError("genie_reference decoding requires the true indices")
    n_batch, n_data = y_sd.shape[0], y_sd.shape[1] - 1
    rd_nv = np.reshape(np.asarray(rd_noise_vars, dtype=float), (n_rel, 1))
    relay_idx = true_relay_idx if genie else demod_qam_frame(y_rd, spec, rd_nv)
    relay_rows = np.zeros((n_rel, n_batch, n_data), dtype=np.int64)
    np.add(relay_idx[..., :-1], 1, out=relay_rows[..., 1:])
    rels = qam_objective(y_rd[..., :-1], y_rd[..., 1:], rd_nv[..., None], spec, relay_rows)
    np.negative(rels, out=rels)
    pl = cfg.kind == "pl"
    if pl:
        thresholds = cfg.resolved_thresholds(spec.M)
        rels = np.ascontiguousarray(rels.transpose(2, 3, 0, 1))  # (L, M, R, B)
    else:
        mixtures = [_mixture_log_scores(sc, eps)
                    for sc, eps in zip(rels, cfg.effective_epsilons())]
    decisions = np.empty((n_batch, n_data), dtype=np.int64)
    row = np.zeros(n_batch, dtype=np.int64)
    n_fallback = 0
    for n in range(n_data):
        base = qam_objective(y_sd[:, n], y_sd[:, n + 1], sd_noise_var, spec, row)
        np.negative(base, out=base)
        if pl:
            decisions[:, n], nf = _tournament(base.T, rels[n], thresholds)
            n_fallback += nf
        else:
            for mix in mixtures:
                base += mix[:, n]
            decisions[:, n] = np.argmax(base, axis=-1)
        row = (true_source_idx[:, n] if genie else decisions[:, n]) + 1
    return decisions, n_fallback


class _OpCounter:
    """Running count of real additions and multiplications."""

    __slots__ = ("n",)

    def __init__(self) -> None:
        self.n = 0


def _counted_statistic(counter, y_prev, y_curr, x, inv_noise_var):
    z1 = np.conj(y_curr) * y_prev
    counter.n += 6
    z2 = z1 * x
    counter.n += 6
    z3 = z2 * inv_noise_var
    counter.n += 2
    return z3.real


def _safe_exp(t: float) -> float:
    return math.exp(min(max(t, -_EXP_CLAMP), _EXP_CLAMP))


def _counted_ml_decode(sd_pair, rd_pair, points, eps, sd_noise_var, rd_noise_var):
    """Operation-counted single-relay ML PSK decode, literal per-candidate form."""
    counter = _OpCounter()
    m = len(points)
    inv_sd = 1.0 / sd_noise_var
    inv_rd = 1.0 / rd_noise_var
    objective = []
    for k in range(m):
        t0 = _counted_statistic(counter, sd_pair[0], sd_pair[1], points[k], inv_sd)
        t_rel = [
            _counted_statistic(counter, rd_pair[0], rd_pair[1], points[i], inv_rd)
            for i in range(m)
        ]
        acc = _safe_exp(t_rel[0])
        for i in range(1, m):
            acc += _safe_exp(t_rel[i])
            counter.n += 1
        own_weight = 1.0 - eps
        counter.n += 1
        own = own_weight * _safe_exp(t_rel[k])
        counter.n += 1
        others = acc - _safe_exp(t_rel[k])
        counter.n += 1
        other_weight = eps / (m - 1)
        counter.n += 1
        cross = other_weight * others
        counter.n += 1
        mix = own + cross
        counter.n += 1
        objective.append(t0 + math.log(mix))
        counter.n += 1
    return int(np.argmax(objective)), counter.n


def _counted_pl_decode(sd_pair, rd_pair, points, threshold, sd_noise_var, rd_noise_var):
    """Operation-counted single-relay PL PSK decode, sequential tournament."""
    counter = _OpCounter()
    m = len(points)
    inv_sd = 1.0 / sd_noise_var
    inv_rd = 1.0 / rd_noise_var
    champ = 0
    for q in range(1, m):
        x_diff = points[champ] - points[q]
        counter.n += 2
        d0 = _counted_statistic(counter, sd_pair[0], sd_pair[1], x_diff, inv_sd)
        dr = _counted_statistic(counter, rd_pair[0], rd_pair[1], x_diff, inv_rd)
        counter.n += 2
        if dr > threshold:
            dr = threshold
        elif dr < -threshold:
            dr = -threshold
        lam = d0 + dr
        counter.n += 1
        if not lam > 0.0:
            champ = q
    return champ, counter.n


def _count_ops_instance(m: int):
    """Deterministic synthetic single-relay observation for op counting."""
    rng = make_stream(202, m)
    vals = rng.normal(size=8)
    sd_pair = (complex(vals[0], vals[1]), complex(vals[2], vals[3]))
    rd_pair = (complex(vals[4], vals[5]), complex(vals[6], vals[7]))
    return sd_pair, rd_pair


def count_ops(kind: str, m: int) -> int:
    """Measured real additions plus multiplications of one PSK decode call."""
    if m < 2:
        raise ValueError(f"m must be >= 2, got {m}")
    kind = kind.lower()
    spec = make_psk(m)
    sd_pair, rd_pair = _count_ops_instance(m)
    eps = 1e-2
    if kind == "ml":
        _, ops = _counted_ml_decode(sd_pair, rd_pair, spec.points, eps, 0.1, 0.1)
        return ops
    if kind == "pl":
        threshold = clip_threshold(m, eps)
        _, ops = _counted_pl_decode(sd_pair, rd_pair, spec.points, threshold, 0.1, 0.1)
        return ops
    raise ValueError(f"kind must be 'ml' or 'pl', got {kind!r}")
