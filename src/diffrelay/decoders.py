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
champion's values instead of gathering them.  The tournament's fallback
sums its clipped relay terms one relay at a time into (chunk, M, M) arrays
of _FALLBACK_CHUNK instances.

Blocks.  No kernel scores a whole batch at once, so the working set does not
grow with it.  PSK decisions depend only on their own sample pairs and are
scored _PSK_BLOCK pairs at a time.  QAM frames run one loop over symbols
that advances every chain together: each step scores the relay links once,
(R, B, M), takes the destination's estimate of each relay's decision from
those scores, and combines them with the direct link's, so the working set
is one step's scores.  B may be a worker's whole share of a round, so the
loop's overhead is paid once per share.  Blocking changes no element's
arithmetic, so every decision is the same for any block size.

Certificates.  Most PSK decisions are proved without the M-wide kernel.
With a = Re(z0 x)/sigma0^2 the direct link's statistics and b_r relay r's,
PL compares k with q through (a_k - a_q) + sum_r clip(b_rk - b_rq, +-T_r)
and ML through (a_k - a_q) + sum_r (g_r(k) - g_r(q)), g_r the log mixture.
Each relay term lies in [-T_r, T_r], T_r = ln((M-1)(1-eps_r)/eps_r) (the
clip, or the range of the mixture's log ratio), and it is >= 0 when k is
that relay's own best candidate, as long as T_r >= 0.  So when the direct
link's best candidate k0 beats its runner-up by more than the sum of T_r
over the relays whose own best is not k0, k0 beats every rival: it is the
ML argmax and the PL unanimous winner, with no fallback.  For PSK the
runner-up is a neighbour of k0, and a relay's best is k0 when z_r x_k0 lies
in the sector |arg| < pi/M.  The kernel rounds, so the test keeps a float
margin: a pair product within _CERT_SLACK rad of a sector edge counts as
disagreeing, and the margin, computed with the kernel's own arithmetic,
must exceed the sum by _CERT_SLACK (1 + sum over links of
(|Re z| + |Im z|) / sigma^2), which bounds every term the kernel adds.
T_r = inf (eps_r = 0) certifies only when every relay agrees; any T_r < 0
(eps_r > (M-1)/M) certifies nothing.  The uncertified pairs go through the
unchanged kernel, so every decision and fallback count is the kernel's.  A
call's leading _CERT_PROBE pairs are a probe: when fewer than
_CERT_MIN_SHARE of them certify (low SNR, large M), the rest of the call is
not certified, since there the certificate costs more than it saves.

One relay.  With N = 1, lam(k, q) > 0 iff a_k - a_q > -T and (a_k - a_q > T
or c_k > c_q), c = a + b, so the only possible unanimous winner is the
argmax of c over {q : a_q > max a - T}.  The tournament verifies that
candidate with its usual M-wide check and sends the instances that fail
through the sequential sweep, so rounding cannot change a decision.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .channel import make_stream
from .constellation import ConstellationSpec, make_psk
from .relay import qam_objective

_KINDS = ("ml", "pl", "naive_eps0", "genie_reference")
_EXP_CLAMP = 700.0
# Sample pairs scored at once by the PSK decoders.  Measured on the
# benchmark's psk-4/16/32 points: smaller blocks cost time per point, larger
# ones memory.
_PSK_BLOCK = 4096
# Certificates: pairs in a call's leading probe, the share of it that must
# certify for the rest of the call to be certified, and the relative and
# absolute slack on a margin, which is also the phase kept clear of a sector
# edge.  Measured on the benchmark's psk-4/16/32 points at 0 and 10 dB, where
# fewer than half of the pairs certify: certifying every pair decodes up to
# 18% slower than stopping after the probe.
_CERT_PROBE = 512
_CERT_MIN_SHARE = 0.5
_CERT_SLACK = 1e-9
# Instances per chunk of the tournament's (chunk, M, M) fallback statistics.
_FALLBACK_CHUNK = 64


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


def _pair_products(y):
    """conj(y[n+1]) y[n] over the sample pairs of frames y (..., L+1)."""
    return np.conj(y[..., 1:]) * y[..., :-1]


def _psk_statistics(z, points, noise_var):
    """Per-candidate correlation statistics of the pair products z.

    The result has shape z.shape + (M,), or (M, n) for n products when points
    is a column (candidate-major).
    """
    if points.ndim == 1:
        return np.real(z[..., None] * points) / noise_var
    return np.real(z * points) / noise_var


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
    # a columnwise maximum is exact and much faster than a reduction over the
    # short candidate axis
    mx = scores[..., :1].copy()
    for k in range(1, scores.shape[-1]):
        np.maximum(mx, scores[..., k:k + 1], out=mx)
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


def _unanimous(cb, cr, base, rels, thr):
    """Whether each candidate beats every rival (a positive pairwise statistic).

    cb (n,) and cr (R, n) are the candidates' own base and relay values.
    """
    lam = cb - base
    lam += np.clip(cr - rels, -thr, thr).sum(axis=1)
    # a candidate's statistic against itself is exactly 0, never positive
    return np.count_nonzero(lam > 0.0, axis=0) == base.shape[0] - 1


def _tournament(base, rels, thresholds):
    """Winner of the pairwise clipped-statistic rule, candidate-major.

    base has shape (M, n) and rels (M, R, n).  A candidate wins when its
    pairwise statistic against every rival is positive; when no unanimous
    winner exists the candidate with the largest total pairwise statistic is
    chosen (lowest index on ties).  With one relay the only possible
    unanimous winner is named by the exact one-relay rule and verified;
    every other instance goes through the sequential sweep.  Returns
    (winners of shape (n,), number of instances that needed the
    total-statistic fallback).
    """
    thr = np.asarray(thresholds, dtype=float)[:, None]
    if thr.shape[0] != 1:
        return _sweep(base, rels, thr)
    # lam(k, q) > 0 iff a_k - a_q > -T and (a_k - a_q > T or c_k > c_q), with
    # a = base and c = base + rel, so a unanimous winner is the argmax of c
    # over {q : a_q > max a - T}
    m = base.shape[0]
    c = base + rels[:, 0]
    c[~(base > base.max(axis=0) - thr[0])] = -np.inf
    # the first row holding the column's largest c; reductions down the
    # candidate axis are fast, an argmax over it is not
    champ = np.where(c < c.max(axis=0), m - 1, np.arange(m)[:, None]).min(axis=0)
    at = champ[None, None, :]
    ok = _unanimous(np.take_along_axis(base, at[0], axis=0)[0],
                    np.take_along_axis(rels, at, axis=0)[0], base, rels, thr)
    left = np.flatnonzero(~ok)
    if not left.size:
        return champ, 0
    champ[left], n_fallback = _sweep(base[:, left], rels[:, :, left], thr)
    return champ, n_fallback


def _sweep(base, rels, thr):
    """The sequential tournament, its verification and the fallback.

    A champion found by the sweep is verified against all rivals.  The
    champion's own base and relay values are carried along and overwritten
    where it loses, so no step gathers.
    """
    m, n = base.shape
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
    bad = np.flatnonzero(~_unanimous(cb, cr, base, rels, thr))
    if bad.size:
        champ[bad] = _fallback(base[:, bad], rels[:, :, bad], thr[:, 0])
    return champ, int(bad.size)


def _fallback(base, rels, thresholds):
    """Largest total pairwise statistic per instance, lowest index on ties.

    lam[b, k, q] = sum over r of clip(r_k - r_q), summed in relay order, plus
    (base_k - base_q).  It is built _FALLBACK_CHUNK instances at a time, the
    first term written in place, so its arrays stay small.
    """
    m, n = base.shape
    terms = [(rels[:, r], t) for r, t in enumerate(thresholds)] + [(base, None)]
    lam = np.empty((min(n, _FALLBACK_CHUNK), m, m))
    diff = np.empty_like(lam)
    winners = np.empty(n, dtype=np.int64)
    for lo in range(0, n, _FALLBACK_CHUNK):
        hi = min(lo + _FALLBACK_CHUNK, n)
        acc, tmp = lam[:hi - lo], diff[:hi - lo]
        for i, (vals, t) in enumerate(terms):
            v = vals[:, lo:hi].T
            out = tmp if i else acc
            np.subtract(v[:, :, None], v[:, None, :], out=out)
            if t is not None:
                np.clip(out, -t, t, out=out)
            if i:
                acc += tmp
        winners[lo:hi] = np.argmax(acc.sum(axis=-1), axis=-1)
    return winners


def _check_psk(spec: ConstellationSpec) -> None:
    if spec.kind != "psk":
        raise ValueError(f"expected a psk constellation, got {spec.kind!r}")


def _check_qam(spec: ConstellationSpec) -> None:
    if spec.kind != "qam":
        raise ValueError(f"expected a qam constellation, got {spec.kind!r}")


def _certify(z0, zr, sd_noise_var, rd_noise_vars, points, thresholds):
    """Direct-link DPSK decisions k0 of the pair products, and which are proved.

    z0 has shape (n,) and zr (R, n).  A pair is certified when k0's margin
    over its two neighbours, in the kernel's own arithmetic, exceeds the sum
    of T_r over the relays whose pair product lies outside k0's sector (or
    within _CERT_SLACK of its edge) by a relative-plus-absolute slack; the
    decoder's decision on it is then k0 (module docstring).
    """
    m = len(points)
    # rint(-angle M / 2 pi) lies in [-M/2, M/2]; negative values index from
    # the end, so the neighbours need no reduction modulo M
    k0 = np.rint(np.angle(z0) * (-m / (2.0 * math.pi))).astype(np.int64)
    x0 = points[k0]
    margin = np.real(z0 * x0) / sd_noise_var
    prev = np.real(z0 * points[k0 - 1]) / sd_noise_var
    nxt = np.real(z0 * np.roll(points, -1)[k0]) / sd_noise_var
    margin -= np.maximum(prev, nxt, out=prev)
    # |Re z| + |Im z| >= |z| bounds every statistic of a link, hence the
    # rounding of every term the kernel adds
    scale = np.abs(z0.real) + np.abs(z0.imag)
    scale /= sd_noise_var
    tan_edge = math.tan(math.pi / m - _CERT_SLACK)
    for z, nv, t in zip(zr, rd_noise_vars, thresholds):
        w = z * x0
        w_abs = np.abs(w.imag)
        outside = w_abs >= tan_edge * w.real
        np.subtract(margin, t, out=margin, where=outside)
        w_abs += np.abs(w.real)
        w_abs /= nv
        scale += w_abs
    scale += 1.0
    scale *= _CERT_SLACK
    k0 %= m
    return k0, margin > scale


def decode_psk_frames(y_sd, y_rd, sd_noise_var, rd_noise_vars, spec, cfg):
    """Decode whole PSK frames at once.

    y_sd has shape (..., L+1) and y_rd shape (R, ..., L+1); returns
    (indices of shape (..., L), pairwise-fallback count).  Each decision
    depends only on its own sample pairs.  Pairs a certificate proves take
    the direct link's decision; the others are scored over blocks of
    _PSK_BLOCK pairs, so the working set does not grow with the batch.
    """
    _check_psk(spec)
    y_sd = np.asarray(y_sd)
    y_rd = np.asarray(y_rd)
    n_rel = len(cfg.epsilons)
    if y_rd.shape[0] != n_rel or len(rd_noise_vars) != n_rel:
        raise ValueError("relay counts of observations, noise vars, and config differ")
    z0 = _pair_products(y_sd).ravel()
    zr = _pair_products(y_rd).reshape(n_rel, z0.size)
    decisions = np.empty(z0.size, dtype=np.int64)
    pl = cfg.kind == "pl"
    points = spec.points[:, None] if pl else spec.points
    thresholds = cfg.resolved_thresholds(spec.M)
    epsilons = cfg.effective_epsilons()
    rest = np.arange(z0.size)
    if all(t >= 0.0 for t in thresholds):
        rest = _certified_rest(z0, zr, sd_noise_var, rd_noise_vars, spec.points,
                               thresholds, decisions)
    n_fallback = 0
    for lo in range(0, rest.size, _PSK_BLOCK):
        blk = rest[lo:lo + _PSK_BLOCK]
        t0 = _psk_statistics(z0[blk], points, sd_noise_var)
        if pl:
            rels = np.empty((spec.M, n_rel, t0.shape[1]))
            for r, nv in enumerate(rd_noise_vars):
                rels[:, r] = _psk_statistics(zr[r, blk], points, nv)
            decisions[blk], nf = _tournament(t0, rels, thresholds)
            n_fallback += nf
        else:
            rels = [_psk_statistics(z[blk], points, nv) for z, nv in zip(zr, rd_noise_vars)]
            decisions[blk] = np.argmax(_ml_objective(t0, rels, epsilons), axis=-1)
    return decisions.reshape(y_sd.shape[:-1] + (-1,)), n_fallback


def _certified_rest(z0, zr, sd_noise_var, rd_noise_vars, points, thresholds, decisions):
    """Write the decisions of the certified pairs; return the other pairs' indices.

    The leading _CERT_PROBE pairs are a probe: when fewer than
    _CERT_MIN_SHARE of them certify, the rest of the call goes to the kernel
    uncertified, since there the certificate costs more than it saves.
    """
    n = z0.size
    edges = [0, *range(min(n, _CERT_PROBE), n, _PSK_BLOCK), n]
    rest = []
    for lo, hi in zip(edges, edges[1:]):
        k0, ok = _certify(z0[lo:hi], zr[:, lo:hi], sd_noise_var, rd_noise_vars,
                          points, thresholds)
        np.copyto(decisions[lo:hi], k0, where=ok)
        rest.append(lo + np.flatnonzero(~ok))
        if lo == 0 and np.count_nonzero(ok) < _CERT_MIN_SHARE * hi:
            rest.append(np.arange(hi, n))
            break
    return np.concatenate(rest)


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

    One loop over symbols advances every chain.  Each step scores the relay
    links once, (R, B, M); for decision-directed kinds the argmin of those
    scores is the destination's estimate of each relay's decision, which
    gives the relay links' next rows exactly as ``relay.demod_qam_frame``
    run on y_rd would.  The negated scores are then combined with the direct
    link's to decide the symbol.
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
    pl = cfg.kind == "pl"
    thresholds = cfg.resolved_thresholds(spec.M)
    epsilons = cfg.effective_epsilons()
    decisions = np.empty((n_batch, n_data), dtype=np.int64)
    row = np.zeros(n_batch, dtype=np.int64)
    relay_row = np.zeros((n_rel, n_batch), dtype=np.int64)
    n_fallback = 0
    for n in range(n_data):
        rels = qam_objective(y_rd[..., n], y_rd[..., n + 1], rd_nv, spec, relay_row)
        relay_row = (true_relay_idx[..., n] if genie else np.argmin(rels, axis=-1)) + 1
        np.negative(rels, out=rels)
        base = qam_objective(y_sd[:, n], y_sd[:, n + 1], sd_noise_var, spec, row)
        np.negative(base, out=base)
        if pl:
            decisions[:, n], nf = _tournament(
                base.T, np.ascontiguousarray(rels.transpose(2, 0, 1)), thresholds)
            n_fallback += nf
        else:
            for sc, eps in zip(rels, epsilons):
                base += _mixture_log_scores(sc, eps)
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
