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

Kernel layouts.  Both decoders score candidate-major, (M, n) for the direct
link and (M, R, n) for the relays, and decide in one step, _decide.  ML adds
each relay's log mixture and takes np.argmax down the candidate axis; PL
names a candidate, verifies it once and resolves the instances that fail in
chunks of instances and groups of eight rivals, (8, M, chunk), with no table
of every pair.  Scores are finite or -inf, never NaN, so an argmax is the
first row holding its column's largest value.  The mixture's maximum down
the candidate axis is exact.  Its sum of exponentials and the fallback's row
totals add one row at a time in index order, fixed by the code rather than by
numpy's choice of reduction, so rounding decides near ties alike at any shape.

Blocks.  No kernel scores a whole batch at once, so the working set does not
grow with it.  PSK decisions depend only on their own sample pairs and are
scored _PSK_BLOCK pairs at a time.  QAM frames run one loop over symbols
that advances every chain together (decode_qam_frames), so the working set
is one step's scores; B may be a worker's whole share of a round, so the
loop's overhead is paid once per share.  The kernels write their arrays
with out= into one workspace per thread (_Workspace): a flat array per role
that grows to the largest block it has served and is handed out as views,
so a warmed thread decodes a batch without block-sized allocations, which
the allocator would return to the operating system and fault in again
every batch.  It is freed with the thread; run_point's pool threads build
theirs once per point.  Neither the blocks nor the workspace change any
element's arithmetic or operand order, so no decision moves.

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
argmax of c over {q : a_q > max a - T}; with more relays, or none, the
sequential sweep names the candidate.  Either is verified once, and the
instances that fail go to the fallback, which finds any unanimous winner
the candidate's rounding missed, so rounding changes no decision.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass

import numpy as np

from .channel import make_stream
from .constellation import make_psk
from .relay import pair_products, psk_sector, qam_objective

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
# Fallback chunks: candidates times instances, so the chunk's (8, M, chunk)
# arrays take about 0.9 MB at any M, within the (64, M, M) tables they
# replace at psk-32.
_FALLBACK_ELEMENTS = 4096
# [j, k]: rival j of a group of eight is not candidate k, both counted from
# the group's first rival
_OFF_DIAGONAL = ~np.eye(8, dtype=bool)[:, :, None]
_NEG_INF_BITS = np.float64(-np.inf).view(np.int64)


class _Workspace(threading.local):
    """One thread's scratch arrays for the decoding kernels, one per role.

    Each role's flat array grows to the largest request it has served and is
    handed out as a C-contiguous view.  A role belongs to one kernel, and
    nothing handed out outlives the call that asked for it, except the views
    ``_mixture_log_scores`` and ``_row_totals`` return to be read at once.
    Both decoders fill ``base`` (M, n) and ``relays`` (M, R, n) for every
    kind.
    """

    def __init__(self):
        self.flat = {}

    def take(self, role, shape, dtype=float):
        size = math.prod(shape)
        flat = self.flat.get(role)
        if flat is None or flat.size < size or flat.dtype != dtype:
            flat = self.flat[role] = np.empty(size, dtype)
        return flat[:size].reshape(shape)


_WORKSPACE = _Workspace()


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


def _psk_statistics(z, points, noise_var, out):
    """Per-candidate correlation statistics of the pair products z (n,).

    Writes Re(z x_k) / noise_var into out, (M, n), for the column of points
    (M, 1), and returns it.  The product keeps the order z * x: numpy's
    complex multiply may fuse, so x * z can differ in the last bit.
    """
    prod = _WORKSPACE.take("products", out.shape, complex)
    np.multiply(z, points, out=prod)
    return np.divide(prod.real, noise_var, out=out)


def _mixture_log_scores(scores, eps):
    """Log of the right-or-wrong relay mixture applied to one relay's scores.

    scores has candidates on the first axis; entry k of the result is the
    log of (1-eps) exp(scores[k]) + eps/(M-1) sum over i != k of
    exp(scores[i]), evaluated as mx + log((1-eps) e_k + w (S - e_k)) with mx
    the largest score, e = exp(scores - mx) and S the sum of e, added one
    candidate at a time in index order.  With eps > 0 the result is the
    thread's ``mix`` workspace, valid until the next call.
    """
    scores = np.asarray(scores, dtype=float)
    if eps == 0.0:
        return scores
    m = scores.shape[0]
    work = _WORKSPACE.take("mix_exp", (m + 2,) + scores.shape[1:])
    e, total, mx = work[:m], work[m:m + 1], work[m + 1:]
    # a maximum down the candidate axis is exact in any order
    np.max(scores, axis=0, keepdims=True, out=mx)
    np.subtract(scores, mx, out=e)
    np.exp(e, out=e)
    np.copyto(total, e[:1])
    for row in e[1:]:
        total += row
    mix = np.subtract(total, e, out=_WORKSPACE.take("mix", scores.shape))
    mix *= eps / (m - 1)
    e *= 1.0 - eps
    mix += e
    np.log(mix, out=mix)
    mix += mx
    return mix


def _gather(role, a, idx):
    """a[..., idx], written into the thread's workspace for role."""
    out = _WORKSPACE.take(role, a.shape[:-1] + (idx.size,))
    # mode="clip" lets take write into out unbuffered; every index is in range
    return np.take(a, idx, axis=-1, mode="clip", out=out)


def _unanimous(cb, cr, base, rels, thr):
    """Whether each candidate beats every rival (a positive pairwise statistic).

    cb (n,) and cr (R, n) are the candidates' own base and relay values.
    """
    lam = np.subtract(cb, base, out=_WORKSPACE.take("lam", base.shape))
    total = _WORKSPACE.take("relay_sum", base.shape)
    # the clipped relay terms are summed in relay order, then added to lam
    for r, t in enumerate(thr):
        out = _WORKSPACE.take("relay_term", base.shape) if r else total
        np.subtract(cr[r], rels[:, r], out=out)
        np.clip(out, -t, t, out=out)
        if r:
            total += out
    if len(thr):
        lam += total
    # a candidate's statistic against itself is exactly 0, never positive
    wins = np.greater(lam, 0.0, out=_WORKSPACE.take("wins", base.shape, bool))
    return np.count_nonzero(wins, axis=0) == base.shape[0] - 1


def _tournament(base, rels, thresholds):
    """Winner of the pairwise clipped-statistic rule, candidate-major.

    base has shape (M, n) and rels (M, R, n).  A candidate wins when its
    pairwise statistic against every rival is positive; without a unanimous
    winner the largest total pairwise statistic wins (lowest index on ties).
    A candidate is named (by the exact rule when R = 1, else by the sweep)
    and verified once; _fallback resolves the instances that fail.  Returns
    (winners of shape (n,), number of instances without a unanimous winner).
    """
    thr = np.asarray(thresholds, dtype=float)[:, None]
    champ, cb, cr = (_one_relay_candidate if len(thr) == 1 else _sweep)(base, rels, thr)
    left = np.flatnonzero(~_unanimous(cb, cr, base, rels, thr))
    if not left.size:
        return champ, 0
    champ[left], n_fallback = _fallback(_gather("left_base", base, left),
                                        _gather("left_rels", rels, left), thr[:, 0])
    return champ, n_fallback


def _one_relay_candidate(base, rels, thr):
    """The one-relay rule's candidate (module docstring) and its values, (champ, cb, cr)."""
    mask = np.greater(base, base.max(axis=0) - thr[0],
                      out=_WORKSPACE.take("mask", base.shape, bool))
    # c starts as 0 where mask holds and -inf elsewhere, written as bits: a
    # masked write branches on every element, and at low SNR the branch is a
    # coin flip.  The statistics are finite, so 0 + a + b compares as a + b
    c = _WORKSPACE.take("cand", base.shape)
    bits = np.subtract(mask, 1, dtype=np.int64, out=c.view(np.int64))
    np.bitwise_and(bits, _NEG_INF_BITS, out=bits)
    c += base
    c += rels[:, 0]
    champ = np.argmax(c, axis=0)
    return (champ, np.take_along_axis(base, champ[None], axis=0)[0],
            np.take_along_axis(rels, champ[None, None], axis=0)[0])


def _sweep(base, rels, thr):
    """The sequential tournament's champion, the candidate for R != 1 relays.

    Rival q replaces the champion unless the champion beats it, so a
    unanimous winner, once reached, is kept: the sweep names it whenever one
    exists.  The champion's own base and relay values are carried along and
    overwritten where it loses, so no step gathers; returns (champ, cb, cr).
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
    return champ, cb, cr


def _fallback(base, rels, thresholds):
    """Each instance's winner from its pairwise statistics (_row_totals).

    The row whose entries over q != k are all positive is the unanimous
    winner (at most one exists), else the largest row total, its rivals
    added one at a time in index order, wins, lowest index on ties.  The
    instances go in chunks of _FALLBACK_ELEMENTS // M.  Returns (winners,
    number of instances without a unanimous row).
    """
    m, n = base.shape
    chunk = max(1, _FALLBACK_ELEMENTS // m)
    winners = np.empty(n, dtype=np.int64)
    n_fallback = 0
    for lo in range(0, n, chunk):
        total, least = _row_totals(base[:, lo:lo + chunk], rels[:, :, lo:lo + chunk],
                                   thresholds)
        unanimous = least > 0.0
        # a unanimous row, at most one per instance, outranks every total
        np.copyto(total, np.inf, where=unanimous)
        winners[lo:lo + chunk] = total.argmax(axis=0)
        n_fallback += total.shape[1] - int(np.count_nonzero(unanimous))
    return winners, n_fallback


def _row_totals(base, rels, thresholds):
    """Row totals and least off-diagonal entries of the pairwise statistics, (M, c) each.

    lam(k, q) = sum over r of clip(r_k - r_q), in relay order, plus
    (base_k - base_q), _unanimous's float sum.  The rivals q go in groups
    of up to eight: lam(k, q) for every candidate k against a group's
    rivals is one (8, M, c) array.  total[k] adds lam(k, q) one rival at a
    time in index order; least[k] is the least lam(k, q) over q != k.  Both
    are views of the thread's workspace, valid until the next call.
    """
    m, c = base.shape
    # each term's rows, the relays' and then the base's, as minuends,
    # (1, M, c), and as rivals, (M, 1, c), with the relay's clip level
    rows = [*rels.transpose(1, 0, 2), base]
    terms = [(v[None], v[:, None], t) for v, t in zip(rows, (*thresholds, None))]
    work = _WORKSPACE.take("fallback", (19, m, c))
    lam, term, (total, least, group_least) = work[:8], work[8:16], work[16:]
    total.fill(0.0)
    least.fill(np.inf)
    for q in range(0, m, 8):
        g = min(8, m - q)
        # lam(k, q + j) into out[j].  Copying the rivals' rows over the
        # candidates and subtracting from that is faster than one
        # subtraction broadcast along both axes
        out = lam[:g]
        for i, (v, rival, t) in enumerate(terms):
            diff = term[:g] if i else out
            np.copyto(diff, rival[q:q + g])
            np.subtract(v, diff, out=diff)
            if t is not None:
                diff.clip(-t, t, out=diff)
            if i:
                out += diff
        # each row's least entry against the group's rivals, its own left out
        np.minimum.reduce(out, axis=0, out=group_least)
        np.minimum.reduce(out[:, q:q + g], axis=0, where=_OFF_DIAGONAL[:g, :g],
                          initial=np.inf, out=group_least[q:q + g])
        np.minimum(least, group_least, out=least)
        # the row totals add lam(k, q) one rival at a time in index order
        for row in out:
            total += row
    return total, least


def _decide(base, rels, cfg, thresholds):
    """Decisions (n,) and fallback count from base (M, n) and rels (M, R, n).

    PL runs the pairwise tournament at the relays' clip levels; every other
    kind adds each relay's log mixture to base, in relay order, and takes
    the first largest row, with no fallback.  Overwrites base.
    """
    if cfg.kind == "pl":
        return _tournament(base, rels, thresholds)
    for r, eps in enumerate(cfg.effective_epsilons()):
        base += _mixture_log_scores(rels[:, r], eps)
    return np.argmax(base, axis=0), 0


def _relay_count(spec, kind, y_rd, rd_noise_vars, cfg):
    """The decoder's relay count, once the alphabet and the counts are checked."""
    if spec.kind != kind:
        raise ValueError(f"expected a {kind} constellation, got {spec.kind!r}")
    n_rel = len(cfg.epsilons)
    if y_rd.shape[0] != n_rel or len(rd_noise_vars) != n_rel:
        raise ValueError("relay counts of observations, noise vars, and config differ")
    return n_rel


def _certify(z0, zr, sd_noise_var, rd_noise_vars, points, thresholds):
    """Direct-link DPSK decisions k0 of the pair products, and which are proved.

    z0 has shape (n,) and zr (R, n).  A pair is certified when k0's margin
    over its two neighbours, in the kernel's own arithmetic, exceeds the sum
    of T_r over the relays whose pair product lies outside k0's sector (or
    within _CERT_SLACK of its edge) by a relative-plus-absolute slack; the
    decoder's decision on it is then k0 (module docstring).
    """
    m = len(points)
    k0 = psk_sector(z0, m)
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
    return k0, margin > scale


def decode_psk_frames(y_sd, y_rd, sd_noise_var, rd_noise_vars, spec, cfg):
    """Decode whole PSK frames at once.

    y_sd has shape (..., L+1) and y_rd shape (R, ..., L+1); returns
    (indices of shape (..., L), pairwise-fallback count).  Each decision
    depends only on its own sample pairs.  Pairs a certificate proves take
    the direct link's decision; the others are scored over blocks of
    _PSK_BLOCK pairs, so the working set does not grow with the batch.
    """
    y_sd = np.asarray(y_sd)
    y_rd = np.asarray(y_rd)
    n_rel = _relay_count(spec, "psk", y_rd, rd_noise_vars, cfg)
    z0 = pair_products(y_sd).ravel()
    zr = pair_products(y_rd).reshape(n_rel, z0.size)
    decisions = np.empty(z0.size, dtype=np.int64)
    points = spec.points[:, None]
    thresholds = cfg.resolved_thresholds(spec.M)
    rest = np.arange(z0.size)
    if all(t >= 0.0 for t in thresholds):
        rest = _certified_rest(z0, zr, sd_noise_var, rd_noise_vars, spec.points,
                               thresholds, decisions)
    n_fallback = 0
    for lo in range(0, rest.size, _PSK_BLOCK):
        blk = rest[lo:lo + _PSK_BLOCK]
        base = _psk_statistics(z0[blk], points, sd_noise_var,
                               _WORKSPACE.take("base", (spec.M, blk.size)))
        rels = _WORKSPACE.take("relays", (spec.M, n_rel, blk.size))
        for r, nv in enumerate(rd_noise_vars):
            _psk_statistics(zr[r, blk], points, nv, rels[:, r])
        decisions[blk], nf = _decide(base, rels, cfg, thresholds)
        n_fallback += nf
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


def decode_qam_frames(y_sd, y_rd, sd_noise_var, rd_noise_vars, spec, cfg,
                      true_source_idx=None, true_relay_idx=None):
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
    run on y_rd would.  The negated scores, candidate-major like the direct
    link's, then decide the symbol.
    """
    y_sd = np.asarray(y_sd)
    y_rd = np.asarray(y_rd)
    n_rel = _relay_count(spec, "qam", y_rd, rd_noise_vars, cfg)
    genie = cfg.kind == "genie_reference"
    if genie and (true_source_idx is None or true_relay_idx is None):
        raise ValueError("genie_reference decoding requires the true indices")
    n_batch, n_data = y_sd.shape[0], y_sd.shape[1] - 1
    rd_nv = np.reshape(np.asarray(rd_noise_vars, dtype=float), (n_rel, 1))
    thresholds = cfg.resolved_thresholds(spec.M)
    decisions = np.empty((n_batch, n_data), dtype=np.int64)
    row = np.zeros(n_batch, dtype=np.int64)
    relay_row = np.zeros((n_rel, n_batch), dtype=np.int64)
    n_fallback = 0
    base = _WORKSPACE.take("base", (spec.M, n_batch))
    rels = _WORKSPACE.take("relays", (spec.M, n_rel, n_batch))
    for n in range(n_data):
        scores = qam_objective(y_rd[..., n], y_rd[..., n + 1], rd_nv, spec, relay_row)
        relay_row = (true_relay_idx[..., n] if genie else np.argmin(scores, axis=-1)) + 1
        np.negative(scores.transpose(2, 0, 1), out=rels)
        scores = qam_objective(y_sd[:, n], y_sd[:, n + 1], sd_noise_var, spec, row)
        np.negative(scores.T, out=base)
        decisions[:, n], nf = _decide(base, rels, cfg, thresholds)
        n_fallback += nf
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
