"""Monte Carlo experiment engine: frame simulation, SER curves, comparisons.

A plan fixes the constellation, decoder, SNR grid, stopping policy, and seed;
every random draw then comes from a counter-based stream addressed by
(seed, grid point, batch, purpose), so results are bit-identical for any
worker count.  Error counting is symbol-level against the transmitted
indices, and confidence intervals are Wilson intervals on a cluster-adjusted
effective sample size, since symbols within one coherence frame share a
channel draw.

A simulation call takes a list of batches and runs in stages over one stack
of frames: symbols; every link's draws (one stream per batch and link, gain
first, noise second), written into the stack in place; encode; one channel
product for the links that carry the source's frame (direct, and
source-relay unless ``sr_infinite``); the relays; one for the
relay-destination links; decode; count.  A channel product goes link by
link through one reused buffer.  One link list pairs each stack row with
its stream purpose.  A QAM round runs one contiguous share of batches per
thread, so its sequential chains pay their per-symbol overhead once per
share; PSK, whose kernels gain nothing from larger stacks, runs one batch
per call.
"""

from __future__ import annotations

import contextlib
import hashlib
import math
import os
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace

import numpy as np

from .channel import LinkParams, draw_block_gain, draw_noise, make_stream
from .constellation import ConstellationSpec
from .decoders import DecoderConfig, decode_psk_frames, decode_qam_frames
from .diffmod import encode_psk_frame, encode_qam_frame
from .relay import relay_process_frame

_Z95 = 1.959963984540054
_TYING = ("all_equal", "sr_infinite", "custom")
_SR_EPS_MODES = ("configured", "vanishing")

# stream purposes within one (seed, point, batch) address
_STREAM_SYMBOLS = 0
_STREAM_SD = 1
_STREAM_SR0 = 2  # relay r uses _STREAM_SR0 + 2 r and _STREAM_RD0 + 2 r
_STREAM_RD0 = 3


@dataclass(frozen=True)
class TrialsPolicy:
    """Stopping rule: simulate until min_errors errors or max_trials symbols."""

    min_errors: int = 200
    max_trials: int = 100_000_000

    def __post_init__(self) -> None:
        if self.min_errors < 1:
            raise ValueError(f"min_errors must be >= 1, got {self.min_errors}")
        if self.max_trials < 2 * self.min_errors:
            raise ValueError(
                "max_trials must allow min_errors to be observed at SER 1/2, "
                f"so at least {2 * self.min_errors}, got {self.max_trials}"
            )


@dataclass(frozen=True)
class ExperimentPlan:
    """Everything that determines a sweep, including its randomness.

    ``snr_grid_db`` holds per-point average SNRs in dB; ``tying`` maps one
    grid value onto the three link classes: ``all_equal`` sets every link to
    the grid value, ``sr_infinite`` makes relay decisions error-free while
    direct and relay-destination links stay at the grid value, and ``custom``
    adds the per-relay dB offsets to the source-relay and relay-destination
    links.  Under ``sr_infinite`` the decoders keep their configured epsilons
    by default; ``sr_eps='vanishing'`` zeroes them instead, and is refused
    under any other tying.
    """

    spec: ConstellationSpec
    decoder: DecoderConfig
    snr_grid_db: tuple[float, ...]
    n_relays: int = 1
    tying: str = "all_equal"
    sr_offsets_db: tuple[float, ...] = ()
    rd_offsets_db: tuple[float, ...] = ()
    trials: TrialsPolicy = field(default_factory=TrialsPolicy)
    seed: int = 0
    frame_len: int = 64
    sr_eps: str = "configured"
    epsilon_table: tuple[tuple[tuple[str, int, float], float], ...] = ()
    zero_noise: bool = False

    def __post_init__(self) -> None:
        if not self.snr_grid_db:
            raise ValueError("snr_grid_db must be nonempty")
        if self.n_relays < 0:
            raise ValueError(f"n_relays must be >= 0, got {self.n_relays}")
        if self.tying not in _TYING:
            raise ValueError(f"tying must be one of {_TYING}, got {self.tying!r}")
        if self.sr_eps not in _SR_EPS_MODES:
            raise ValueError(
                f"sr_eps must be one of {_SR_EPS_MODES}, got {self.sr_eps!r}"
            )
        if self.sr_eps == "vanishing" and self.tying != "sr_infinite":
            raise ValueError("sr_eps 'vanishing' is only meaningful with sr_infinite tying")
        if self.tying == "custom":
            if len(self.sr_offsets_db) != self.n_relays or len(self.rd_offsets_db) != self.n_relays:
                raise ValueError("custom tying needs one sr and rd offset per relay")
        elif self.sr_offsets_db or self.rd_offsets_db:
            raise ValueError("link offsets are only meaningful with custom tying")
        if self.frame_len < 1:
            raise ValueError(f"frame_len must be >= 1, got {self.frame_len}")
        if self.trials.max_trials < self.frame_len:
            raise ValueError(
                f"trials.max_trials ({self.trials.max_trials}) must cover at least "
                f"one frame of frame_len ({self.frame_len}) symbols"
            )
        if self.decoder.epsilons and len(self.decoder.epsilons) != self.n_relays:
            raise ValueError(
                f"decoder carries {len(self.decoder.epsilons)} epsilons "
                f"for {self.n_relays} relays"
            )
        object.__setattr__(self, "snr_grid_db", tuple(float(v) for v in self.snr_grid_db))

    def _link_db(self, index: int):
        """Link SNRs in dB of one grid point under the tying rule.

        Returns (source-destination, per-relay source-relay, per-relay
        relay-destination).
        """
        snr_db = self.snr_grid_db[index]
        sr_db = rd_db = (snr_db,) * self.n_relays
        if self.tying == "custom":
            sr_db = tuple(snr_db + off for off in self.sr_offsets_db)
            rd_db = tuple(snr_db + off for off in self.rd_offsets_db)
        return snr_db, sr_db, rd_db

    def topology_at(self, index: int):
        """Links (source-destination, source-relays, relay-destinations) of one point."""
        sd_db, sr_db, rd_db = self._link_db(index)

        def link(db: float) -> LinkParams:
            return LinkParams(sigma2=1.0, noise_var=10.0 ** (-db / 10.0))

        return link(sd_db), tuple(map(link, sr_db)), tuple(map(link, rd_db))

    def plan_hash(self) -> str:
        """Stable digest of every field that affects the simulated numbers."""
        parts = [
            self.spec.kind, str(self.spec.M), self.decoder.kind,
            repr(tuple(self.decoder.epsilons)),
            repr(self.snr_grid_db), str(self.n_relays), self.tying,
            repr(self.sr_offsets_db), repr(self.rd_offsets_db),
            str(self.trials.min_errors), str(self.trials.max_trials),
            str(self.seed), str(self.frame_len), self.sr_eps,
            repr(self.epsilon_table), str(self.zero_noise),
        ]
        return hashlib.sha256("|".join(parts).encode()).hexdigest()[:16]


@dataclass(frozen=True)
class SerPoint:
    """One SER estimate: counts, rate, Wilson 95% interval, diagnostics.

    ``stop_reason`` says which half of the stopping rule ended the point,
    ``"min_errors"`` or ``"max_trials"`` (None for a failed point),
    ``rounds`` counts its simulation rounds, and ``deff`` is the design
    effect of its frame clusters: the interval is the Wilson interval at
    ``trials / deff`` effective trials.  ``wall_s`` is the seconds
    ``run_point`` took; it is left out of equality, so two results compare
    by their numbers alone.
    """

    snr_db: float
    errors: int
    trials: int
    ser: float
    ci_low: float
    ci_high: float
    fallbacks: int = 0
    failure: str | None = None
    stop_reason: str | None = None
    rounds: int = 0
    deff: float = 1.0
    wall_s: float = field(default=0.0, compare=False)


@dataclass(frozen=True)
class SerCurve:
    """Sweep result with the hash of the plan behind it and its wall time."""

    points: tuple[SerPoint, ...]
    plan_hash: str
    wall_time_s: float

    def _ok(self) -> list[SerPoint]:
        return [p for p in self.points if p.failure is None]

    @property
    def snr_db(self) -> np.ndarray:
        return np.array([p.snr_db for p in self._ok()])

    @property
    def ser(self) -> np.ndarray:
        return np.array([p.ser for p in self._ok()])

    @property
    def ci_low(self) -> np.ndarray:
        return np.array([p.ci_low for p in self._ok()])

    @property
    def ci_high(self) -> np.ndarray:
        return np.array([p.ci_high for p in self._ok()])

    @property
    def failures(self) -> tuple[SerPoint, ...]:
        return tuple(p for p in self.points if p.failure is not None)


def wilson_interval(errors: int, trials: int, n_eff: float | None = None) -> tuple[float, float]:
    """95% Wilson score interval for a binomial rate.

    ``n_eff`` substitutes an effective sample size when trials are positively
    correlated; it is floored at 1 and capped at ``trials`` so the interval is
    never narrower than the i.i.d. one.
    """
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    if not 0 <= errors <= trials:
        raise ValueError(f"errors must lie in [0, trials], got {errors}/{trials}")
    p = errors / trials
    n = float(trials) if n_eff is None else min(max(n_eff, 1.0), float(trials))
    z2 = _Z95 * _Z95
    denom = 1.0 + z2 / n
    centre = (p + z2 / (2.0 * n)) / denom
    half = _Z95 * math.sqrt(p * (1.0 - p) / n + z2 / (4.0 * n * n)) / denom
    # the score interval contains the point estimate; keep that under rounding
    return min(max(0.0, centre - half), p), max(min(1.0, centre + half), p)


def _design_effect(trials: int, n_frames: int, sum_err: int, sum_sq: int) -> float:
    """Design effect of the frame clusters under within-frame error correlation.

    The effective sample size is the symbol count divided by it.  It is
    floored at 1 (underdispersion is ignored for a conservative interval),
    and is 1 where it cannot be measured.
    """
    if sum_err == 0 or n_frames < 2:
        return 1.0
    p = sum_err / trials
    cluster_var = sum_sq - sum_err * sum_err / n_frames
    binom_var = sum_err * (1.0 - p)
    if binom_var <= 0.0 or cluster_var <= 0.0:
        return 1.0
    return max(cluster_var / binom_var, 1.0)


def resolve_epsilons(plan: ExperimentPlan, index: int) -> tuple[float, ...]:
    """Per-relay epsilon values the destination decoder should be built with.

    Resolution order: decoder kinds that ignore epsilon get zeros, explicit
    ``decoder.epsilons`` win, then the plan's calibration table is consulted
    per relay at the source-relay SNR of this grid point.  A miss raises with
    an instruction to calibrate first.
    """
    if plan.n_relays == 0:
        return ()
    if plan.decoder.kind == "naive_eps0":
        return tuple(0.0 for _ in range(plan.n_relays))
    if plan.tying == "sr_infinite" and plan.sr_eps == "vanishing":
        return tuple(0.0 for _ in range(plan.n_relays))
    if plan.decoder.epsilons:
        return plan.decoder.epsilons
    table = dict(plan.epsilon_table)
    out = []
    for sr_db in plan._link_db(index)[1]:
        key = (plan.spec.kind, plan.spec.M, round(sr_db, 6))
        if key not in table:
            raise ValueError(
                f"no calibrated epsilon for {plan.spec.kind}-{plan.spec.M} at "
                f"{sr_db:g} dB source-relay SNR; run the calibrate step first "
                "or set decoder.epsilons explicitly"
            )
        out.append(float(table[key]))
    return tuple(out)


def _simulate_batch(plan, index, jobs, decoder_cfg):
    """Simulate the (batch, n_frames) ``jobs`` as one stack of frames.

    Returns (errors, sum of squared frame errors, fallbacks) over all jobs,
    in the stages the module docstring names; ``links`` is the link list.
    A batch's draws fill its rows, so the result is the sum of the jobs'
    separate results and a pure function of those integers.
    """
    spec, length = plan.spec, plan.frame_len
    source_dest, source_relay, relay_dest = plan.topology_at(index)
    n_sr = 0 if plan.tying == "sr_infinite" else plan.n_relays
    links = ([(source_dest, _STREAM_SD)]
             + [(link, _STREAM_SR0 + 2 * r) for r, link in enumerate(source_relay[:n_sr])]
             + [(link, _STREAM_RD0 + 2 * r) for r, link in enumerate(relay_dest)])
    noise_var = np.array([link.noise_var for link, _ in links])
    starts = np.cumsum([0] + [n for _, n in jobs])
    rows = [(batch, slice(lo, lo + n), n) for (batch, n), lo in zip(jobs, starts)]
    idx = np.empty((starts[-1], length), dtype=np.int64)
    for batch, sl, n in rows:
        rng = make_stream(plan.seed, index, batch, _STREAM_SYMBOLS)
        idx[sl] = rng.integers(0, spec.M, size=(n, length))

    gains = np.empty((len(links), starts[-1]), dtype=complex)
    # y holds each link's noise (zero under zero_noise), then its samples h v + noise
    y = (np.zeros if plan.zero_noise else np.empty)(gains.shape + (length + 1,), dtype=complex)
    for batch, sl, n in rows:
        for row, (link, purpose) in enumerate(links):
            rng = make_stream(plan.seed, index, batch, purpose)
            draw_block_gain(link, rng, size=n, out=gains[row, sl])
            if not plan.zero_noise:
                draw_noise(link.noise_var, rng, size=(n, length + 1), out=y[row, sl])

    product = np.empty(y.shape[1:], dtype=complex)

    def add_channel(rows, v):
        """y[row] += h v for each of the rows, through one reused buffer."""
        for row, v_row in zip(rows, np.broadcast_to(v, (len(rows),) + product.shape)):
            y[row] += np.multiply(gains[row, :, None], v_row, out=product)

    v_s = (encode_psk_frame if spec.kind == "psk" else encode_qam_frame)(idx, spec)
    add_channel(range(1 + n_sr), v_s)
    # sr_infinite relays decide without error and forward the source's frame
    v_r, relay_decisions = v_s, np.broadcast_to(idx, (plan.n_relays,) + idx.shape)
    if n_sr:
        v_r, relay_decisions = relay_process_frame(y[1:1 + n_sr], spec, noise_var[1:1 + n_sr, None])
    add_channel(range(1 + n_sr, len(links)), v_r)
    y_rd, rd_nvs = y[1 + n_sr:], noise_var[1 + n_sr:]

    if spec.kind == "psk":
        decoded, fallbacks = decode_psk_frames(y[0], y_rd, noise_var[0], rd_nvs, spec, decoder_cfg)
    else:
        decoded, fallbacks = decode_qam_frames(
            y[0], y_rd, noise_var[0], rd_nvs, spec, decoder_cfg,
            true_source_idx=idx, true_relay_idx=relay_decisions,
        )
    frame_errors = np.count_nonzero(decoded != idx, axis=-1)
    return (
        int(frame_errors.sum()),
        int(np.sum(frame_errors.astype(np.int64) ** 2)),
        int(fallbacks),
    )


_BATCH_SYMBOL_TARGET = 8192
_ROUND_BATCHES = 8


def _usable_cpus() -> int:
    """CPUs this process may run on (its affinity set where the OS has one)."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def run_point(plan: ExperimentPlan, index: int, workers: int = 1) -> SerPoint:
    """Estimate the SER of one grid point under the plan's stopping policy.

    The batches of a round run in parallel, one per call for PSK and one
    contiguous share per thread for QAM.  There are at most ``workers``
    threads, never more than the usable CPUs or the batches in a round.
    Counts are summed and the stopping rule is applied only at round
    boundaries, so the result does not depend on the thread count.
    """
    if not 0 <= index < len(plan.snr_grid_db):
        raise ValueError(f"grid index {index} outside 0..{len(plan.snr_grid_db) - 1}")
    start = time.perf_counter()
    snr_db = plan.snr_grid_db[index]
    try:
        eps = resolve_epsilons(plan, index)
    except ValueError as exc:
        return SerPoint(snr_db, 0, 0, math.nan, math.nan, math.nan, failure=str(exc),
                        wall_s=time.perf_counter() - start)
    decoder_cfg = replace(plan.decoder, epsilons=eps)

    # the budget is whole frames in batches of per_batch; only the last is short
    length = plan.frame_len
    per_batch = max(1, _BATCH_SYMBOL_TARGET // length)
    budget = plan.trials.max_trials // length
    n_batches = -(-budget // per_batch)
    errors = sum_sq = fallbacks = batch = rounds = 0

    def simulate(share):
        return _simulate_batch(plan, index, share, decoder_cfg)

    # no round has more batches than the first: the budget's, up to _ROUND_BATCHES
    threads = max(1, min(workers, _usable_cpus(), _ROUND_BATCHES, n_batches))
    pool = ThreadPoolExecutor(max_workers=threads) if threads > 1 else None
    with pool or contextlib.nullcontext():
        run_jobs = pool.map if pool else map
        while errors < plan.trials.min_errors and batch < n_batches:
            jobs = [(b, min(per_batch, budget - b * per_batch))
                    for b in range(batch, min(batch + _ROUND_BATCHES, n_batches))]
            batch += len(jobs)
            rounds += 1
            size = -(-len(jobs) // threads) if plan.spec.kind == "qam" else 1
            shares = [jobs[i:i + size] for i in range(0, len(jobs), size)]
            for err, sq, fb in list(run_jobs(simulate, shares)):
                errors += err
                sum_sq += sq
                fallbacks += fb
    n_frames = min(batch * per_batch, budget)
    trials = n_frames * length
    deff = _design_effect(trials, n_frames, errors, sum_sq)
    lo, hi = wilson_interval(errors, trials, trials / deff)
    stop = "min_errors" if errors >= plan.trials.min_errors else "max_trials"
    return SerPoint(snr_db, errors, trials, errors / trials, lo, hi, fallbacks,
                    stop_reason=stop, rounds=rounds, deff=deff,
                    wall_s=time.perf_counter() - start)


def run_sweep(plan: ExperimentPlan, workers: int = 1) -> SerCurve:
    """Run every grid point; rows come back ordered by SNR.

    Point failures (for example missing calibration) are collected as
    annotated rows rather than aborting the sweep.
    """
    start = time.perf_counter()
    order = sorted(range(len(plan.snr_grid_db)), key=lambda i: plan.snr_grid_db[i])
    rows = tuple(run_point(plan, i, workers=workers) for i in order)
    return SerCurve(
        points=rows,
        plan_hash=plan.plan_hash(),
        wall_time_s=time.perf_counter() - start,
    )


@dataclass(frozen=True)
class ComparisonRow:
    snr_db: float
    value: float
    low: float
    high: float


@dataclass(frozen=True)
class ComparisonReport:
    mode: str
    rows: tuple[ComparisonRow, ...]


def _rel_half(point: SerPoint) -> float:
    if point.ser <= 0.0:
        return math.inf
    return (point.ci_high - point.ci_low) / (2.0 * point.ser)


def snr_at_level(curve: SerCurve, level: float) -> float:
    """SNR in dB where the curve crosses an SER level, log-linear interpolated."""
    if not level > 0.0:
        raise ValueError(f"level must be > 0, got {level}")
    snr = curve.snr_db
    ser = curve.ser
    if snr.size < 2:
        raise ValueError("need at least 2 successful points to interpolate")
    if np.any(ser <= 0.0):
        keep = ser > 0.0
        snr, ser = snr[keep], ser[keep]
    log_level = math.log10(level)
    log_ser = np.log10(ser)
    for i in range(len(snr) - 1):
        a, b = log_ser[i], log_ser[i + 1]
        if (a - log_level) * (b - log_level) <= 0.0 and a != b:
            frac = (a - log_level) / (a - b)
            return float(snr[i] + frac * (snr[i + 1] - snr[i]))
    raise ValueError(f"curve never crosses SER {level:g} on its grid")


def compare_curves(a: SerCurve, b: SerCurve, mode: str = "ratio") -> ComparisonReport:
    """Pointwise SER ratios, or horizontal dB gaps from a to b.

    ``ratio`` reports a/b at common SNRs with the relative CI half-widths
    combined in quadrature; where a has no errors, that is a's half-width
    over b's SER, its limit as a's SER goes to 0.  ``horizontal_db``
    reports, at each successful point of ``a``, how many dB further ``b``
    must go to reach the same SER (positive when ``a`` is better), with the
    gap recomputed at ``a``'s CI edges.
    """
    a_ok = {p.snr_db: p for p in a.points if p.failure is None}
    b_ok = {p.snr_db: p for p in b.points if p.failure is None}
    if mode == "ratio":
        common = sorted(set(a_ok) & set(b_ok))
        if not common:
            raise ValueError("curves share no successful SNR points")
        rows = []
        for s in common:
            pa, pb = a_ok[s], b_ok[s]
            if pb.ser <= 0.0:
                continue
            r = pa.ser / pb.ser
            if pa.ser > 0.0:
                half = r * math.hypot(_rel_half(pa), _rel_half(pb))
            else:
                half = (pa.ci_high - pa.ci_low) / (2.0 * pb.ser)
            rows.append(ComparisonRow(s, r, max(r - half, 0.0), r + half))
        if not rows:
            raise ValueError("no common point has a positive reference SER")
        return ComparisonReport("ratio", tuple(rows))
    if mode == "horizontal_db":
        rows = []
        for s in sorted(a_ok):
            pa = a_ok[s]
            gaps = []
            for level in (pa.ser, pa.ci_high, pa.ci_low):
                try:
                    gaps.append(snr_at_level(b, level) - s)
                except ValueError:
                    gaps.append(math.nan)
            if math.isnan(gaps[0]):
                continue
            bounds = [g for g in gaps if not math.isnan(g)]
            rows.append(ComparisonRow(s, gaps[0], min(bounds), max(bounds)))
        if not rows:
            raise ValueError("no SER level of the first curve is reachable on the second")
        return ComparisonReport("horizontal_db", tuple(rows))
    raise ValueError(f"mode must be 'ratio' or 'horizontal_db', got {mode!r}")
