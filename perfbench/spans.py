"""In-memory span tracer for the traced benchmark run.

The tracer wraps the public functions of each ``diffrelay`` module at the
place where the calling module looks them up (the names ``simkit`` imports
from ``channel``, the names ``cli`` imports from ``analysis``, ...), plus a
few boundaries a module calls within itself (``simkit.run_sweep`` ->
``run_point``, ``cli.main`` -> ``cmd_sweep``).  Nothing under ``src/`` is
edited: the wrappers are installed on module attributes for the traced
repeats and removed afterwards.

A span is (id, name, start, end, parent, run id, thread).  Spans opened in a
worker thread with no open span of their own take the innermost open span of
the thread that installed the tracer as parent, which is where
``simkit.run_point`` waits for its thread pool.  Calls into ``specfun`` and
``constellation`` are counted but not timed: they sit in the inner loops of
the analytic routes, where a span per call would cost more than the call.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import json
import threading
import time
from collections import Counter

import numpy as np

# Layers in dependency order; every module of the package is one layer.
LAYERS = (
    "specfun", "constellation", "diffmod", "channel", "relay",
    "decoders", "analysis", "simkit", "cli",
)
# Callee layers whose calls are counted, never timed.
COUNT_ONLY = ("specfun", "constellation")
# Calls a module makes to its own functions that mark a layer boundary.
SAME_MODULE = {
    "simkit": ("run_sweep", "run_point"),
    "cli": ("load_config", "cmd_calibrate", "cmd_sweep", "write_rows"),
}
# Function-level imports are looked up in the callee module at call time.
CALLEE_MODULE = {"specfun": ("log_laguerre_neg_table",)}


def _size(args, kwargs, pos):
    size = kwargs.get("size", args[pos] if len(args) > pos else None)
    return 1 if size is None else int(np.prod(size))


def _count_run_point(c, args, kwargs, point):
    plan = args[0]
    c["simkit.trials"] += point.trials
    c["simkit.errors"] += point.errors
    if point.errors < plan.trials.min_errors:
        c["simkit.capped_points"] += 1
    else:
        c["simkit.error_stopped_points"] += 1
        c["simkit.error_overshoot_sum"] += point.errors / plan.trials.min_errors


def _count_decode(c, args, kwargs, result):
    decided, fallbacks = result
    c["decoders.symbols"] += decided.size
    c["decoders.pl_fallbacks"] += fallbacks
    if kwargs.get("cfg", args[5] if len(args) > 5 else None).kind == "pl":
        c["decoders.pl_decisions"] += decided.size


def _count_pep(c, args, kwargs, result):
    c["analysis.pep_calls"] += 1
    c["analysis.unconverged"] += not result.converged


# (layer, function) -> counter update from (counter, args, kwargs, result)
COUNTERS = {
    ("channel", "make_stream"): lambda c, a, k, r: c.update(("channel.streams",)),
    ("channel", "draw_block_gain"): lambda c, a, k, r: c.update(
        {"channel.samples": _size(a, k, 2)}),
    ("channel", "draw_noise"): lambda c, a, k, r: c.update(
        {"channel.samples": _size(a, k, 2)}),
    ("diffmod", "encode_psk_frame"): lambda c, a, k, r: c.update(
        {"diffmod.symbols": np.size(a[0])}),
    ("diffmod", "encode_qam_frame"): lambda c, a, k, r: c.update(
        {"diffmod.symbols": np.size(a[0])}),
    ("relay", "relay_process_frame"): lambda c, a, k, r: c.update(
        {"relay.forward_symbols": r[1].size}),
    ("relay", "calibrate_epsilon"): lambda c, a, k, r: c.update(
        {"relay.calibrate_trials": r.trials}),
    ("decoders", "decode_psk_frames"): _count_decode,
    ("decoders", "decode_qam_frames"): _count_decode,
    ("simkit", "run_point"): _count_run_point,
    ("analysis", "pep_exact"): _count_pep,
    ("analysis", "pep_closed_form"): _count_pep,
    ("analysis", "pep_quadrature_approx"): _count_pep,
    ("analysis", "pep_asymptotic_multirelay"): _count_pep,
    ("analysis", "pep_asymptotic_conditional"): _count_pep,
}


class Patches:
    """Module attributes replaced for a while, put back by ``undo``."""

    def __init__(self):
        self._saved = []

    def set(self, module, attr, value):
        self._saved.append((module, attr, getattr(module, attr)))
        setattr(module, attr, value)

    def undo(self):
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)


class Tracer:
    """Spans and counters of one traced run, kept in memory until written."""

    def __init__(self):
        self.spans = []  # (id, name, start, end, parent, run_id, thread)
        self.counts = {}  # run id -> Counter
        self.run_id = None
        self._lock = threading.Lock()
        self._local = threading.local()
        self._next_id = 0
        self._owner_stack = self._stack()
        self.patches = Patches()

    def begin(self, run_id):
        """Start a new run id; later spans and counts belong to it."""
        self.run_id = run_id
        self.counts[run_id] = Counter()

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextlib.contextmanager
    def span(self, name):
        """Record a span around the enclosed block."""
        stack = self._stack()
        if stack:
            parent = stack[-1]
        else:
            owner = self._owner_stack
            parent = owner[-1] if owner else None
        with self._lock:
            self._next_id += 1
            span_id = self._next_id
        stack.append(span_id)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans.append((span_id, name, start, end, parent, self.run_id,
                               threading.get_ident()))

    def wrap(self, fn, layer):
        """Wrapper of ``fn`` that records a ``<layer>.<function>`` span and counts."""
        name = f"{layer}.{fn.__name__}"
        if layer in COUNT_ONLY:
            key = f"{name}.calls"

            @functools.wraps(fn)
            def counted(*args, **kwargs):
                with self._lock:
                    self.counts[self.run_id][key] += 1
                return fn(*args, **kwargs)

            return counted

        counter = COUNTERS.get((layer, fn.__name__))

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                result = fn(*args, **kwargs)
            if counter is not None:
                with self._lock:
                    counter(self.counts[self.run_id], args, kwargs, result)
            return result

        return traced

    def install(self, callers):
        """Wrap layer functions where each module in ``callers`` looks them up."""
        import diffrelay

        layer_of = {f"diffrelay.{layer}": layer for layer in LAYERS}
        for caller in callers:
            for attr, value in list(vars(caller).items()):
                if attr.startswith("_") or not inspect.isfunction(value):
                    continue
                layer = layer_of.get(value.__module__)
                if layer is None:
                    continue
                if caller.__name__ == value.__module__ and \
                        attr not in SAME_MODULE.get(layer, ()):
                    continue
                self.patches.set(caller, attr, self.wrap(value, layer))
        for layer, names in CALLEE_MODULE.items():
            module = getattr(diffrelay, layer)
            for attr in names:
                self.patches.set(module, attr, self.wrap(getattr(module, attr), layer))

    def self_times(self):
        """Span id -> duration minus the part of it its child spans cover.

        Children running in parallel threads may overlap; their union is what
        is subtracted, so a parent waiting on a pool keeps no negative time.
        """
        children = {}
        for span in self.spans:
            children.setdefault(span[4], []).append(span)
        out = {}
        for span_id, _, start, end, *_ in self.spans:
            covered = 0.0
            cursor = start
            for _, _, c_start, c_end, *_ in sorted(children.get(span_id, ()),
                                                    key=lambda s: s[2]):
                lo, hi = max(c_start, cursor), min(c_end, end)
                if hi > lo:
                    covered += hi - lo
                    cursor = hi
            out[span_id] = (end - start) - covered
        return out

    def write(self, path):
        """Write every span, with its self time, and the counters as JSON."""
        own = self.self_times()
        spans = [
            {"id": s[0], "name": s[1], "start": s[2], "end": s[3], "parent": s[4],
             "run_id": s[5], "thread": s[6], "self_s": own[s[0]]}
            for s in self.spans
        ]
        with open(path, "w") as fh:
            json.dump({"spans": spans, "counts": self.counts}, fh)


# Per-layer metrics: (name, unit, better).  Times are sums of span durations
# over one repeat, except simkit.self_s, which sums self times.
PER_LAYER = (
    ("channel.draw_s", "s", "lower"),
    ("channel.samples", "count", "lower"),
    ("channel.streams", "count", "lower"),
    ("diffmod.encode_s", "s", "lower"),
    ("diffmod.symbols", "count", "lower"),
    ("relay.forward_s", "s", "lower"),
    ("relay.forward_symbols", "count", "lower"),
    ("relay.calibrate_s", "s", "lower"),
    ("relay.calibrate_trials", "count", "lower"),
    ("decoders.decode_s", "s", "lower"),
    ("decoders.symbols", "count", "lower"),
    ("decoders.pl_fallbacks", "count", "lower"),
    ("decoders.pl_fallback_ratio", "ratio", "lower"),
    ("simkit.point_s", "s", "lower"),
    ("simkit.self_s", "s", "lower"),
    ("simkit.trials", "count", "lower"),
    ("simkit.errors", "count", "lower"),
    ("simkit.capped_points", "count", "lower"),
    ("simkit.error_overshoot", "ratio", "lower"),
    ("analysis.exact_s", "s", "lower"),
    ("analysis.closed_form_s", "s", "lower"),
    ("analysis.quadrature_s", "s", "lower"),
    ("analysis.asymptotic_s", "s", "lower"),
    ("analysis.s_per_row", "s", "lower"),
    ("analysis.pep_calls", "count", "lower"),
    ("analysis.unconverged", "count", "lower"),
    ("specfun.q_function.calls", "count", "lower"),
    ("specfun.log_incomplete_gamma_lower.calls", "count", "lower"),
    ("specfun.log_incomplete_gamma_upper.calls", "count", "lower"),
    ("specfun.log_laguerre_neg_table.calls", "count", "lower"),
    ("constellation.builds", "count", "lower"),
    ("cli.load_s", "s", "lower"),
    ("cli.calibrate_s", "s", "lower"),
    ("cli.sweep_s", "s", "lower"),
    ("cli.write_s", "s", "lower"),
    ("trace.spans", "count", "lower"),
    ("trace.overhead_s", "s", "lower"),
)

_SPAN_SUMS = {
    "channel.draw_s": ("channel.make_stream", "channel.draw_block_gain",
                       "channel.draw_noise"),
    "diffmod.encode_s": ("diffmod.encode_psk_frame", "diffmod.encode_qam_frame"),
    "relay.forward_s": ("relay.relay_process_frame",),
    "relay.calibrate_s": ("relay.calibrate_epsilon",),
    "decoders.decode_s": ("decoders.decode_psk_frames", "decoders.decode_qam_frames"),
    "simkit.point_s": ("simkit.run_point",),
    "analysis.exact_s": ("analysis.pep_exact",),
    "analysis.closed_form_s": ("analysis.pep_closed_form",),
    "analysis.quadrature_s": ("analysis.pep_quadrature_approx",),
    "analysis.asymptotic_s": ("analysis.pep_asymptotic_multirelay",
                              "analysis.pep_asymptotic_conditional"),
    "cli.load_s": ("cli.load_config",),
    "cli.calibrate_s": ("cli.cmd_calibrate",),
    "cli.sweep_s": ("cli.cmd_sweep",),
    "cli.write_s": ("cli.write_rows",),
}
_COUNTS = (
    "channel.samples", "channel.streams", "diffmod.symbols", "relay.forward_symbols",
    "relay.calibrate_trials", "decoders.symbols", "decoders.pl_fallbacks",
    "simkit.trials", "simkit.errors", "simkit.capped_points", "analysis.pep_calls",
    "analysis.unconverged", "specfun.q_function.calls",
    "specfun.log_incomplete_gamma_lower.calls",
    "specfun.log_incomplete_gamma_upper.calls",
    "specfun.log_laguerre_neg_table.calls",
)


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(tracer, run_id, self_times):
    """Per-layer metrics of one traced repeat, without trace.overhead_s."""
    spans = [s for s in tracer.spans if s[5] == run_id]
    counts = tracer.counts[run_id]
    by_name = {}
    for span in spans:
        by_name.setdefault(span[1], []).append(span[3] - span[2])
    out = {metric: sum(sum(by_name.get(n, ())) for n in names)
           for metric, names in _SPAN_SUMS.items()}
    out["simkit.self_s"] = sum(self_times[s[0]] for s in spans
                               if s[1].startswith("simkit."))
    rows = by_name.get("analysis.ser_nearest_neighbor", ())
    out["analysis.s_per_row"] = _ratio(sum(rows), len(rows))
    out.update({name: counts[name] for name in _COUNTS})
    out["decoders.pl_fallback_ratio"] = _ratio(counts["decoders.pl_fallbacks"],
                                               counts["decoders.pl_decisions"])
    out["simkit.error_overshoot"] = _ratio(counts["simkit.error_overshoot_sum"],
                                           counts["simkit.error_stopped_points"])
    out["constellation.builds"] = (counts["constellation.make_psk.calls"]
                                   + counts["constellation.make_qam.calls"])
    out["trace.spans"] = len(spans)
    return out

