"""In-memory span tracer and the wrappers that attach it to the program.

The benchmark records spans from its own files: it replaces a layer's
public function at the site the caller looks it up (a module attribute
or a class attribute), times every call, and puts the original back when
the run ends.  Nothing under ``src/`` is edited.

A span's *self time* is its duration minus the durations of its direct
children; each span name maps to one layer metric, so the per-layer
numbers add up to the traced wall time minus what no span covers
(``bench.unattributed_s``).
"""

from __future__ import annotations

import os
import time
from collections import Counter, defaultdict

#: Span name -> per-layer metric that receives its self time.
LAYER_METRICS = {
    "traces.arrivals": "traces.arrivals_s",
    "traces.compile": "traces.compile_s",
    "core.update": "core.update_s",
    "core.kernel": "core.kernel_s",
    "core.state_load": "core.state_load_s",
    "core.state_export": "core.state_export_s",
    "stores.encode": "stores.encode_s",
    "stores.decode": "stores.decode_s",
    "streaming.ingest": "streaming.ingest_self_s",
    "streaming.rotate": "streaming.rotate_s",
    "streaming.checkpoint": "streaming.checkpoint_s",
    "serve.ingest_loop": "serve.ingest_loop_s",
    "serve.queries.live_decode": "serve.queries.live_decode_s",
    "serve.queries.sync": "serve.queries.sync_s",
    "serve.queries.answer": "serve.queries.answer_s",
    "serve.httpd": "serve.httpd_self_s",
    "metrics.score": "metrics.score_s",
}

#: Root span around one measured call; its self time is what no layer
#: span covers.
ROOT = "bench.call"


class Tracer:
    """Spans kept in memory: ``[name, start, end, parent, child_time]``."""

    def __init__(self) -> None:
        self.spans = []
        self._stack = []
        self.counts = Counter()
        self._undo = []

    # -- recording -----------------------------------------------------------

    def begin(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent, 0.0])
        index = len(self.spans) - 1
        self._stack.append(index)
        return index

    def end(self, index: int) -> None:
        span = self.spans[index]
        span[2] = time.perf_counter()
        popped = self._stack.pop()
        if popped != index:
            raise RuntimeError(f"span {span[0]!r} closed out of order")
        if span[3] >= 0:
            self.spans[span[3]][4] += span[2] - span[1]

    def record(self, name: str, start: float, end: float) -> None:
        """A closed span measured elsewhere, under the current parent."""
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, start, end, parent, 0.0])
        if parent >= 0:
            self.spans[parent][4] += end - start

    def current(self):
        """Name of the innermost open span, or ``None``."""
        return self.spans[self._stack[-1]][0] if self._stack else None

    # -- read-out ------------------------------------------------------------

    def self_times(self) -> dict:
        """Per-layer metric -> summed self time of its spans (seconds)."""
        out = defaultdict(float)
        for name, start, end, _parent, child in self.spans:
            if end is None:
                raise RuntimeError(f"span {name!r} never closed")
            metric = LAYER_METRICS.get(name)
            if metric is not None:
                out[metric] += (end - start) - child
        return out

    def root_self_time(self) -> float:
        return sum((end - start) - child
                   for name, start, end, _p, child in self.spans
                   if name == ROOT)

    # -- wrapping ------------------------------------------------------------

    def wrap(self, owner, attr: str, name: str, after=None) -> None:
        """Time every call of ``owner.attr`` as a span called ``name``.

        ``after(result, args, kwargs)`` runs inside the span once the
        call returns, for counts taken where the work happens.
        """
        original = (owner.__dict__[attr] if isinstance(owner, type)
                    else getattr(owner, attr))
        tracer = self

        def traced(*args, **kwargs):
            index = tracer.begin(name)
            try:
                result = original(*args, **kwargs)
                if after is not None:
                    after(result, args, kwargs)
                return result
            finally:
                tracer.end(index)

        traced.__wrapped__ = original
        setattr(owner, attr, traced)
        self._undo.append((owner, attr, original))

    def probe(self, owner, attr: str, before) -> None:
        """Call ``before(args, kwargs)`` ahead of ``owner.attr`` (no span)."""
        original = (owner.__dict__[attr] if isinstance(owner, type)
                    else getattr(owner, attr))

        def probed(*args, **kwargs):
            before(args, kwargs)
            return original(*args, **kwargs)

        setattr(owner, attr, probed)
        self._undo.append((owner, attr, original))

    def replace(self, owner, attr: str, value) -> None:
        original = getattr(owner, attr)
        setattr(owner, attr, value)
        self._undo.append((owner, attr, original))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)


def _subclasses_defining(base, attr: str):
    """``base`` and every loaded subclass with its own ``attr``."""
    seen, todo, out = set(), [base], []
    while todo:
        cls = todo.pop()
        if cls in seen:
            continue
        seen.add(cls)
        if attr in cls.__dict__:
            out.append(cls)
        todo.extend(cls.__subclasses__())
    return out


class _TracedJson:
    """Stand-in for the ``json`` module inside ``repro.serve.httpd``."""

    def __init__(self, tracer: Tracer, module) -> None:
        self._tracer = tracer
        self._json = module

    def dumps(self, *args, **kwargs):
        index = self._tracer.begin("serve.httpd")
        try:
            return self._json.dumps(*args, **kwargs)
        finally:
            self._tracer.end(index)

    def __getattr__(self, name):
        return getattr(self._json, name)


def install(tracer: Tracer) -> None:
    """Attach ``tracer`` to every layer boundary the benchmark reports.

    The import sites: ``repro.harness.runner`` and ``repro.streaming``
    bind ``relative_errors``/``run_kernel``/``compile_trace`` at import
    time, so those module attributes are replaced; methods are replaced
    on their classes.
    """
    import numpy as np

    import repro.core.batchreplay as batchreplay
    import repro.harness.runner as runner
    import repro.serve.feeds as feeds
    import repro.serve.httpd as httpd
    import repro.streaming as streaming
    from repro.core.disco import DiscoSketch
    from repro.core.kernels import SchemeKernel
    from repro.core.stores import CounterStore
    from repro.serve.daemon import ServeDaemon
    from repro.serve.queries import QueryEngine
    from repro.traces.trace import Trace

    counts = tracer.counts

    # traces: arrival materialisation (the shuffled replay list) and
    # compilation wherever a caller looks compile_trace up.
    original_pairs = Trace.__dict__["packet_pairs"]

    def packet_pairs(self, order="shuffled", rng=None):
        if order != "shuffled":
            return original_pairs(self, order=order, rng=rng)
        index = tracer.begin("traces.arrivals")
        try:
            pairs = list(original_pairs(self, order=order, rng=rng))
        finally:
            tracer.end(index)
        return iter(pairs)

    tracer.replace(Trace, "packet_pairs", packet_pairs)
    for module in (batchreplay, streaming, feeds):
        tracer.wrap(module, "compile_trace", "traces.compile")

    # core: the columnar driver and the carried state it loads/exports.
    def kernel_counts(_result, args, kwargs):
        trace = args[0] if args else kwargs["trace"]
        replicas = kwargs.get("replicas", 1)
        counts["core.kernel_calls"] += 1
        counts["core.kernel_lanes"] += trace.num_flows * replicas
        counts["core.kernel_packets"] += trace.num_packets
        counts["core.useful_lanes"] += (
            int(np.count_nonzero(trace.sizes)) * replicas)

    for module in (streaming, batchreplay):
        tracer.wrap(module, "run_kernel", "core.kernel", after=kernel_counts)
    for cls in _subclasses_defining(SchemeKernel, "load_state"):
        tracer.wrap(cls, "load_state", "core.state_load")
    for cls in _subclasses_defining(SchemeKernel, "export_state"):
        tracer.wrap(cls, "export_state", "core.state_export")

    # stores: column encode (write) and decode (read).
    for cls in _subclasses_defining(CounterStore, "write"):
        tracer.wrap(cls, "write", "stores.encode")
    for cls in _subclasses_defining(CounterStore, "read"):
        tracer.wrap(cls, "read", "stores.decode")

    # streaming: chunk intake, rotation, checkpoints.
    for attr in ("consume", "ingest_chunk"):
        tracer.wrap(streaming.StreamSession, attr, "streaming.ingest")

    def epoch_counts(result, _args, _kwargs):
        if result is not None:
            counts["streaming.epochs"] += 1

    tracer.wrap(streaming.StreamSession, "rotate", "streaming.rotate",
                after=epoch_counts)

    def checkpoint_counts(path, _args, _kwargs):
        counts["streaming.checkpoints"] += 1
        counts["streaming.checkpoint_bytes"] += os.path.getsize(path)

    tracer.wrap(streaming.StreamSession, "checkpoint",
                "streaming.checkpoint", after=checkpoint_counts)

    def readout_bytes(args, _kwargs):
        # _readout(spec, state): the rotation-time export of one shard.
        if tracer.current() == "streaming.rotate":
            state = args[1]
            counts["stores.rotated_state_bytes"] += state.nbytes()
            counts["stores.rotated_flows"] += state.flows

    tracer.probe(streaming, "_readout", readout_bytes)

    # serve: query engine, live decode, the HTTP handler and its JSON.
    for attr in ("live_estimates", "live_counters"):
        tracer.wrap(streaming.StreamSession, attr,
                    "serve.queries.live_decode")
    tracer.wrap(QueryEngine, "_live", "serve.queries.live_decode")
    tracer.wrap(QueryEngine, "sync", "serve.queries.sync")
    for attr in ("flow", "topk", "epochs"):
        tracer.wrap(QueryEngine, attr, "serve.queries.answer")
    tracer.wrap(ServeDaemon, "_handle", "serve.httpd")
    tracer.replace(httpd, "json", _TracedJson(tracer, httpd.json))

    # metrics: scoring and the per-flow estimate read-out it scores.
    for attr in ("relative_errors", "summarize_errors",
                 "relative_errors_array", "summarize_errors_array"):
        tracer.wrap(runner, attr, "metrics.score")
    tracer.wrap(Trace, "true_totals", "metrics.score")
    tracer.wrap(DiscoSketch, "estimate", "metrics.score")


def layer_metrics(tracer: Tracer, calls: int) -> dict:
    """Per-call layer metrics from a traced run of ``calls`` calls."""
    per_call = 1.0 / max(calls, 1)
    times = tracer.self_times()
    out = {metric: times.get(metric, 0.0) * per_call
           for metric in LAYER_METRICS.values()}
    c = tracer.counts
    out["core.kernel_calls"] = c["core.kernel_calls"] * per_call
    out["core.kernel_lanes"] = c["core.kernel_lanes"] * per_call
    out["core.kernel_packets"] = c["core.kernel_packets"] * per_call
    out["core.useful_lane_ratio"] = (
        c["core.useful_lanes"] / c["core.kernel_lanes"]
        if c["core.kernel_lanes"] else 0.0)
    out["stores.state_bytes_per_flow"] = (
        c["stores.rotated_state_bytes"] / c["stores.rotated_flows"]
        if c["stores.rotated_flows"] else 0.0)
    out["streaming.epochs"] = c["streaming.epochs"] * per_call
    out["streaming.checkpoints"] = c["streaming.checkpoints"] * per_call
    out["streaming.checkpoint_bytes"] = (
        c["streaming.checkpoint_bytes"] * per_call)
    return out
