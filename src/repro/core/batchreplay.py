"""Array-native whole-trace replay: a columnar driver over scheme kernels.

The per-packet replay drives one ``observe()`` call per packet — fine for
laptop-scale traces, the dominant cost of the whole suite at NLANR scale
(100k+ flows, millions of packets).  But every counting scheme here keeps
per-flow independent state, and each scheme's per-packet decision is an
elementwise function of ``(state, length)``, so packets of *different*
flows can be processed in lockstep.  This driver compiles the trace to
struct-of-arrays form (:mod:`repro.traces.compiled`), sorts flows by
descending packet budget, and replays column-by-column: step ``t`` feeds
the ``t``-th packet of every still-active flow to one vectorised
:meth:`~repro.core.kernels.SchemeKernel.step_column` call.  Flows retire
as their budgets drain, and because the flows are budget-sorted the
active set is always a contiguous prefix — a slice, not a gather mask.
That turns ``N_packets`` Python iterations into at most
``max_flow_packets`` vector steps.

Heavy-tailed traces leave a long thin tail: a handful of elephant flows
with orders of magnitude more packets than the rest.  Columns with only
a few active lanes pay NumPy's fixed per-call overhead without the width
to amortise it, so once the prefix narrows below the kernel's preferred
lane count the driver hands each surviving flow to the kernel's scalar
:meth:`~repro.core.kernels.SchemeKernel.tail_flow`.  For DISCO the tail
has two regimes:

* while ``gap(c) = b^c`` can still be jumped over by one packet, the
  exact decision memo (:class:`~repro.core.fastpath.UpdateCache`)
  replays full Algorithm-1 decisions;
* once ``b^c`` exceeds the flow's largest remaining packet, every
  decision is ``delta = 0`` with ``p = l / b^c``, and ``u < l / b^c`` is
  equivalent to ``c < (ln l - ln u) / ln b``.  The kernel precomputes
  those thresholds for all remaining packets in one vectorised log and
  the per-packet work collapses to a float comparison — elephants spend
  nearly their whole life in this dwell regime.

A **replica axis** runs R independent seeded replicas of one
(scheme, trace) pair in the same columnar pass: lanes are laid out
flow-major (``lane = flow * R + replica``) so the active set stays a
contiguous prefix of ``active * R`` lanes, and one shared random stream
drives every lane — replicas differ only through the randomness they
consume, exactly as R separately-seeded per-packet replays would.

The replay is **distributionally equivalent** to the scalar engine —
the same update laws with the same probabilities, hence the same
estimator moments — but not bit-identical: it consumes a
``numpy.random.Generator`` stream column-major instead of a
``random.Random`` stream packet-major.  (Deterministic kernels like
exact counting *are* bit-identical; see
:data:`repro.core.kernels.KernelSpec.bit_identical`.)
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, Optional, Union

import numpy as np

from repro import obs
from repro.core.functions import GeometricCountingFunction
from repro.core.kernels import KernelState
from repro.errors import ParameterError
from repro.traces.compiled import CompiledTrace, compile_trace
from repro.traces.trace import Trace

__all__ = ["BatchReplayResult", "ReplicaReplayResult", "run_kernel",
           "as_generator", "VectorSpec",
           "vector_spec", "DEFAULT_MIN_LANES"]

#: Below this many active lanes a NumPy column step costs more than the
#: scalar tail; the driver switches to the kernel's scalar tail phase.
#: Tuned empirically for DISCO across b in [1.002, 1.1] on heavy-tailed
#: traces: large b favours a wider threshold (the dwell regime starts
#: early and beats column steps), small b a narrower one (the memoized
#: phase rules until counters climb past log_b(maxlen)); 128 is the best
#: all-rounder.  Kernels with cheaper tails prefer narrower cutovers —
#: see :attr:`~repro.core.kernels.SchemeKernel.preferred_min_lanes`.
DEFAULT_MIN_LANES = 128


def as_generator(
    rng: Union[None, int, random.Random, np.random.Generator],
) -> np.random.Generator:
    """Coerce any of the repo's rng conventions to a ``numpy`` Generator.

    A ``random.Random`` is consumed for one 128-bit seed, so a seeded
    scheme deterministically seeds its vector replay too.
    """
    if isinstance(rng, np.random.Generator):
        return rng
    if isinstance(rng, random.Random):
        return np.random.default_rng(rng.getrandbits(128))
    return np.random.default_rng(rng)


@dataclass(frozen=True)
class VectorSpec:
    """The parameters under which a DISCO replay can be vectorised."""

    b: float
    mode: str
    capacity_bits: Optional[int]


def vector_spec(scheme) -> Optional[VectorSpec]:
    """Return the scheme's :class:`VectorSpec`, or ``None`` if ineligible.

    The batch engine reproduces exactly the plain per-flow DISCO law:
    geometric counting function, no burst aggregation, no variance
    tracking, and a fresh sketch (pre-existing counters would be
    ignored).  Capacity clamping *is* supported — the engine saturates
    lanes the same way :class:`~repro.core.disco.DiscoSketch` does.
    """
    from repro.core.disco import DiscoSketch

    if type(scheme) is not DiscoSketch:
        return None  # subclasses (e.g. aging) may hook the update path
    function = scheme.function
    if not isinstance(function, GeometricCountingFunction) or len(scheme):
        return None
    if scheme.burst_capacity is not None or scheme.track_variance:
        return None
    return VectorSpec(b=function.b, mode=scheme.mode,
                      capacity_bits=scheme.capacity_bits)


@dataclass(frozen=True)
class BatchReplayResult:
    """Outcome of one array-native replay, aligned with the compiled trace.

    ``counters[i]``, ``estimates[i]`` and ``truths[i]`` all describe
    ``compiled.keys[i]``.
    """

    compiled: CompiledTrace
    counters: np.ndarray
    estimates: np.ndarray
    truths: np.ndarray
    elapsed_seconds: float
    packets: int
    vector_steps: int
    tail_packets: int
    saturation_events: int
    #: The kernel that produced the replay (carries scheme-specific event
    #: counters and the writeback hook); absent on hand-built results.
    kernel: Optional[object] = field(default=None, compare=False, repr=False)
    #: Telemetry snapshot of this replay's events (``None`` when the run
    #: recorded nothing) — see :mod:`repro.obs`.
    telemetry: Optional[Dict[str, dict]] = field(default=None, compare=False,
                                                 repr=False)

    @property
    def keys(self):
        return self.compiled.keys

    def estimates_dict(self):
        """Estimates keyed by original flow key."""
        return {k: float(e) for k, e in zip(self.compiled.keys, self.estimates)}

    def counters_dict(self):
        """Final integer counters keyed by original flow key."""
        return {k: int(c) for k, c in zip(self.compiled.keys, self.counters)}

    def to_json(self):
        """JSON-serialisable summary (:class:`repro.results.MeasurementResult`)."""
        from repro.results import estimates_json

        return {
            "type": "batch",
            "trace": self.compiled.name,
            "packets": int(self.packets),
            "elapsed_seconds": float(self.elapsed_seconds),
            "vector_steps": int(self.vector_steps),
            "tail_packets": int(self.tail_packets),
            "saturation_events": int(self.saturation_events),
            "estimates": estimates_json(self.estimates_dict()),
            "telemetry": self.telemetry,
        }


@dataclass(frozen=True)
class ReplicaReplayResult:
    """Outcome of an R-replica columnar replay of one (scheme, trace) pair.

    ``counters[r, i]`` / ``estimates[r, i]`` describe replica ``r``'s
    state for flow ``compiled.keys[i]``; ``truths[i]`` is shared (every
    replica sees the same trace).
    """

    compiled: CompiledTrace
    counters: np.ndarray   # (R, F)
    estimates: np.ndarray  # (R, F)
    truths: np.ndarray     # (F,)
    elapsed_seconds: float
    packets: int           # per replica (= compiled.num_packets)
    replicas: int
    vector_steps: int
    tail_packets: int
    saturation_events: int
    kernel: Optional[object] = field(default=None, compare=False, repr=False)
    telemetry: Optional[Dict[str, dict]] = field(default=None, compare=False,
                                                 repr=False)

    @property
    def keys(self):
        return self.compiled.keys

    def estimates_dict(self, replica: int = 0):
        """One replica's estimates keyed by original flow key."""
        return {k: float(e)
                for k, e in zip(self.compiled.keys, self.estimates[replica])}

    def mean_estimates(self) -> np.ndarray:
        """Per-flow estimate averaged over replicas — (F,)."""
        return self.estimates.mean(axis=0)

    def to_json(self):
        """JSON-serialisable summary (:class:`repro.results.MeasurementResult`).

        ``estimates`` is replica 0 (the protocol's one-mapping view);
        ``mean_estimates`` carries the replica average alongside.
        """
        from repro.results import estimates_json

        return {
            "type": "replica",
            "trace": self.compiled.name,
            "replicas": int(self.replicas),
            "packets": int(self.packets),
            "elapsed_seconds": float(self.elapsed_seconds),
            "estimates": estimates_json(self.estimates_dict()),
            "mean_estimates": estimates_json(
                dict(zip(self.compiled.keys, self.mean_estimates()))),
            "telemetry": self.telemetry,
        }

    def relative_errors(self) -> np.ndarray:
        """Per-replica per-flow relative error |est - truth| / truth — (R, F).

        Flows with zero truth contribute 0 when estimated 0, else the
        absolute estimate (same convention as the per-packet harness).
        """
        truths = self.truths
        safe = np.where(truths > 0, truths, 1.0)
        errors = np.abs(self.estimates - truths) / safe
        zero = truths == 0
        if zero.any():
            errors[:, zero] = np.abs(self.estimates[:, zero])
        return errors


def run_kernel(
    trace: Union[Trace, CompiledTrace],
    factory: Callable[[int, np.random.Generator, int], object],
    mode: str = "volume",
    rng: Union[None, int, random.Random, np.random.Generator] = None,
    min_lanes: Optional[int] = None,
    replicas: int = 1,
    telemetry: Optional[obs.Telemetry] = None,
    resume: Optional[KernelState] = None,
    engine: str = "vector",
    store: Optional[str] = None,
) -> Union[BatchReplayResult, ReplicaReplayResult]:
    """Drive any :class:`~repro.core.kernels.SchemeKernel` over the trace.

    The low-level columnar driver beneath ``repro.replay(...,
    engine="vector")`` — call it directly when you need the array-level
    result (aligned counter/estimate arrays, the replica matrix) rather
    than scored :class:`~repro.harness.runner.RunResult` objects.

    Parameters
    ----------
    trace:
        A :class:`Trace` (compiled on the fly, cached) or an already
        compiled trace.
    factory:
        ``factory(lanes, gen, replicas)`` building a fresh kernel —
        usually :attr:`~repro.core.kernels.KernelSpec.factory`.
    mode:
        ``"volume"`` drives lanes with packet lengths, ``"size"`` with a
        uniform increment of 1.
    rng:
        Seed, ``random.Random``, ``numpy`` Generator or ``SeedSequence``;
        one shared stream drives every lane (and hence every replica).
    min_lanes:
        Active-prefix width (in lanes, i.e. flows x replicas) below which
        the driver switches from column steps to the kernel's scalar
        tail.  ``None`` uses the kernel's
        :attr:`~repro.core.kernels.SchemeKernel.preferred_min_lanes`.
    replicas:
        Number of independent replicas to advance in lockstep; with
        ``replicas=1`` the result is a plain :class:`BatchReplayResult`,
        otherwise a :class:`ReplicaReplayResult`.
    telemetry:
        Optional :class:`repro.obs.Telemetry` session; when it (or the
        ambient global registry) is enabled, the run's batch shape
        (columns, lanes, dwell-tail hits), phase timings and the
        kernel's event counters are recorded and a per-run snapshot is
        attached to the result's ``telemetry`` field.  Events are
        aggregated per run — never per packet — so the enabled path
        costs a handful of dict updates per replay.
    resume:
        Optional :class:`~repro.core.kernels.KernelState` carried out of
        a previous replay (``result.kernel.export_state(...)``); the
        fresh kernel loads it by flow key before the first column, so a
        trace split into segments replays as a continuation rather than
        from zero.  Requires a kernel with
        :attr:`~repro.core.kernels.SchemeKernel.resumable` set.
    engine:
        ``"vector"`` (default) runs the NumPy columnar loop above;
        ``"native"`` asks the kernel for a compiled whole-replay runner
        (:meth:`~repro.core.kernels.SchemeKernel.native_step`) and falls
        back to the columnar loop when the kernel declines or no native
        provider is available (counted as ``batch.native_fallback``).
        Runner resolution — including the one-off C compile — happens
        under the ``replay.native.warmup`` span *before* the timer
        starts, so compile time never pollutes throughput numbers.
    store:
        Optional compact counter-store backend
        (:mod:`repro.core.stores`; ``None``/``"dense"`` = live arrays).
        Hot loops always run on the dense columns; after the trace is
        consumed the final kernel state is round-tripped once through
        the store (encode + decode back into the dense scratch view),
        so the counters, estimates and any subsequent
        ``export_state``/``writeback`` reflect exactly what a compactly
        stored counter array would have read out — lossless for
        ``"pools"``, quantised for ``"morris"``.

    ``elapsed_seconds`` covers the update work only (column loop plus
    scalar tail), matching the per-packet engines' timing contract.
    """
    from repro.core import stores as _stores

    if mode not in ("volume", "size"):
        raise ParameterError(f"mode must be 'volume' or 'size', got {mode!r}")
    if engine not in ("vector", "native"):
        raise ParameterError(
            f"engine must be 'vector' or 'native', got {engine!r}")
    store_name = _stores.resolve_store(store)
    if min_lanes is not None and min_lanes < 1:
        raise ParameterError(f"min_lanes must be >= 1, got {min_lanes!r}")
    if replicas < 1:
        raise ParameterError(f"replicas must be >= 1, got {replicas!r}")
    tel = obs.resolve(telemetry)
    compiled = compile_trace(trace)
    gen = as_generator(rng)
    num_flows = compiled.num_flows
    R = replicas
    kernel = factory(num_flows * R, gen, R)
    if store_name is not None and not getattr(kernel, "resumable", False):
        raise ParameterError(
            f"store={store!r} needs a kernel with exportable state; "
            f"{type(kernel).__name__} is not resumable")
    if resume is not None:
        if not getattr(kernel, "resumable", False):
            raise ParameterError(
                f"{type(kernel).__name__} does not support resumable state")
        kernel.load_state(compiled.keys, resume)
    if min_lanes is None:
        min_lanes = kernel.preferred_min_lanes

    native_run = None
    if engine == "native":
        # Resolve (and, on first use, compile) the runner before the
        # timer starts: warmup cost lands in its own span, not in
        # ``elapsed_seconds``.
        with tel.span("replay.native.warmup"):
            native_run = kernel.native_step()

    sizes = compiled.sizes
    offsets = compiled.offsets
    lengths = compiled.lengths
    columns = compiled.max_flow_packets
    vector_steps = 0
    tail_packets = 0
    supports_tail = kernel.supports_tail

    start = time.perf_counter()
    t = 0
    active = num_flows
    # Active-prefix widths for every column in one searchsorted: flows are
    # sorted by descending packet budget, so active(t) = #flows with
    # budget > t, computed against the ascending reversed budgets.
    actives = num_flows - np.searchsorted(
        sizes[::-1], np.arange(columns, dtype=sizes.dtype), side="right")
    tail_flows = 0
    if native_run is not None:
        # -- native phase: the whole replay in one compiled call ------------
        stats = native_run(compiled, mode, min_lanes)
        vector_steps = stats.vector_steps
        tail_packets = stats.tail_packets
        tail_flows = stats.tail_flows
        columnar_elapsed = time.perf_counter() - start
        elapsed = columnar_elapsed
    else:
        # -- columnar phase: one vector step per packet column --------------
        while t < columns:
            active = int(actives[t])
            if supports_tail and active * R < min_lanes:
                break
            if mode == "volume":
                column = lengths[offsets[:active] + t]
                if R > 1:
                    column = np.repeat(column, R)
            else:
                column = 1.0
            kernel.step_column(column, active * R)
            vector_steps += 1
            t += 1
        columnar_elapsed = time.perf_counter() - start

        # -- scalar tail: the few flows that outlive the wide columns -------
        if t < columns and active > 0:
            for i in range(active):
                budget = int(sizes[i])
                if budget <= t:
                    continue
                n = budget - t
                if mode == "volume":
                    base = int(offsets[i])
                    lens = lengths[base + t:base + budget]
                else:
                    lens = None
                for r in range(R):
                    kernel.tail_flow(i * R + r, lens, n)
                tail_packets += n
                tail_flows += 1
        elapsed = time.perf_counter() - start

    if store_name is not None:
        # One round-trip through the compact representation: the state a
        # real deployment would have *kept* is what gets read out.
        # Outside the timed region — storage cost is memory, not update
        # throughput.
        staged = kernel.export_state(compiled.keys, store=store_name)
        kernel.load_state(compiled.keys, staged)

    snapshot = None
    if tel.enabled:
        # Aggregated post-hoc: a handful of dict updates per run, nothing
        # inside the column loop, so the enabled path stays inside the
        # perf gate's overhead budget.
        local = obs.Telemetry()
        local.count("batch.replays")
        local.count("batch.replicas", R)
        if native_run is not None:
            local.count("batch.native")
        elif engine == "native":
            local.count("batch.native_fallback")
        local.count("batch.columns", vector_steps)
        local.count("batch.column_lanes",
                    int(actives[:vector_steps].sum()) * R)
        local.count("batch.tail_flows", tail_flows * R)
        local.count("batch.tail_packets", tail_packets * R)
        if store_name is not None:
            local.count(f"batch.store.{store_name}")
        local.timing("batch.columnar_phase", columnar_elapsed)
        local.timing("batch.tail_phase", elapsed - columnar_elapsed)
        for name, value in kernel.telemetry_events().items():
            if value:
                local.count(name, value)
        snapshot = local.snapshot()
        tel.merge(snapshot)

    counters = kernel.counters()
    estimates = kernel.estimates()
    truths = compiled.true_totals_array(mode)
    if R == 1:
        return BatchReplayResult(
            compiled=compiled,
            counters=counters,
            estimates=estimates,
            truths=truths,
            elapsed_seconds=elapsed,
            packets=compiled.num_packets,
            vector_steps=vector_steps,
            tail_packets=tail_packets,
            saturation_events=kernel.saturation_events,
            kernel=kernel,
            telemetry=snapshot,
        )
    # Lanes are flow-major: reshape (F*R,) -> (F, R), transpose to (R, F)
    # so each row is one replica's view of the whole trace.
    return ReplicaReplayResult(
        compiled=compiled,
        counters=np.ascontiguousarray(counters.reshape(num_flows, R).T),
        estimates=np.ascontiguousarray(estimates.reshape(num_flows, R).T),
        truths=truths,
        elapsed_seconds=elapsed,
        packets=compiled.num_packets,
        replicas=R,
        vector_steps=vector_steps,
        tail_packets=tail_packets,
        saturation_events=kernel.saturation_events,
        kernel=kernel,
        telemetry=snapshot,
    )
