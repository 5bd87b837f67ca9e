"""One measured process for the in-process workloads (replay, stream).

Started by ``perfbench/run.py``.  It imports the program, loads the
native library and builds its inputs (the set-up), prints ``READY``,
then waits for one line on stdin: ``quit`` ends a set-up-only probe,
``go`` runs the measured phase and prints ``REPORT <json>``.

Usage: ``python3 perfbench/worker.py --workload replay-nlanr --seed 1
--seconds 10 --trace 0 [--size tiny]``; ``--warmup`` only loads the
program and its native library.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import statistics
import sys
import time
import warnings

import numpy as np

import repro
from repro import make_scheme, obs, scheme_factory
from repro.core import native
from repro.traces.compiled import clear_compile_cache

import tracing
import workloads as wl

#: A measured phase runs at least this many calls, even past --seconds.
MIN_CALLS = 2


def replay_call(inputs, seed, timed):
    """``repro.replay`` from a Trace to a scored RunResult, cold caches."""
    trace, keys, truth, packets = inputs
    name, params = wl.SCHEME
    scheme = make_scheme(name, seed=seed, **params)
    clear_compile_cache()
    with timed() as run:
        run.result = repro.replay(scheme, trace, rng=seed)
    result = run.result
    avg, problems = wl.check_run(
        packets=result.packets, expected_packets=packets,
        estimates=wl.aligned(result.estimates, keys), truth=truth,
        max_counter_bits=result.max_counter_bits,
        reported_avg_error=result.summary.average)
    return run, avg, problems


def stream_factory(seed):
    name, params = wl.SCHEME
    return scheme_factory(name, seed=seed, **params)


def stream_call(inputs, seed, timed):
    """``repro.stream`` over the pre-built chunks to a StreamResult."""
    provider, keys, truth, packets = inputs
    factory = stream_factory(seed)
    with timed() as run:
        run.result = repro.stream(factory, provider, shards=2,
                                  epoch_packets=packets // 4,
                                  engine="native", rng=seed)
    result = run.result
    avg, problems = wl.check_run(
        packets=result.packets, expected_packets=packets,
        estimates=wl.aligned(result.estimates_dict(), keys), truth=truth,
        max_counter_bits=result.max_counter_bits)
    return run, avg, problems


def native_guard(inputs, seed):
    """Problems if the stream's native engine silently runs as vector.

    Streams the first chunks with telemetry on and requires every
    kernel call to have taken the compiled path.
    """
    provider = inputs[0]
    chunks = provider.chunks[:4]
    head = wl.ChunkProvider(provider.name, provider.chunk_packets, chunks,
                            sum(c.packets for c in chunks))
    tel = obs.Telemetry()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        repro.stream(stream_factory(seed), head, shards=2, engine="native",
                     rng=seed, telemetry=tel)
    counters = tel.snapshot()["counters"]
    problems = [f"native fallback warning: {w.message}" for w in caught
                if "falling back" in str(w.message)]
    if counters.get("batch.native_fallback", 0) or not counters.get(
            "batch.native", 0):
        problems.append(f"stream ran {counters.get('batch.native', 0)} "
                        f"native and {counters.get('batch.native_fallback', 0)}"
                        f" fallback kernel calls")
    return problems


WORKLOAD_CALLS = {
    "replay-nlanr": (wl.replay_input, replay_call),
    "stream-big": (wl.stream_input, stream_call),
}


class Timed:
    """The measured call: its result, start and wall time."""

    result = None
    start = wall = 0.0


@contextlib.contextmanager
def timed_region():
    run = Timed()
    run.start = time.perf_counter()
    yield run
    run.wall = time.perf_counter() - run.start


def traced_region(tracer):
    """The timed region as the root span of a traced call."""

    @contextlib.contextmanager
    def span():
        run = Timed()
        root = tracer.begin(tracing.ROOT)
        run.start = time.perf_counter()
        try:
            yield run
        finally:
            run.wall = time.perf_counter() - run.start
            if getattr(run.result, "engine", None) in ("python", "fast"):
                # The scalar engines time their own per-packet loop.
                end = time.perf_counter()
                tracer.record("core.update",
                              end - run.result.elapsed_seconds, end)
            tracer.end(root)

    return span


def traced_call(call, inputs, seed, tracer):
    tracing.install(tracer)
    try:
        return call(inputs, seed, traced_region(tracer))
    finally:
        tracer.uninstall()


def call_steps(handed, run):
    """A stream call cut at the moments it asked for each chunk."""
    return np.diff([run.start] + handed + [run.start + run.wall])


def fastest_wall(walls, steps):
    """The call's wall time with other tenants' load filtered out.

    Load from other tenants of a shared machine only ever slows a call.
    Every call does identical work, so the fastest call is the steadiest
    figure; a chunked stream call does better still by summing, step by
    step, the fastest of its repeats (one step per chunk handed over).
    """
    if steps:
        return float(np.min(np.vstack(steps), axis=0).sum())
    return min(walls)


def measure(args, inputs, call):
    """The measured phase: repeated calls for ``--seconds``, medians."""
    problems = []
    engines = set()
    failed = attempted = 0
    if args.workload == "stream-big":
        # The guard counts as one run of its own.
        problems += native_guard(inputs, args.seed)
        failed += bool(problems)
        attempted += 1
        engines.add("native")
    calls = 0
    tracer = tracing.Tracer() if args.trace else None
    walls = {False: [], True: []}
    steps = []
    avgs, bits = [], []
    flows = len(inputs[1])
    packets = inputs[3]
    gc.collect()
    baseline = wl.reset_peak_rss()
    start = time.perf_counter()
    while (calls < MIN_CALLS * (2 if args.trace else 1)
           or time.perf_counter() - start < args.seconds):
        traced = bool(args.trace) and calls % 2 == 1
        if traced:
            run, avg, run_problems = traced_call(call, inputs, args.seed,
                                                 tracer)
        else:
            run, avg, run_problems = call(inputs, args.seed, timed_region)
        calls += 1
        attempted += 1
        walls[traced].append(run.wall)
        if not traced and hasattr(inputs[0], "handed"):
            steps.append(call_steps(inputs[0].handed, run))
        result = run.result
        avgs.append(avg)
        bits.append(result.max_counter_bits)
        engines.add(getattr(result, "engine", "native"))
        if run_problems:
            failed += 1
            problems += run_problems
        del run, result
        gc.collect()
    peak_mb = wl.peak_growth_mb(baseline)

    report = {
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
        "engines": sorted(engines),
        "provider": native.provider_name(),
        "packets": packets,
        "flows": flows,
        "calls": len(walls[False]),
        "call_walls": walls[False],
    }
    if not args.trace:
        report["metrics"] = {
            "throughput_pps": packets / fastest_wall(walls[False], steps),
            "peak_mem_mb": peak_mb,
            "avg_rel_error": statistics.median(avgs),
            "max_counter_bits": max(bits),
        }
        return report
    traced_calls = len(walls[True])
    layers = tracing.layer_metrics(tracer, traced_calls)
    traced_wall = sum(walls[True]) / traced_calls
    unattributed = tracer.root_self_time() / traced_calls
    layers.update({
        "bench.unattributed_s": unattributed,
        "bench.attributed_pct": 100.0 * (1.0 - unattributed / traced_wall),
        "bench.trace_overhead_pct": 100.0 * (
            statistics.median(walls[True])
            / statistics.median(walls[False]) - 1.0),
        "streaming.bytes_per_flow": peak_mb * 1e6 / flows,
    })
    report["layers"] = layers
    return report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOAD_CALLS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=sorted(wl.SIZES), default="full")
    parser.add_argument("--warmup", action="store_true")
    args = parser.parse_args(argv)

    native.available()  # loads (the first time in a checkout: builds) the .so
    if args.warmup:
        return 0
    build, call = WORKLOAD_CALLS[args.workload]
    inputs = build(args.seed, wl.SIZES[args.size])
    print("READY", flush=True)
    command = sys.stdin.readline().strip()
    if command != "go":
        return 0
    report = measure(args, inputs, call)
    print("REPORT " + json.dumps(report), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
