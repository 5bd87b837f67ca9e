"""The serve-mixed daemon under test, in a process of its own.

Started by ``perfbench/run.py``.  Set-up builds the feed chunks with
NumPy, prints ``FLOWS <json>`` (the seeded flow sample the load queries)
and starts the daemon, which prints its ``serving on http://...``
banner.  The benchmark-owned feed then waits for one stdin line: ``go``
ingests every chunk (printing ``INGESTED`` after the last); anything
else, end of input included, ingests nothing.  The load process drains
the daemon over HTTP; this process then checks the drained result and
prints ``REPORT <json>``.

Usage: ``python3 perfbench/serve_driver.py --seed 1 --trace 0
--checkpoint PATH [--size tiny]``.
"""

from __future__ import annotations

import argparse
import asyncio
import gc
import json
import sys
import time

from repro import scheme_factory
from repro.core import native
from repro.errors import ParameterError
from repro.serve.daemon import build_daemon
from repro.serve.feeds import Feed
from repro.streaming import DEFAULT_CHUNK_PACKETS, StreamSession

import tracing
import workloads as wl


class PreparedFeed(Feed):
    """Yields chunks built in set-up, once the load process says ``go``."""

    name = "perfbench:prepared"
    deterministic_resume = True

    def __init__(self, chunks) -> None:
        self.chunks = chunks
        self.started = False
        self.baseline = 0
        self.peak_mb = 0.0
        self.first = self.last = self.yielded = 0.0

    async def batches(self, chunk_packets: int, start: int = 0):
        if chunk_packets != DEFAULT_CHUNK_PACKETS or start != 0:
            raise ParameterError(
                f"prepared feed holds {DEFAULT_CHUNK_PACKETS}-packet chunks "
                f"from 0, asked for {chunk_packets} from {start}")
        loop = asyncio.get_running_loop()
        command = await loop.run_in_executor(None, sys.stdin.readline)
        if command.strip() != "go":
            return
        self.started = True
        gc.collect()
        self.baseline = wl.reset_peak_rss()
        self.first = time.perf_counter()
        for keys, lengths in self.chunks:
            self.yielded = time.perf_counter()
            yield keys, lengths
        self.last = time.perf_counter()
        self.peak_mb = wl.peak_growth_mb(self.baseline)
        print("INGESTED", flush=True)


def loop_blocks(tracer):
    """Longest ingest step between event-loop yields, from root spans.

    A step is the daemon's per-chunk work from the feed handing over a
    chunk to the end of its ingest and any checkpoint scheduled after
    it; any other root span (a query) means the loop yielded.
    """
    longest, current = 0.0, None
    for name, start, end, parent, _child in tracer.spans:
        if parent != -1:
            continue
        if name == "serve.ingest_loop":
            current = [start, end]
        elif current is not None and name in ("streaming.ingest",
                                              "streaming.checkpoint"):
            current[1] = end
        else:
            current = None
        if current is not None:
            longest = max(longest, current[1] - current[0])
    return longest


def traced_layers(tracer, feed):
    """Per-layer metrics of one traced daemon run."""
    layers = tracing.layer_metrics(tracer, 1)
    window = feed.last - feed.first
    covered = sum(end - start for name, start, end, parent, _c in tracer.spans
                  if parent == -1 and feed.first <= start < feed.last)
    unattributed = window - covered
    after = sum(end - start for name, start, end, parent, _c in tracer.spans
                if parent == -1 and start >= feed.last)
    layers.update({
        "bench.unattributed_s": unattributed,
        "bench.attributed_pct": 100.0 * (1.0 - unattributed
                                         / (window + after)),
        "serve.loop_block_max_ms": 1e3 * loop_blocks(tracer),
    })
    return layers


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=sorted(wl.SIZES), default="full")
    parser.add_argument("--checkpoint", required=True)
    args = parser.parse_args(argv)

    native.available()
    chunks, keys, truth, packets, sample = wl.serve_input(
        args.seed, wl.SIZES[args.size])
    print("FLOWS " + json.dumps(sample), flush=True)
    feed = PreparedFeed(chunks)
    name, params = wl.SCHEME
    daemon = build_daemon(
        scheme_factory(name, seed=args.seed, **params), feed,
        shards=2, engine="native", store="pools",
        epoch_packets=packets // 8, checkpoint_every=4,
        checkpoint_path=args.checkpoint, rng=args.seed)
    engine = daemon.session.engine
    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        tracing.install(tracer)

        def ingest_loop(_args, _kwargs):
            # The daemon's own per-chunk work between the feed handing
            # over a chunk and the session taking it (no await between).
            tracer.record("serve.ingest_loop", feed.yielded,
                          time.perf_counter())

        tracer.probe(StreamSession, "ingest_chunk", ingest_loop)
    try:
        result = daemon.serve_forever()
    finally:
        if tracer is not None:
            tracer.uninstall()
    if not feed.started:
        return 0
    drain_peak_mb = wl.peak_growth_mb(feed.baseline)

    counters = (result.telemetry or {}).get("counters", {})
    estimates = result.estimates_dict()
    avg, problems = wl.check_run(
        packets=result.packets, expected_packets=packets,
        estimates=wl.aligned(estimates, keys), truth=truth,
        max_counter_bits=result.max_counter_bits)
    if engine != "native" or counters.get("batch.native_fallback", 0) \
            or not counters.get("batch.native", 0):
        problems.append(
            f"session engine {engine!r}: {counters.get('batch.native', 0)} "
            f"native and {counters.get('batch.native_fallback', 0)} "
            f"fallback kernel calls")
    report = {
        "problems": problems,
        "engines": [engine],
        "provider": native.provider_name(),
        "packets": packets,
        "flows": len(keys),
        "ingest_s": feed.last - feed.first,
        "serve.drain_peak_mem_mb": drain_peak_mb,
        "drained": {str(flow): estimates.get(flow) for flow in sample},
        "metrics": {
            "throughput_pps": packets / (feed.last - feed.first),
            "peak_mem_mb": feed.peak_mb,
            "avg_rel_error": avg,
            "max_counter_bits": result.max_counter_bits,
        },
    }
    if tracer is not None:
        report["layers"] = traced_layers(tracer, feed)
        report["layers"]["streaming.bytes_per_flow"] = (
            feed.peak_mb * 1e6 / len(keys))
    print("REPORT " + json.dumps(report), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
