"""Every metric the benchmark prints, with its unit.

``BENCHMARK.json`` must declare exactly these names and units;
``run.py`` refuses to print a result when the two disagree.
"""

#: Printed with ``--trace 0``: what a caller of replay/stream/serve sees.
END_TO_END = {
    "setup_s": "s",
    "throughput_pps": "packets/s",
    "peak_mem_mb": "MB",
    "avg_rel_error": "ratio",
    "max_counter_bits": "bits",
}

#: Printed with ``--trace 1``: per measured call (one replay, one
#: stream, one daemon run); a layer a workload never enters reads 0.
PER_LAYER = {
    "traces.arrivals_s": "s",
    "traces.compile_s": "s",
    "core.update_s": "s",
    "core.kernel_s": "s",
    "core.kernel_calls": "count",
    "core.kernel_lanes": "count",
    "core.kernel_packets": "count",
    "core.useful_lane_ratio": "ratio",
    "core.state_load_s": "s",
    "core.state_export_s": "s",
    "stores.encode_s": "s",
    "stores.decode_s": "s",
    "stores.state_bytes_per_flow": "B/flow",
    "streaming.ingest_self_s": "s",
    "streaming.rotate_s": "s",
    "streaming.epochs": "count",
    "streaming.checkpoint_s": "s",
    "streaming.checkpoints": "count",
    "streaming.checkpoint_bytes": "B",
    "streaming.bytes_per_flow": "B/flow",
    "serve.ingest_loop_s": "s",
    "serve.queries.live_decode_s": "s",
    "serve.queries.sync_s": "s",
    "serve.queries.answer_s": "s",
    "serve.httpd_self_s": "s",
    "serve.loop_block_max_ms": "ms",
    "serve.drain_peak_mem_mb": "MB",
    "serve.ingest_query_p50_ms": "ms",
    "serve.query_p50_ms": "ms",
    "serve.query_p95_ms": "ms",
    "serve.flows_p50_ms": "ms",
    "serve.topk_p50_ms": "ms",
    "metrics.score_s": "s",
    "bench.unattributed_s": "s",
    "bench.attributed_pct": "%",
    "bench.trace_overhead_pct": "%",
    "bench.query_late_p50_ms": "ms",
    "bench.fail_frac": "ratio",
}


def declared(path: str = "BENCHMARK.json") -> dict:
    """``{"end_to_end": {name: unit}, "per_layer": {...}}`` from the file."""
    import json

    with open(path, encoding="utf-8") as fh:
        spec = json.load(fh)
    return {kind: {m["name"]: m["unit"] for m in spec[kind]}
            for kind in ("end_to_end", "per_layer")}


def mismatches(path: str = "BENCHMARK.json") -> list:
    """Names or units on which the code and ``path`` disagree."""
    found = declared(path)
    out = []
    for kind, ours in (("end_to_end", END_TO_END), ("per_layer", PER_LAYER)):
        theirs = found[kind]
        for name in sorted(set(ours) | set(theirs)):
            if ours.get(name) != theirs.get(name):
                out.append(f"{kind} {name}: code {ours.get(name)!r}, "
                           f"BENCHMARK.json {theirs.get(name)!r}")
    return out
