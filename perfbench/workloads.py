"""Seeded inputs, generator-side truth and output checks for each workload.

Every input is a pure function of ``--seed`` and the size preset; the
program under test only ever receives the generated inputs.  Truth is
summed here from the generated packets, never read back from the
program's own ``truths``.
"""

from __future__ import annotations

import math
import statistics
import time

import numpy as np

WORKLOADS = ("replay-nlanr", "stream-big", "serve-mixed")

#: ``full`` is what the benchmark measures; ``tiny`` exists for the
#: self-test (``perfbench/selftest.py``) and finishes in seconds.
SIZES = {
    "full": {
        # replay-nlanr: a 10k-flow NLANR-like trace cut to a fixed
        # packet budget (the generator's heavy tail alone moves the
        # packet count by 31% between seeds); about 1 s per call.
        "replay_flows": 10_000,
        "replay_packets": 300_000,
        # stream-big: the ROADMAP's realistic flow count.
        "big_flows": 100_000,
        # serve-mixed: ~10k flows, packets shuffled across flows and cut
        # to a fixed count.
        "serve_flows": 10_000,
        "serve_mean_packets": 350.0,
        "serve_packets": 2_000_000,
        "serve_query_rate": 2.0,
        "serve_burst": 300,
        "serve_sample": 64,
    },
    "tiny": {
        "replay_flows": 300,
        "replay_packets": 20_000,
        "big_flows": 2_000,
        "serve_flows": 300,
        "serve_mean_packets": 100.0,
        "serve_packets": 24_000,
        "serve_query_rate": 20.0,
        "serve_burst": 40,
        "serve_sample": 16,
    },
}

#: Scheme under test on every workload: the paper's DISCO at b = 1.02.
SCHEME = ("disco", {"b": 1.02})


# -- inputs -------------------------------------------------------------------

def replay_input(seed: int, size: dict):
    """A ``Trace`` from the nlanr generator, cut to a fixed packet count.

    Flows are kept in generation order until the budget is reached; the
    last kept flow is shortened to land on it exactly.  Returns the
    trace plus its flow keys and per-flow byte volumes.
    """
    from repro import make_trace
    from repro.traces.trace import Trace

    source = make_trace("nlanr", num_flows=size["replay_flows"], seed=seed)
    budget = size["replay_packets"]
    flows, total = {}, 0
    for flow, lengths in source.flows.items():
        take = min(len(lengths), budget - total)
        flows[flow] = lengths[:take]
        total += take
        if total == budget:
            break
    keys = list(flows)
    truth = np.array([sum(flows[k]) for k in keys], dtype=np.float64)
    trace = Trace(flows, name=f"nlanr(seed={seed},packets={total})")
    return trace, keys, truth, total


class ChunkProvider:
    """Pre-synthesised chunks behind the ``iter_chunks`` surface.

    ``StreamSession.consume`` accepts any object with ``iter_chunks``
    and ``num_packets``; handing it chunks built during set-up keeps
    the generator's synthesis time out of the measured call.
    """

    def __init__(self, name: str, chunk_packets: int, chunks,
                 num_packets: int) -> None:
        self.name = name
        self.chunk_packets = chunk_packets
        self.chunks = chunks
        self.num_packets = num_packets
        #: When the consumer asked for each chunk, in the latest pass.
        self.handed = []

    def iter_chunks(self, chunk_packets: int, start: int = 0):
        if chunk_packets != self.chunk_packets or start != 0:
            raise ValueError(
                f"chunks were built for chunk_packets={self.chunk_packets} "
                f"from 0, asked for {chunk_packets} from {start}")
        self.handed = []
        for chunk in self.chunks:
            self.handed.append(time.perf_counter())
            yield chunk


def stream_input(seed: int, size: dict):
    """The ``big`` trace as a chunk provider at the default chunk size."""
    from repro import make_trace
    from repro.streaming import DEFAULT_CHUNK_PACKETS

    big = make_trace("big", num_flows=size["big_flows"], seed=seed)
    chunks = list(big.iter_chunks(DEFAULT_CHUNK_PACKETS))
    volumes = {}
    for chunk in chunks:
        for key, lengths in zip(chunk.keys, chunk.lengths):
            volumes[key] = volumes.get(key, 0.0) + float(lengths.sum())
    keys = list(volumes)
    truth = np.array([volumes[k] for k in keys], dtype=np.float64)
    provider = ChunkProvider(big.name, DEFAULT_CHUNK_PACKETS, chunks,
                             big.num_packets)
    return provider, keys, truth, big.num_packets


def serve_input(seed: int, size: dict):
    """Feed chunks of an NLANR-like trace with packets shuffled across flows.

    Flow content comes from the ``big`` generator (10k flows); NumPy
    shuffles every packet, cuts the stream to a fixed packet count and
    groups each chunk by flow, so every chunk touches thousands of
    flows.  Flow keys are integers (``GET /flows/{id}``).  Returns the
    chunks, flow keys with non-zero truth, their volumes, the packet
    count and a seeded sample of flows to query.
    """
    from repro import make_trace
    from repro.streaming import DEFAULT_CHUNK_PACKETS

    source = make_trace("big", num_flows=size["serve_flows"],
                        mean_flow_packets=size["serve_mean_packets"],
                        seed=seed)
    flow_ids, lengths = [], []
    for chunk in source.iter_chunks(1 << 20):
        for key, lens in zip(chunk.keys, chunk.lengths):
            flow_ids.append(np.full(lens.size, int(key.split("/")[1]),
                                    dtype=np.int64))
            lengths.append(lens)
    flow_ids = np.concatenate(flow_ids)
    lengths = np.concatenate(lengths)
    rng = np.random.default_rng([seed, 0x5E7E])
    keep = rng.permutation(flow_ids.size)[:size["serve_packets"]]
    flow_ids, lengths = flow_ids[keep], lengths[keep]

    chunks = []
    for lo in range(0, flow_ids.size, DEFAULT_CHUNK_PACKETS):
        ids = flow_ids[lo:lo + DEFAULT_CHUNK_PACKETS]
        order = np.argsort(ids, kind="stable")
        ids, lens = ids[order], lengths[lo:lo + DEFAULT_CHUNK_PACKETS][order]
        cuts = np.flatnonzero(np.diff(ids)) + 1
        keys = ids[np.concatenate(([0], cuts))].tolist()
        chunks.append((keys, np.split(lens, cuts)))

    volume = np.bincount(flow_ids, weights=lengths,
                         minlength=size["serve_flows"])
    present = np.flatnonzero(volume > 0)
    sample = np.sort(rng.choice(present, size["serve_sample"],
                                replace=False)).tolist()
    return chunks, present.tolist(), volume[present], int(flow_ids.size), sample


# -- checks -------------------------------------------------------------------

def check_run(*, packets: int, expected_packets: int, estimates: np.ndarray,
              truth: np.ndarray, max_counter_bits: int,
              reported_avg_error=None):
    """Output checks shared by every workload; returns ``(avg_error, problems)``.

    * packets accounted equal packets generated;
    * every estimate exists, is finite and >= 0 (a missing flow is NaN);
    * the average relative error is recomputed from generator-side
      truth and, when the program reports its own, agrees with it;
    * the counter width is positive.
    """
    problems = []
    if packets != expected_packets:
        problems.append(f"accounted {packets} packets, generated "
                        f"{expected_packets}")
    if estimates.shape != truth.shape:
        problems.append(f"{estimates.size} estimates for {truth.size} flows")
        return math.nan, problems
    bad = ~np.isfinite(estimates) | (estimates < 0)
    if bad.any():
        problems.append(f"{int(bad.sum())} estimates missing, non-finite "
                        f"or negative")
    avg = float(np.mean(np.abs(estimates - truth) / truth))
    if not math.isfinite(avg):
        problems.append("average relative error is not finite")
    elif (reported_avg_error is not None
          and not math.isclose(avg, reported_avg_error, rel_tol=1e-9)):
        problems.append(f"program reports average error "
                        f"{reported_avg_error!r}, truth gives {avg!r}")
    if not max_counter_bits > 0:
        problems.append(f"max_counter_bits is {max_counter_bits!r}")
    return avg, problems


def check_served_totals(served: dict, drained: dict):
    """``/flows/{id}`` totals after ingest equal the drained result."""
    problems = []
    for flow, total in served.items():
        final = drained.get(flow)
        if final is None or not math.isclose(total, final, rel_tol=1e-9):
            problems.append(f"flow {flow}: served {total!r}, drained {final!r}")
    return problems


def aligned(estimates: dict, keys) -> np.ndarray:
    """Estimates in ``keys`` order; flows the program lost read as NaN."""
    return np.array([estimates.get(k, math.nan) for k in keys],
                    dtype=np.float64)


# -- measurement helpers ------------------------------------------------------

def _status_kb(field: str) -> int:
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith(field + ":"):
                return int(line.split()[1])
    raise RuntimeError(f"/proc/self/status has no {field}")


def reset_peak_rss() -> int:
    """Reset VmHWM to the current RSS; returns that RSS in bytes."""
    with open("/proc/self/clear_refs", "w", encoding="ascii") as fh:
        fh.write("5")
    return _status_kb("VmRSS") * 1024


def peak_growth_mb(baseline: int) -> float:
    """Peak RSS since :func:`reset_peak_rss` above its baseline, in MB."""
    return (_status_kb("VmHWM") * 1024 - baseline) / 1e6


def percentile(values, q: int) -> float:
    """The ``q``-th percentile (inclusive method)."""
    if len(values) == 1:
        return float(values[0])
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]
