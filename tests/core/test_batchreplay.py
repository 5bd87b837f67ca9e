"""Tests for the array-native whole-trace replay engine.

These drive :func:`run_kernel` directly through a local ``replay_disco``
helper (a :class:`~repro.core.kernels.DiscoKernel` factory with the
historical lane default) — the shape the removed ``replay_batch``
wrapper used to provide.
"""

import random
import statistics

import numpy as np
import pytest

from repro.core.analysis import cov_bound
from repro.core.batchreplay import (
    DEFAULT_MIN_LANES,
    as_generator,
    run_kernel,
    vector_spec,
)
from repro.core.disco import DiscoSketch
from repro.core.fastsim import simulate_uniform_stream
from repro.core.functions import GeometricCountingFunction, LinearCountingFunction
from repro.core.kernels import DiscoKernel
from repro.core.vectorized import VectorDisco
from repro.errors import ParameterError
from repro.traces.compiled import compile_trace
from repro.traces.nlanr import nlanr_like
from repro.traces.trace import Trace


def replay_disco(trace, b, mode="volume", rng=None,
                 min_lanes=DEFAULT_MIN_LANES, capacity_bits=None):
    """Single-replica DISCO batch replay over ``run_kernel``."""
    def factory(lanes, gen, replicas):
        return DiscoKernel(lanes, gen, replicas, b=b,
                           capacity_bits=capacity_bits)

    return run_kernel(trace, factory, mode=mode, rng=rng,
                      min_lanes=min_lanes)


class TestStepActive:
    def test_prefix_slice_matches_full_step_width(self):
        state = VectorDisco(1.1, 6, rng=0)
        state.step_active(100.0, slice(0, 3))
        assert (state.counters[:3] > 0).all()
        assert (state.counters[3:] == 0).all()

    def test_index_array(self):
        state = VectorDisco(1.1, 4, rng=0)
        state.step_active(np.array([50.0, 70.0]), np.array([1, 3]))
        assert state.counters[0] == 0 and state.counters[2] == 0
        assert state.counters[1] > 0 and state.counters[3] > 0

    def test_rejects_nonpositive(self):
        state = VectorDisco(1.1, 4, rng=0)
        with pytest.raises(ParameterError):
            state.step_active(0.0, slice(0, 2))

    def test_same_law_as_step(self):
        # Many lanes, one heterogeneous-length step each way: the advance
        # distributions must agree (same kernel, different entry point).
        lengths = np.array([40.0, 576.0, 1500.0] * 400)
        a = VectorDisco(1.05, lengths.size, rng=1)
        a.step(lengths)
        b = VectorDisco(1.05, lengths.size, rng=2)
        b.step_active(lengths, slice(0, lengths.size))
        assert statistics.mean(a.counters.tolist()) == pytest.approx(
            statistics.mean(b.counters.tolist()), rel=0.02
        )


class TestValidation:
    def test_bad_mode(self):
        with pytest.raises(ParameterError):
            replay_disco(Trace({"f": [10]}), 1.1, mode="bytes")

    def test_bad_b(self):
        with pytest.raises(ParameterError):
            replay_disco(Trace({"f": [10]}), 1.0)

    def test_bad_min_lanes(self):
        with pytest.raises(ParameterError):
            replay_disco(Trace({"f": [10]}), 1.1, min_lanes=0)

    def test_bad_capacity(self):
        with pytest.raises(ParameterError):
            DiscoSketch(b=1.1, capacity_bits=0)


class TestEdgeCases:
    def test_empty_trace(self):
        result = replay_disco(Trace({}), 1.1, rng=0)
        assert result.packets == 0
        assert result.counters.shape == (0,)
        assert result.estimates_dict() == {}

    def test_all_single_packet_flows(self):
        trace = Trace({i: [500] for i in range(200)})
        result = replay_disco(trace, 1.01, rng=0)
        assert result.packets == 200
        # One packet: estimate is f(c) for one update, unbiased over lanes.
        assert statistics.mean(result.estimates.tolist()) == pytest.approx(
            500, rel=0.05
        )

    def test_one_giant_flow_takes_scalar_tail(self):
        # A single flow can never fill min_lanes lanes: everything goes
        # through the cached scalar tail and must still be unbiased.
        trace = Trace({"elephant": [1500] * 20_000})
        result = replay_disco(trace, 1.01, rng=1)
        assert result.vector_steps == 0
        assert result.tail_packets == 20_000
        assert float(result.estimates[0]) == pytest.approx(
            1500 * 20_000, rel=3 * cov_bound(1.01)
        )

    def test_b_near_one(self):
        trace = Trace({i: [40, 1500, 576] for i in range(64)})
        result = replay_disco(trace, 1.0005, rng=2)
        # b -> 1 approaches exact counting: tight mean, small worst case
        # (cov_bound(1.0005) ~ 1.6%; 6 sigma headroom for the max).
        assert float(result.estimates.mean()) == pytest.approx(2116, rel=0.01)
        errors = np.abs(result.estimates - 2116.0) / 2116.0
        assert errors.max() <= 6 * cov_bound(1.0005)

    def test_size_mode_counts_packets(self):
        trace = Trace({i: [999] * (i + 1) for i in range(80)})
        result = replay_disco(trace, 1.005, mode="size", rng=3)
        truths = result.truths
        assert truths.sum() == trace.num_packets
        errors = np.abs(result.estimates - truths) / truths
        assert errors.mean() < 0.2

    def test_capacity_bits_saturate(self):
        trace = Trace({"big": [1500] * 500, "small": [40]})
        result = replay_disco(trace, 1.05, rng=4, capacity_bits=4, min_lanes=1)
        assert result.counters.max() <= 15
        assert result.saturation_events > 0

    def test_deterministic_given_seed(self):
        trace = nlanr_like(num_flows=40, mean_flow_bytes=5_000, rng=5)
        a = replay_disco(trace, 1.02, rng=42)
        b = replay_disco(trace, 1.02, rng=42)
        assert (a.counters == b.counters).all()

    def test_accepts_compiled_or_raw(self):
        trace = Trace({i: [100] * 10 for i in range(8)})
        compiled = compile_trace(trace)
        a = replay_disco(trace, 1.05, rng=0)
        b = replay_disco(compiled, 1.05, rng=0)
        assert (a.counters == b.counters).all()


class TestDistributionalEquivalence:
    """The engine promises the same estimator *law* as DiscoSketch.

    Mirrors the fastpath equivalence test, but statistically: the vector
    engine consumes a different random stream, so we compare moments —
    mean within 1%, CoV within the Theorem 2 bound — not trajectories.
    """

    def test_mean_and_cov_against_scalar_on_nlanr_like(self):
        # Any single replay's total carries the elephant flows' ~cov_bound
        # noise, so the 1% claim is about *means*: average a handful of
        # fixed-seed replays per engine and those means must agree with
        # the truth and with each other within 1%.
        b = 1.02
        trace = nlanr_like(num_flows=150, mean_flow_bytes=15_000,
                           max_flow_bytes=100_000, rng=11)
        total_truth = sum(trace.true_totals("volume").values())

        batch_totals = [
            float(replay_disco(trace, b, rng=seed).estimates.sum())
            for seed in range(8)
        ]
        batch_mean = statistics.mean(batch_totals)
        assert batch_mean == pytest.approx(total_truth, rel=0.01)

        scalar_totals = []
        for seed in range(4):
            sketch = DiscoSketch(b=b, mode="volume", rng=seed)
            for flow, lengths in trace.flows.items():
                for l in lengths:
                    sketch.observe(flow, l)
            scalar_totals.append(sum(sketch.estimates().values()))
        scalar_mean = statistics.mean(scalar_totals)
        assert scalar_mean == pytest.approx(total_truth, rel=0.01)
        assert batch_mean == pytest.approx(scalar_mean, rel=0.01)

        # Per-flow relative errors stay inside ~3 sigma of Theorem 2.
        batch = replay_disco(trace, b, rng=7)
        errors = np.abs(batch.estimates - batch.truths) / batch.truths
        assert errors.mean() <= 1.5 * cov_bound(b)
        assert errors.max() <= 6 * cov_bound(b)

    def test_replica_cov_within_theorem2_bound(self):
        # 600 identical flows = 600 replicas of one packet sequence; the
        # cross-lane CoV of the estimates is the Theorem 2 quantity.
        b = 1.04
        rand = random.Random(3)
        lengths = [rand.choice([40, 576, 1500]) for _ in range(300)]
        trace = Trace({i: lengths for i in range(600)})
        result = replay_disco(trace, b, rng=9)
        estimates = result.estimates
        mean = float(estimates.mean())
        cov = float(estimates.std()) / mean
        assert mean == pytest.approx(sum(lengths), rel=0.01)
        assert cov <= 1.15 * cov_bound(b)

    def test_tail_phase_matches_scalar_law(self):
        # Force everything through the scalar tail (min_lanes > flows) and
        # compare with the columnar result: same law either way.
        b = 1.03
        trace = Trace({i: [1000] * 200 for i in range(100)})
        columnar = replay_disco(trace, b, rng=1, min_lanes=1)
        tail = replay_disco(trace, b, rng=1, min_lanes=10_000)
        assert tail.vector_steps == 0 and columnar.tail_packets == 0
        assert float(tail.estimates.mean()) == pytest.approx(
            float(columnar.estimates.mean()), rel=0.02
        )
        scalar = [
            GeometricCountingFunction(b).value(
                simulate_uniform_stream(GeometricCountingFunction(b),
                                        1000.0, 200, rng=s))
            for s in range(100)
        ]
        assert float(tail.estimates.mean()) == pytest.approx(
            statistics.mean(scalar), rel=0.02
        )


class TestVectorSpec:
    def test_plain_disco_eligible(self):
        spec = vector_spec(DiscoSketch(b=1.05, mode="volume"))
        assert spec is not None
        assert spec.b == 1.05 and spec.mode == "volume"
        assert spec.capacity_bits is None

    def test_capacity_bits_carried(self):
        spec = vector_spec(DiscoSketch(b=1.05, capacity_bits=10))
        assert spec.capacity_bits == 10

    def test_burst_aggregation_ineligible(self):
        assert vector_spec(DiscoSketch(b=1.05, burst_capacity=4096)) is None

    def test_variance_tracking_ineligible(self):
        assert vector_spec(DiscoSketch(b=1.05, track_variance=True)) is None

    def test_nongeometric_ineligible(self):
        sketch = DiscoSketch(function=LinearCountingFunction())
        assert vector_spec(sketch) is None

    def test_pre_observed_ineligible(self):
        sketch = DiscoSketch(b=1.05)
        sketch.observe("f", 100)
        assert vector_spec(sketch) is None

    def test_subclass_ineligible(self):
        from repro.core.aging import AgingDiscoSketch

        assert vector_spec(AgingDiscoSketch(b=1.05)) is None

    def test_non_disco_ineligible(self):
        assert vector_spec(object()) is None


class TestAsGenerator:
    def test_passthrough(self):
        gen = np.random.default_rng(0)
        assert as_generator(gen) is gen

    def test_int_seed_deterministic(self):
        assert as_generator(5).random() == as_generator(5).random()

    def test_random_random_deterministic(self):
        a = as_generator(random.Random(9)).random()
        b = as_generator(random.Random(9)).random()
        assert a == b
