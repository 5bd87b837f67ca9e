"""Tests for the replay engine selection and the engine implementations."""

import pytest

from repro.core.disco import DiscoSketch
from repro.counters.countmin import CountMin
from repro.counters.exact import ExactCounters
from repro.counters.sac import SmallActiveCounters
from repro.errors import ParameterError
from repro.facade import replay
from repro.harness.runner import ENGINES, resolve_engine
from repro.traces.compiled import compile_trace
from repro.traces.nlanr import nlanr_like
from repro.traces.trace import Trace


def small_trace():
    return nlanr_like(num_flows=40, mean_flow_bytes=4_000, rng=8)


class TestResolveEngine:
    def test_auto_picks_python_for_disco(self):
        # The scalar loop is the one whose seeded trajectories the
        # goldens pin; it memoizes DISCO decisions internally.
        assert resolve_engine("auto", DiscoSketch(b=1.05)) == "python"

    def test_auto_picks_python_for_other_schemes(self):
        assert resolve_engine("auto", SmallActiveCounters(total_bits=10)) \
            == "python"
        assert resolve_engine("auto", CountMin(width=64, depth=2)) == "python"

    def test_auto_never_picks_vector(self):
        # Goldens pin seeded trajectories; vector must be an explicit opt-in.
        assert resolve_engine("auto", DiscoSketch(b=1.05)) != "vector"

    def test_explicit_python_always_allowed(self):
        assert resolve_engine("python", CountMin(width=8, depth=1)) == "python"

    def test_unknown_engine_rejected(self):
        with pytest.raises(ParameterError):
            resolve_engine("numpy", DiscoSketch(b=1.05))

    def test_fast_strict_on_non_disco(self):
        with pytest.raises(ParameterError):
            resolve_engine("fast", SmallActiveCounters(total_bits=10))

    def test_fast_engine_removed(self):
        # "fast" is no engine name; the error lists the valid ones.
        with pytest.raises(ParameterError) as exc:
            resolve_engine("fast", DiscoSketch(b=1.05))
        assert "auto, python, vector, native" in str(exc.value)

    def test_vector_strict_on_ineligible_sketch(self):
        with pytest.raises(ParameterError):
            resolve_engine("vector", DiscoSketch(b=1.05, burst_capacity=512))
        seen = DiscoSketch(b=1.05)
        seen.observe("f", 10)
        with pytest.raises(ParameterError):
            resolve_engine("vector", seen)

    def test_vector_error_lists_schemes_with_kernels(self):
        with pytest.raises(ParameterError) as exc:
            resolve_engine("vector", CountMin(width=64, depth=2))
        message = str(exc.value)
        assert "Schemes with kernels:" in message
        for name in ("disco", "sac", "anls-2", "sd", "exact"):
            assert name in message

    def test_auto_picks_columnar_for_bit_identical_kernels(self):
        # Exact counting is deterministic and order-independent, so the
        # kernel path is bit-identical and safe for auto — native when
        # the compiled backend is present, vector otherwise.
        from repro.core import native

        expected = "native" if native.available() else "vector"
        assert resolve_engine("auto", ExactCounters(mode="volume")) \
            == expected

    def test_auto_stays_python_for_randomized_kernels(self):
        # SAC has a kernel, but its columnar random stream differs from
        # the per-packet one — auto must not silently change goldens.
        assert resolve_engine("auto", SmallActiveCounters(total_bits=10)) \
            == "python"

    def test_engines_tuple(self):
        assert ENGINES == ("auto", "python", "vector", "native")


class TestPythonEngine:
    def test_bit_identical_to_reference_loop(self, disco_reference):
        # The memoized engine against Algorithm 1 computed afresh per
        # packet, over the same shuffled arrivals and the same draws.
        trace = small_trace()
        sketch = DiscoSketch(b=1.02, mode="volume", rng=3)
        result = replay(sketch, trace, order="shuffled", rng=5,
                        engine="python")
        assert result.engine == "python"
        packets = trace.packet_pairs(order="shuffled", rng=5)
        assert sketch._counters == disco_reference(1.02, "volume", 3,
                                                   packets)

    def test_auto_resolves_to_python_on_disco(self):
        result = replay(DiscoSketch(b=1.02, rng=0), small_trace(), rng=1)
        assert result.engine == "python"


class TestVectorEngine:
    def test_counters_written_back_to_scheme(self):
        trace = small_trace()
        sketch = DiscoSketch(b=1.02, mode="volume", rng=4)
        result = replay(sketch, trace, engine="vector")
        assert result.engine == "vector"
        assert result.packets == trace.num_packets
        assert sketch.packets_observed == trace.num_packets
        assert len(sketch) == len(trace.flows)
        # The scheme's read-out surface reflects the replay.
        for flow, est in result.estimates.items():
            assert sketch.estimate(flow) == pytest.approx(est)

    def test_accepts_compiled_trace(self):
        trace = small_trace()
        compiled = compile_trace(trace)
        sketch = DiscoSketch(b=1.02, mode="volume", rng=4)
        result = replay(sketch, compiled, order="asis", engine="vector")
        assert result.packets == compiled.num_packets
        assert set(result.truths) == set(trace.true_totals("volume"))

    def test_deterministic_given_scheme_seed(self):
        trace = small_trace()
        a = replay(DiscoSketch(b=1.02, rng=11), trace, engine="vector")
        b = replay(DiscoSketch(b=1.02, rng=11), trace, engine="vector")
        assert a.estimates == b.estimates

    def test_errors_match_summary(self):
        result = replay(DiscoSketch(b=1.02, rng=0), small_trace(),
                        engine="vector")
        assert len(result.errors) == len(small_trace().flows)
        assert result.summary.average == pytest.approx(
            sum(result.errors) / len(result.errors)
        )


class TestStreamingOrders:
    def test_asis_streams_without_materialising(self):
        trace = small_trace()
        sketch = SmallActiveCounters(total_bits=12, mode="volume", rng=2)
        result = replay(sketch, trace, order="asis", engine="python")
        assert result.packets == trace.num_packets
        assert result.summary.average >= 0

    def test_sequential_equals_asis_for_plain_trace(self):
        trace = small_trace()
        a = DiscoSketch(b=1.02, rng=9)
        b = DiscoSketch(b=1.02, rng=9)
        ra = replay(a, trace, order="asis", engine="python")
        rb = replay(b, trace, order="sequential", engine="python")
        assert ra.estimates == rb.estimates
