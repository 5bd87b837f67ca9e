"""Tests for the benchmark regression gate (benchmarks/perf_gate.py)."""

import importlib.util
import json
from pathlib import Path

import pytest

GATE_PATH = (Path(__file__).resolve().parents[2]
             / "benchmarks" / "perf_gate.py")

spec = importlib.util.spec_from_file_location("perf_gate", GATE_PATH)
perf_gate = importlib.util.module_from_spec(spec)
spec.loader.exec_module(perf_gate)


GOOD = {
    "perf_trace_packets": 50_000.0,
    "perf_python_pps": 1e5,
    "perf_vector_pps": 1.2e6,
    "perf_vector_speedup": 12.0,
}
BASELINE = {"perf_vector_speedup": 12.0, "disco_avg_error_10bit": 0.05}


class TestCheckRegression:
    def test_passes_at_baseline(self):
        assert perf_gate.check_regression(GOOD, BASELINE) == []

    def test_passes_within_tolerance(self):
        current = dict(GOOD, perf_vector_speedup=12.0 * 0.85)
        assert perf_gate.check_regression(current, BASELINE) == []

    def test_fails_beyond_20_percent_regression(self):
        current = dict(GOOD, perf_vector_speedup=12.0 * 0.75)
        failures = perf_gate.check_regression(current, BASELINE)
        assert [f[0] for f in failures] == ["perf_vector_speedup"]
        _, base, cur = failures[0]
        assert base == 12.0 and cur == pytest.approx(9.0)

    def test_improvement_never_fails(self):
        current = dict(GOOD, perf_vector_speedup=40.0)
        assert perf_gate.check_regression(current, BASELINE) == []

    def test_missing_baseline_key_fails_loudly(self):
        failures = perf_gate.check_regression(
            GOOD, {"disco_avg_error_10bit": 0.05})
        assert [f[0] for f in failures] == ["perf_vector_speedup"]

    def test_unmeasured_keys_are_not_gated(self):
        # A --quick run measures only the comparator ratios; DISCO keys
        # absent from the metrics must not fail against the baseline.
        quick_metrics = {"perf_sac_speedup": 8.0}
        baseline = {"perf_sac_speedup": 8.0}
        assert perf_gate.check_regression(quick_metrics, baseline) == []
        failures = perf_gate.check_regression(
            {"perf_sac_speedup": 5.0}, {"perf_sac_speedup": 8.0})
        assert [f[0] for f in failures] == ["perf_sac_speedup"]

    def test_custom_tolerance(self):
        current = dict(GOOD, perf_vector_speedup=12.0 * 0.85)
        assert perf_gate.check_regression(current, BASELINE, tolerance=0.10)


class TestHistoryAndBaseline:
    def test_append_history_creates_and_appends(self, tmp_path):
        path = tmp_path / "BENCH_perf.json"
        perf_gate.append_history(GOOD, path=path)
        perf_gate.append_history(GOOD, path=path)
        history = json.loads(path.read_text())
        assert len(history) == 2
        assert history[0]["metrics"]["perf_vector_speedup"] == 12.0
        assert "timestamp" in history[1]

    def test_update_baseline_merges_keeping_accuracy_keys(self, tmp_path):
        path = tmp_path / "baseline.json"
        path.write_text(json.dumps({"disco_avg_error_10bit": 0.05,
                                    "perf_vector_speedup": 5.0}))
        perf_gate.update_baseline(GOOD, path=path)
        merged = json.loads(path.read_text())
        assert merged["disco_avg_error_10bit"] == 0.05  # untouched
        assert merged["perf_vector_speedup"] == 12.0    # refreshed

    def test_update_baseline_creates_file(self, tmp_path):
        path = tmp_path / "baseline.json"
        perf_gate.update_baseline(GOOD, path=path)
        assert json.loads(path.read_text())["perf_vector_speedup"] == 12.0

    def test_append_history_prunes_to_limit(self, tmp_path):
        path = tmp_path / "BENCH_perf.json"
        for _ in range(perf_gate.HISTORY_LIMIT + 7):
            perf_gate.append_history(GOOD, path=path)
        history = json.loads(path.read_text())
        assert len(history) == perf_gate.HISTORY_LIMIT

    def test_append_history_custom_limit(self, tmp_path):
        path = tmp_path / "BENCH_perf.json"
        for i in range(5):
            perf_gate.append_history({"perf_x": float(i)}, path=path, limit=3)
        history = json.loads(path.read_text())
        assert [h["metrics"]["perf_x"] for h in history] == [2.0, 3.0, 4.0]


class TestMeasure:
    def test_measure_end_to_end_on_small_trace(self):
        from repro.traces.nlanr import nlanr_like

        trace = nlanr_like(num_flows=60, mean_flow_bytes=3_000, rng=5)
        metrics = perf_gate.measure(trace=trace, repeats=1)
        assert set(metrics) == {
            "perf_trace_packets", "perf_python_pps", "perf_vector_pps",
            "perf_vector_speedup",
        }
        assert metrics["perf_trace_packets"] == trace.num_packets
        assert all(v > 0 for v in metrics.values())

    def test_measure_comparators_on_small_trace(self):
        from repro.traces.nlanr import nlanr_like

        trace = nlanr_like(num_flows=60, mean_flow_bytes=2_000, rng=5)
        metrics = perf_gate.measure_comparators(trace=trace, repeats=1)
        expected = {"perf_comparator_packets"}
        for name in perf_gate.COMPARATOR_NAMES:
            expected |= {f"perf_{name}_python_pps",
                         f"perf_{name}_vector_pps",
                         f"perf_{name}_speedup"}
        assert set(metrics) == expected
        assert metrics["perf_comparator_packets"] == trace.num_packets
        assert all(v > 0 for v in metrics.values())

    def test_measure_stream_chunk_ratio_on_small_workload(self):
        metrics = perf_gate.measure_stream_chunk_ratio(flows=1500, repeats=1)
        assert set(metrics) == {"perf_stream_chunk_ratio",
                                "perf_stream_chunk_large_pps",
                                "perf_stream_chunk_small_pps"}
        assert all(v > 0 for v in metrics.values())
        assert metrics["perf_stream_chunk_ratio"] == pytest.approx(
            metrics["perf_stream_chunk_large_pps"]
            / metrics["perf_stream_chunk_small_pps"])

    def test_chunk_ratio_is_a_structural_ceiling(self):
        # A constant, never a baseline-ratcheted speedup key.
        assert perf_gate.STREAM_CHUNK_CEILING == 1.5
        assert "perf_stream_chunk_ratio" not in perf_gate.GATE_KEYS


class TestShippedPerfBaseline:
    def test_committed_baseline_holds_gate_keys(self):
        baseline = json.loads(
            (GATE_PATH.parent / "baseline.json").read_text()
        )
        for key in perf_gate.GATE_KEYS:
            assert key in baseline, f"{key} missing — run perf_gate.py "
            f"--update-baseline"
        # The acceptance criterion: vector engine is >= 10x the
        # un-memoized Python loop on the gate trace (measured on the
        # machine that set the baseline; the gate itself tracks relative
        # drift thereafter).  The python engine memoizes DISCO decisions,
        # which ran 1.839x the un-memoized loop on that machine, so the
        # same criterion reads 10 / 1.839 against it.
        assert baseline["perf_vector_speedup"] >= 10.0 / 1.839
        # And every comparator kernel clears 5x over its reference loop.
        for name in perf_gate.COMPARATOR_NAMES:
            assert baseline[f"perf_{name}_speedup"] >= 5.0, name


class TestPruneHistory:
    def test_prunes_oversized_file(self, tmp_path):
        path = tmp_path / "BENCH_perf.json"
        history = [{"timestamp": "t", "metrics": {"perf_x": float(i)}}
                   for i in range(perf_gate.HISTORY_LIMIT + 9)]
        path.write_text(json.dumps(history))
        dropped = perf_gate.prune_history(path=path)
        assert dropped == 9
        kept = json.loads(path.read_text())
        assert len(kept) == perf_gate.HISTORY_LIMIT
        # Oldest entries go; the newest survive in order.
        assert kept[-1]["metrics"]["perf_x"] == float(
            perf_gate.HISTORY_LIMIT + 8)

    def test_noop_under_cap_leaves_file_untouched(self, tmp_path):
        path = tmp_path / "BENCH_perf.json"
        history = [{"timestamp": "t", "metrics": {"perf_x": 1.0}}]
        payload = json.dumps(history)
        path.write_text(payload)
        assert perf_gate.prune_history(path=path) == 0
        assert path.read_text() == payload

    def test_missing_file_is_fine(self, tmp_path):
        assert perf_gate.prune_history(path=tmp_path / "absent.json") == 0

    def test_custom_limit(self, tmp_path):
        path = tmp_path / "BENCH_perf.json"
        path.write_text(json.dumps(
            [{"metrics": {"perf_x": float(i)}} for i in range(10)]))
        assert perf_gate.prune_history(path=path, limit=4) == 6
        kept = json.loads(path.read_text())
        assert [h["metrics"]["perf_x"] for h in kept] == [6.0, 7.0, 8.0, 9.0]

    def test_shipped_history_is_within_cap(self):
        if not perf_gate.HISTORY_PATH.exists():
            pytest.skip("no BENCH_perf.json in this checkout")
        history = json.loads(perf_gate.HISTORY_PATH.read_text())
        assert len(history) <= perf_gate.HISTORY_LIMIT


class TestMemoryFloor:
    def test_measure_memory_metrics_quick(self):
        metrics = perf_gate.measure_memory_metrics(quick=True)
        assert metrics["perf_mem_flows"] == 100_000.0
        assert metrics["perf_mem_dense_bpf"] == 8.0  # one int64 lane/flow
        for store in ("pools", "morris"):
            ratio = metrics[f"perf_mem_{store}_vs_dense"]
            assert 0.0 < ratio <= perf_gate.MEM_COMPACT_LIMIT, store
