"""Public-API integrity: every exported name exists and imports cleanly.

A stale ``__all__`` entry (renamed function, deleted class) otherwise only
surfaces when a user's `from repro.x import y` fails.  The locked
snapshots in :data:`EXPECTED_ALL` additionally pin the *exact* public
surface of the flagship packages — adding or removing an export is an API
decision and must be made here deliberately, not by accident.
"""

import importlib

import pytest

PACKAGES = [
    "repro",
    "repro.core",
    "repro.counters",
    "repro.flows",
    "repro.traces",
    "repro.metrics",
    "repro.ixp",
    "repro.harness",
    "repro.apps",
    "repro.export",
    "repro.serve",
]

MODULES = [
    "repro.cli",
    "repro.errors",
    "repro.obs",
    "repro.facade",
    "repro.faults",
    "repro.schemes",
    "repro.results",
    "repro.streaming",
    "repro.core.functions",
    "repro.core.update",
    "repro.core.disco",
    "repro.core.fastsim",
    "repro.core.fastpath",
    "repro.core.analysis",
    "repro.core.confidence",
    "repro.core.checkpoint",
    "repro.core.merge",
    "repro.core.hybrid",
    "repro.core.vectorized",
    "repro.counters.base",
    "repro.counters.spacesaving",
    "repro.counters.countmin",
    "repro.counters.netflow",
    "repro.counters.cma",
    "repro.flows.hashing",
    "repro.traces.pcap",
    "repro.traces.arrival",
    "repro.traces.mixer",
    "repro.traces.registry",
    "repro.traces.toolkit",
    "repro.traces.zipf",
    "repro.ixp.isa",
    "repro.ixp.validate",
    "repro.ixp.threads",
    "repro.ixp.ring",
    "repro.harness.scenarios",
    "repro.harness.sweep",
    "repro.harness.montecarlo",
    "repro.harness.plotting",
    "repro.harness.report",
    "repro.apps.anomaly",
    "repro.apps.heavyhitters",
    "repro.apps.billing",
    "repro.apps.epochs",
    "repro.apps.distribution",
    "repro.export.records",
    "repro.export.collector",
    "repro.serve.client",
    "repro.serve.daemon",
    "repro.serve.feeds",
    "repro.serve.httpd",
    "repro.serve.queries",
]


#: The locked public surface.  Keep sorted; a failure here means the
#: package's ``__all__`` changed — update the snapshot only as part of a
#: deliberate API change.
EXPECTED_ALL = {
    "repro": [
        "ConfidenceInterval", "CounterOverflowError", "CountingFunction",
        "DecodingError", "DiscoCounter", "DiscoSketch", "EpochSnapshot",
        "FaultPlan", "FaultSpec", "GeometricCountingFunction",
        "HybridCountingFunction", "LinearCountingFunction",
        "MeasurementResult", "ParameterError", "ReplayJob", "ReplayStreams",
        "ReproError", "RunResult", "SchemeFactory", "SchemeSpec",
        "StreamResult", "StreamSession", "Telemetry", "TraceFactory",
        "TraceFormatError", "TraceSpec", "UpdateDecision", "__version__",
        "apply_update", "b_for_cov_bound", "choose_b",
        "coefficient_of_variation", "compute_update", "confidence_interval",
        "counter_bits", "cov_bound", "expected_counter_upper_bound",
        "geometric", "kernel_scheme_names", "kernel_spec", "load_sketch",
        "make_scheme", "make_trace", "measure_trace_estimator",
        "merge_counters", "merge_sketches", "merged_estimate", "replay",
        "replay_parallel", "replay_replicas", "save_sketch", "scheme_factory",
        "scheme_names", "seed_streams", "stream", "trace_factory",
        "trace_names", "trace_spec",
    ],
    "repro.traces": [
        "BigTrace", "CompiledTrace", "Constant", "Exponential",
        "NLANR_PROFILE_MIX", "Pareto", "Sampler", "Trace", "TraceFactory",
        "TraceSpec", "TraceStats", "TruncatedExponential", "UniformInt",
        "ZipfPopularity", "adversarial_trace", "attack_overlay", "big_trace",
        "bursty_trace", "churn_trace", "clear_compile_cache", "compile_trace",
        "constant_rate", "filter_flows", "generate_flows",
        "iter_pcap_packets", "iter_trace_packets", "make_trace", "merge",
        "merge_traces", "nlanr_like", "on_off", "packet_length_sampler",
        "poisson", "read_pcap", "read_trace", "register_trace", "relabel",
        "renormalize", "scale_volume", "scenario1", "scenario2", "scenario3",
        "trace_factory", "trace_names", "trace_spec", "write_pcap",
        "write_trace", "zipf_packets", "zipf_trace",
    ],
    "repro.core": [
        "AgingDiscoSketch", "BatchReplayResult", "ConfidenceInterval",
        "CountingFunction", "DiscoCounter", "DiscoSketch",
        "GeometricCountingFunction", "HybridCountingFunction", "KernelSpec",
        "LinearCountingFunction", "ReplicaReplayResult", "SchemeKernel",
        "UpdateCache", "UpdateDecision", "VectorSpec", "age_counter",
        "apply_update", "b_for_cov_bound", "choose_b",
        "coefficient_of_variation", "compute_update", "confidence_interval",
        "counter_bits", "counter_for_error", "cov_bound", "cov_for_traffic",
        "expected_counter_upper_bound", "expected_increment", "geometric",
        "kernel_scheme_names", "kernel_spec", "load_sketch", "merge_counters",
        "merge_sketches", "merged_estimate", "relative_stddev",
        "run_kernel", "save_sketch", "vector_spec",
    ],
    "repro.harness": [
        "BiasVarianceReport", "ENGINES", "ReplayJob", "ReportConfig",
        "RunResult", "SizeComparisonRow", "Sweep", "SweepPoint",
        "TraceReplicaReport", "ascii_chart", "bound_gap", "collect_metrics",
        "compare", "convergence_table", "counter_bits_vs_volume",
        "error_cdf_comparison", "flow_size_per_flow_error", "format_number",
        "generate_report", "make_disco", "make_sac", "measure_estimator",
        "measure_trace_estimator", "render_series", "render_table", "replay",
        "replay_parallel", "replay_replicas", "replay_stream",
        "resolve_engine", "save_baseline", "table2", "table3", "table4",
        "volume_error_vs_counter_size", "write_report",
    ],
    "repro.obs": [
        "NULL_TELEMETRY", "Telemetry", "disable", "enable", "get", "resolve",
    ],
    "repro.facade": [
        "REPLICA_CHUNK", "ReplayStreams", "replay", "replica_chunks",
        "seed_streams", "stream",
    ],
    "repro.schemes": [
        "SchemeFactory", "SchemeSpec", "make_scheme", "register_scheme",
        "scheme_factory", "scheme_names", "scheme_spec",
    ],
    "repro.results": [
        "MeasurementResult", "estimates_json",
    ],
    "repro.streaming": [
        "DEFAULT_CHUNK_PACKETS", "EpochSnapshot", "StreamResult",
        "StreamSession",
    ],
    "repro.faults": [
        "FaultInjector", "FaultPlan", "FaultSpec", "SITES", "WORKER_SITES",
        "active", "arm", "disarm", "fire", "resolve_plan",
    ],
    "repro.serve": [
        "DaemonHandle", "Feed", "GeneratorFeed", "QueryEngine", "ServeClient",
        "ServeDaemon", "SocketFeed", "TraceFeed", "build_daemon", "make_feed",
    ],
}


@pytest.mark.parametrize("package", sorted(EXPECTED_ALL))
def test_public_surface_is_locked(package):
    module = importlib.import_module(package)
    assert sorted(module.__all__) == EXPECTED_ALL[package], (
        f"{package}.__all__ drifted from the locked snapshot; if this is a "
        f"deliberate API change, update EXPECTED_ALL"
    )


def test_vector_error_scheme_list_is_sorted():
    # The engine-resolution error message enumerates kernel-capable
    # schemes; sorted output keeps it deterministic across runs.
    from repro.core.kernels import kernel_scheme_names

    names = kernel_scheme_names()
    assert names == sorted(names)
    assert len(names) == len(set(names))


@pytest.mark.parametrize("package", PACKAGES)
def test_all_entries_resolve(package):
    module = importlib.import_module(package)
    exported = getattr(module, "__all__", None)
    assert exported, f"{package} has no __all__"
    for name in exported:
        assert hasattr(module, name), f"{package}.__all__ lists missing {name}"


@pytest.mark.parametrize("package", PACKAGES)
def test_no_duplicate_all_entries(package):
    module = importlib.import_module(package)
    exported = list(getattr(module, "__all__", []))
    assert len(exported) == len(set(exported)), f"duplicates in {package}.__all__"


@pytest.mark.parametrize("module", MODULES)
def test_modules_import(module):
    importlib.import_module(module)


def test_top_level_docstrings():
    for package in PACKAGES + MODULES:
        module = importlib.import_module(package)
        assert module.__doc__ and module.__doc__.strip(), (
            f"{package} lacks a module docstring"
        )
