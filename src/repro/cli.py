"""Command-line interface: generate traces, replay schemes, rerun experiments.

Examples
--------
Replay DISCO over a registry workload — ``--trace`` takes either a
registry spec ``name[:key=value,...]`` or a trace file path::

    python -m repro replay --trace nlanr:num_flows=300 --scheme disco --bits 10
    python -m repro gen-trace --kind nlanr --flows 300 --out /tmp/oc192.trace
    python -m repro replay --trace /tmp/oc192.trace --scheme disco --bits 10

Sweep every scheme over the toolkit's stress scenarios and regenerate
``docs/scenarios.md``::

    python -m repro scenarios --quick

Run the long-running measurement daemon and query it live
(``docs/serve.md``)::

    python -m repro serve --feed trace --trace /tmp/oc192.trace \
        --epoch-packets 100000 --checkpoint /tmp/oc192.ckpt
    curl http://127.0.0.1:<port>/topk?n=10

Re-print a figure or table from the paper::

    python -m repro figure 5
    python -m repro table 5
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path
from typing import List, Optional

from repro.harness.experiments import (
    bound_gap,
    counter_bits_vs_volume,
    error_cdf_comparison,
    table2,
    table3,
    table4,
    volume_error_vs_counter_size,
)
from repro.harness.formatting import render_series, render_table
from repro.harness.runner import ENGINES
from repro.core.stores import store_names
from repro.errors import ParameterError
from repro.facade import replay, stream
from repro.schemes import make_scheme, scheme_factory, scheme_names
from repro.traces.registry import make_trace, trace_names
from repro.traces.trace_io import read_trace, write_trace

__all__ = ["main", "build_parser", "resolve_trace"]

#: ``gen-trace --kind`` choices: every registry trace that can be
#: written to a file (``big`` is chunk-only / streaming-only).
TRACE_KINDS = tuple(n for n in trace_names() if n != "big")
#: Valid ``--scheme`` choices — the public registry, not a local list.
SCHEMES = scheme_names()


def _make_trace(kind: str, flows: int, seed: int):
    """Build a registry trace from gen-trace's ``--kind``/``--flows``.

    Every kind routes through :func:`repro.traces.make_trace`; the
    single ``--flows`` knob maps onto the kind's natural count.
    """
    params = {"seed": seed}
    if kind == "churn":
        params["flows_per_epoch"] = flows
    elif kind == "adversarial":
        params["num_mice"] = flows
    else:
        params["num_flows"] = flows
    return make_trace(kind, **params)


def _coerce_param(text: str):
    """Parse a ``--trace`` spec value: int, then float, else string."""
    for cast in (int, float):
        try:
            return cast(text)
        except ValueError:
            continue
    return text


def resolve_trace(spec: str):
    """Resolve a ``--trace`` argument: registry spec or trace file path.

    ``name[:key=value,...]`` builds through the public registry
    (:func:`repro.traces.make_trace`); anything that looks like a file
    (a path separator, a trace suffix, or an existing file) loads via
    the trace readers.  Bad parameters raise
    :class:`~repro.errors.ParameterError` (exit code 2).
    """
    if (os.sep in spec or spec.endswith((".trace", ".pcap", ".gz"))
            or os.path.exists(spec)):
        return _read_any_trace(spec)
    name, _, rest = spec.partition(":")
    params = {}
    if rest:
        for pair in rest.split(","):
            key, sep, value = pair.partition("=")
            if not sep or not key.strip():
                raise ParameterError(
                    f"bad --trace parameter {pair!r} in {spec!r}; "
                    f"expected name:key=value[,key=value...]")
            params[key.strip()] = _coerce_param(value.strip())
    return make_trace(name, **params)


# -- subcommand handlers -------------------------------------------------------


def _read_any_trace(path: str):
    """Dispatch trace loading by file suffix (.pcap vs native format)."""
    if str(path).endswith(".pcap"):
        from repro.traces.pcap import read_pcap

        return read_pcap(path)
    return read_trace(path)


def cmd_gen_trace(args: argparse.Namespace) -> int:
    trace = _make_trace(args.kind, args.flows, args.seed)
    if str(args.out).endswith(".pcap"):
        from repro.traces.pcap import write_pcap

        count = write_pcap(trace, args.out, order=args.order, seed=args.seed)
    else:
        count = write_trace(trace, args.out, order=args.order, seed=args.seed)
    stats = trace.stats()
    print(f"wrote {count} packets, {stats.num_flows} flows to {args.out}")
    print(f"  mean flow: {stats.mean_flow_packets:.1f} pkts / "
          f"{stats.mean_flow_bytes / 1e3:.1f} KB")
    return 0


def cmd_replay(args: argparse.Namespace) -> int:
    from repro.obs import Telemetry

    if args.trace is None:
        raise ParameterError("replay needs --trace (registry spec "
                             "`name[:key=value,...]` or a trace file)")
    trace = resolve_trace(args.trace)
    truths = trace.true_totals(args.mode)
    scheme = make_scheme(args.scheme, bits=args.bits, mode=args.mode,
                         max_length=max(truths.values()), seed=args.seed)
    tel = Telemetry() if args.telemetry else None
    result = replay(scheme, trace, rng=args.seed + 1, engine=args.engine,
                    store=args.store, telemetry=tel)
    print(f"scheme={result.scheme_name} trace={result.trace_name} "
          f"mode={result.mode} engine={result.engine}")
    print(render_table(
        ["packets", "flows", "avg R", "max R", "R_o(0.95)", "counter bits",
         "seconds"],
        [[result.packets, len(result.truths), result.summary.average,
          result.summary.maximum, result.summary.optimistic_95,
          result.max_counter_bits, result.elapsed_seconds]],
    ))
    if tel is not None:
        snap = tel.snapshot()
        print("telemetry:")
        for name in sorted(snap["counters"]):
            print(f"  {name} = {snap['counters'][name]}")
        for name in sorted(snap["timers"]):
            entry = snap["timers"][name]
            print(f"  {name} = {entry['seconds']:.6f}s / {entry['count']}")
    return 0


def _stream_engine(engine: str) -> str:
    """Map the shared ``--engine`` flag onto the streaming backends.

    The common parser accepts every replay engine; streams only run
    columnar chunks, so ``auto`` resolves to ``vector`` here and the
    scalar engine is rejected downstream by
    :func:`repro.facade._validate` (exit code 2).
    """
    return "vector" if engine == "auto" else engine


def cmd_stream(args: argparse.Namespace) -> int:
    """Measure a trace as an epoch-rotating, hash-sharded stream."""
    from repro.obs import Telemetry

    if args.trace is None:
        raise ParameterError("stream needs --trace (registry spec "
                             "`name[:key=value,...]` or a trace file)")
    trace = resolve_trace(args.trace)
    truths = trace.true_totals(args.mode)
    factory = scheme_factory(args.scheme, bits=args.bits, mode=args.mode,
                             max_length=max(truths.values()), seed=args.seed)
    tel = Telemetry() if args.telemetry else None
    result = stream(
        factory, trace,
        shards=args.shards,
        epoch_packets=args.epoch_packets,
        epoch_bytes=args.epoch_bytes,
        chunk_packets=args.chunk_packets,
        rng=args.seed + 1,
        workers=args.workers,
        engine=_stream_engine(args.engine),
        store=args.store,
        telemetry=tel,
        checkpoint_path=args.checkpoint,
        resume=args.resume,
    )
    print(f"scheme={result.scheme_name} trace={result.trace_name} "
          f"mode={result.mode} shards={result.shards} epochs={result.epochs}")
    print(render_table(
        ["epoch", "packets", "bytes", "flows", "max bits"],
        [[s.index, s.packets, s.volume, s.flows, s.max_counter_bits]
         for s in result.snapshots],
    ))
    estimates = result.estimates_dict()
    stream_truths = result.truths()
    errors = [abs(estimates.get(key, 0.0) - truth) / truth
              for key, truth in stream_truths.items() if truth]
    if errors:
        print(f"avg R = {sum(errors) / len(errors):.4f} over "
              f"{len(errors)} flows ({result.packets} packets)")
    if tel is not None:
        snap = tel.snapshot()
        print("telemetry:")
        for name in sorted(snap["counters"]):
            print(f"  {name} = {snap['counters'][name]}")
    return 0


#: The standard audit schedule: one plan per recovery path the parallel
#: driver implements (worker death, failed attach, lost collection,
#: refused submission, refused segment).
_AUDIT_PLANS = (
    "worker.run:kill:unit=0",
    "shm.attach:raise:exception=OSError",
    "result.collect:raise:exception=BrokenProcessPool:times=1",
    "pool.submit:raise:exception=OSError",
    "shm.create:raise:exception=OSError",
)


def cmd_faults(args: argparse.Namespace) -> int:
    """Audit the parallel driver's recovery paths under injected faults.

    For each fault plan, replays an R-replica job through the pool with
    the plan armed and checks the two hard invariants: results
    bit-identical to the serial replay, and no ``repro``-prefixed
    ``/dev/shm`` segment left behind.  ``--scheme`` picks the audited
    kernel (the frozen registry factory pickles into pool workers);
    replica replays run on the vector path, so the shared ``--engine``/
    ``--store`` flags are accepted for parity but not consulted here.
    """
    import gc
    import os

    import repro.harness.parallel as parallel
    from repro.harness.parallel import ReplayJob, replay_parallel, \
        shutdown_pool
    from repro.harness.runner import replay_replicas
    from repro.obs import Telemetry
    from repro.traces.compiled import clear_compile_cache, compile_trace

    def segments():
        shm_dir = "/dev/shm"
        if not os.path.isdir(shm_dir):
            return set()
        return {n for n in os.listdir(shm_dir)
                if n.startswith(f"repro_{os.getpid()}_")}

    # A registry factory: the same frozen spec builds the serial
    # reference and pickles into pool workers.
    audit_factory = scheme_factory(args.scheme, b=1.01, seed=7)
    trace = make_trace("scenario3", num_flows=args.flows, seed=args.seed)
    serial = replay_replicas(audit_factory(), trace,
                             replicas=args.replicas, rng=args.seed)
    expected = [r.estimates for r in serial]
    plans = args.plan or list(_AUDIT_PLANS)
    failures = 0
    saved_threshold = parallel.SHARE_THRESHOLD_BYTES
    preexisting = segments()
    for plan in plans:
        shutdown_pool()
        shm_plan = plan.split(":")[0].startswith("shm.") \
            or plan.startswith("worker.")
        # Force the shared-memory path so shm seams and worker-death
        # cleanup are actually exercised on this (small) audit trace.
        parallel.SHARE_THRESHOLD_BYTES = 0 if shm_plan else saved_threshold
        job_trace = compile_trace(trace) if shm_plan else trace
        tel = Telemetry()
        try:
            results = replay_parallel(
                [ReplayJob(audit_factory, job_trace, engine="vector",
                           replicas=args.replicas, rng=args.seed)],
                max_workers=args.workers, telemetry=tel, faults=plan)
            identical = [r.estimates for r in results] == expected
        except Exception as exc:  # an audit must never crash the CLI
            print(f"FAIL {plan}: {type(exc).__name__}: {exc}")
            failures += 1
            continue
        finally:
            parallel.SHARE_THRESHOLD_BYTES = saved_threshold
        shutdown_pool()
        del job_trace
        clear_compile_cache()  # drop the cached compiled trace too, so
        gc.collect()           # its finalizer unlinks the segment now
        leaked = segments() - preexisting
        counters = tel.snapshot()["counters"]
        recovered = sum(n for name, n in counters.items()
                        if name.startswith("recovery.")
                        or name.startswith("faults.injected."))
        ok = identical and not leaked
        print(f"{'PASS' if ok else 'FAIL'} {plan}: "
              f"bit-identical={identical} leaked-segments={len(leaked)} "
              f"fault/recovery-events={recovered}")
        if args.telemetry:
            for name in sorted(counters):
                print(f"  {name} = {counters[name]}")
        if not ok:
            failures += 1
    print(f"{len(plans) - failures}/{len(plans)} fault plans passed")
    return 1 if failures else 0


def cmd_serve(args: argparse.Namespace) -> int:
    """Run the long-running measurement daemon (see docs/serve.md)."""
    from repro import faults as _faults
    from repro.serve import build_daemon, make_feed

    factory_params = dict(bits=args.bits, mode=args.mode, seed=args.seed)
    if args.feed == "trace":
        if args.trace is None:
            raise ParameterError("serve --feed trace needs --trace")
        trace = resolve_trace(args.trace)
        truths = trace.true_totals(args.mode)
        factory_params["max_length"] = max(truths.values())
        feed = make_feed("trace", trace=trace)
    elif args.feed == "generator":
        spec = args.trace if args.trace is not None \
            else f"nlanr:num_flows=300,seed={args.seed}"
        trace = resolve_trace(spec)
        if not hasattr(trace, "packet_pairs"):
            raise ParameterError(
                f"--trace {spec!r} is a chunk-only workload; feed it "
                f"through `repro stream` instead")
        truths = trace.true_totals(args.mode)
        factory_params["max_length"] = max(truths.values())
        feed = make_feed("generator",
                         pairs=trace.packet_pairs(order="shuffled",
                                                  rng=args.seed))
    else:  # socket
        feed = make_feed("socket", host=args.ingest_host,
                         port=args.ingest_port)
    factory = scheme_factory(args.scheme, **factory_params)

    plan = _faults.resolve_plan(args.faults)
    daemon = build_daemon(
        factory, feed,
        shards=args.shards,
        epoch_packets=args.epoch_packets,
        epoch_bytes=args.epoch_bytes,
        chunk_packets=args.chunk_packets,
        rng=args.seed + 1,
        workers=args.workers,
        engine=_stream_engine(args.engine),
        store=args.store,
        checkpoint_path=args.checkpoint,
        checkpoint_every=args.checkpoint_every,
        resume=args.resume,
        host=args.host,
        port=args.port,
        pace=args.pace,
    )
    if plan:
        _faults.arm(plan, daemon.telemetry)
    try:
        result = daemon.serve_forever()
    except ParameterError:
        raise
    except Exception as exc:  # crash (e.g. injected fault): report, exit 1
        print(f"serve daemon crashed: {type(exc).__name__}: {exc}",
              file=sys.stderr)
        return 1
    finally:
        if plan:
            _faults.disarm()
    print(f"drained: scheme={result.scheme_name} epochs={result.epochs} "
          f"packets={result.packets} volume={result.volume}")
    if args.telemetry:
        snap = daemon.telemetry.snapshot()
        print("telemetry:")
        for name in sorted(snap["counters"]):
            print(f"  {name} = {snap['counters'][name]}")
    return 0


def _default_trace(args: argparse.Namespace):
    return make_trace("nlanr", num_flows=args.flows, mean_flow_bytes=30_000,
                      max_flow_bytes=3_000_000, seed=args.seed)


def cmd_figure(args: argparse.Namespace) -> int:
    fig = args.id
    if fig in (2, 3):
        from repro.core.analysis import cov_bound, cov_for_traffic

        if fig == 2:
            for theta in (1.0, 100.0, 500.0, 1000.0):
                series = [(10**k, cov_for_traffic(1.002, float(10**k), theta))
                          for k in range(2, 9)]
                print(render_series(f"theta={int(theta)}", series))
        else:
            series = [(b, cov_bound(b))
                      for b in (1.0005, 1.001, 1.002, 1.005, 1.01, 1.05, 1.1)]
            print(render_series("CoV bound vs b", series))
        return 0
    if fig == 4:
        rows = bound_gap(b=1.02, runs=args.runs, seed=args.seed)
        print(render_table(
            ["flow length", "bound", "mean counter", "abs gap", "rel gap"],
            [[r["flow_length"], r["bound"], r["mean_counter"],
              r["absolute_gap"], r["relative_gap"]] for r in rows],
        ))
        return 0
    if fig in (5, 6, 7):
        trace = _default_trace(args)
        rows = volume_error_vs_counter_size(trace, seed=args.seed)
        metric = {5: "average", 6: "maximum", 7: "optimistic_95"}[fig]
        print(render_table(
            ["counter bits", f"DISCO {metric} R", f"SAC {metric} R"],
            [[r.counter_bits, getattr(r.disco, metric), getattr(r.sac, metric)]
             for r in rows],
        ))
        return 0
    if fig == 8:
        trace = _default_trace(args)
        result = error_cdf_comparison(trace, counter_bits=10, seed=args.seed)
        print(render_series("DISCO CDF", result["disco"], max_points=10))
        print(render_series("SAC CDF", result["sac"], max_points=10))
        return 0
    if fig == 9:
        rows = counter_bits_vs_volume([10**k for k in range(2, 10)], b=1.002)
        print(render_table(
            ["volume", "SD bits", "SAC bits", "DISCO bits"],
            [[r["volume"], r["sd_bits"], r["sac_bits"], r["disco_bits"]]
             for r in rows],
        ))
        return 0
    if fig == 10:
        from repro.harness.experiments import flow_size_per_flow_error

        trace = _default_trace(args)
        result = flow_size_per_flow_error(trace, counter_bits=10, seed=args.seed)
        for scheme in ("disco", "sac"):
            errors = [e for _, e in result[scheme]]
            print(f"{scheme}: avg R = {sum(errors) / len(errors):.4f}, "
                  f"max R = {max(errors):.4f} over {len(errors)} flows")
        return 0
    print(f"unknown figure {fig}; figures 2-10 are available", file=sys.stderr)
    return 2


def cmd_table(args: argparse.Namespace) -> int:
    if args.id == 2:
        traces = {
            "scenario1": make_trace("scenario1", num_flows=args.flows,
                                    seed=args.seed, max_flow_packets=20_000),
            "scenario2": make_trace("scenario2",
                                    num_flows=max(20, args.flows // 3),
                                    seed=args.seed + 1),
            "scenario3": make_trace("scenario3",
                                    num_flows=max(20, args.flows // 3),
                                    seed=args.seed + 2),
            "real trace": _default_trace(args),
        }
        rows = table2(traces, seed=args.seed)
        print(render_table(
            ["scenario", "bits", "SAC R", "DISCO R"],
            [[r["scenario"], r["counter_bits"], r["sac_avg_error"],
              r["disco_avg_error"]] for r in rows],
        ))
        return 0
    if args.id == 3:
        traces = {"real trace": _default_trace(args)}
        rows = table3(traces, seed=args.seed)
        print(render_table(
            ["scenario", "var>10 frac", "ANLS-I R"],
            [[r["scenario"], r["length_variance_over_10_fraction"],
              r["anls1_avg_error"]] for r in rows],
        ))
        return 0
    if args.id == 4:
        traces = {"real trace": make_trace(
            "nlanr", num_flows=max(10, args.flows // 10),
            mean_flow_bytes=25_000, max_flow_bytes=400_000, seed=args.seed)}
        rows = table4(traces, seed=args.seed)
        print(render_table(
            ["scenario", "DISCO s", "ANLS-II s", "ratio"],
            [[r["scenario"], r["disco_seconds"], r["anls2_seconds"],
              r["ratio"]] for r in rows],
        ))
        return 0
    if args.id == 5:
        from repro.ixp.throughput import run_table5

        rows = run_table5(num_packets=args.packets, seed=args.seed)
        print(render_table(
            ["burst", "# ME", "error", "Gbps"],
            [[r.burst_description, r.num_mes, r.error, r.throughput_gbps]
             for r in rows],
        ))
        return 0
    print(f"unknown table {args.id}; tables 2-5 are available", file=sys.stderr)
    return 2


def cmd_export(args: argparse.Namespace) -> int:
    """Replay a trace through DISCO and write a flow-record export."""
    from repro.export.records import ExportBatch, write_export

    trace = resolve_trace(args.trace)
    truths = trace.true_totals(args.mode)
    scheme = make_scheme("disco", bits=args.bits, mode=args.mode,
                         max_length=max(truths.values()), seed=args.seed)
    replay(scheme, trace, rng=args.seed + 1)
    batch = ExportBatch.from_sketch(scheme)
    written = write_export(batch, args.out)
    print(f"wrote {len(batch)} records ({written} bytes) to {args.out}")
    return 0


def cmd_inspect_export(args: argparse.Namespace) -> int:
    """Print a flow-record export's contents."""
    from repro.export.records import read_export

    batch = read_export(args.path)
    print(f"mode={batch.mode} b={batch.b:.6f} records={len(batch)} "
          f"total={batch.total:.1f}")
    top = sorted(batch.records, key=lambda r: r.estimate, reverse=True)
    print(render_table(
        ["flow", "counter", "estimate"],
        [[r.key, r.counter_value, r.estimate] for r in top[: args.top]],
    ))
    return 0


def cmd_checkpoint(args: argparse.Namespace) -> int:
    """Replay a trace through DISCO and checkpoint the sketch state."""
    from repro.core.checkpoint import save_sketch

    trace = resolve_trace(args.trace)
    truths = trace.true_totals(args.mode)
    scheme = make_scheme("disco", bits=args.bits, mode=args.mode,
                         max_length=max(truths.values()), seed=args.seed)
    replay(scheme, trace, rng=args.seed + 1)
    written = save_sketch(scheme, args.out)
    print(f"checkpointed {len(scheme)} flows ({written} bytes) to {args.out}")
    return 0


def cmd_scenarios(args: argparse.Namespace) -> int:
    """Sweep scheme × scenario × memory budget; regenerate docs/scenarios.md."""
    from repro.harness import scenarios as sc

    budgets = sc.QUICK_BUDGETS if args.quick else sc.FULL_BUDGETS
    seeds = sc.QUICK_SEEDS if args.quick else sc.FULL_SEEDS
    names = args.scenario or None
    print(f"scenario matrix: {', '.join(names or sc.scenario_names())} × "
          f"{len(sc.SCHEMES)} schemes × budgets {budgets} "
          f"({'quick' if args.quick else 'full'} mode)")
    rows, infos = sc.run_matrix(
        scenarios=names, budgets=budgets, seeds=seeds, quick=args.quick,
        include_native=not args.quick)
    print(sc.render_ascii(rows))
    out = args.out if args.out is not None else sc.DOC_PATH
    out.write_text(sc.render_markdown(rows, infos, quick=args.quick,
                                      seeds=seeds))
    print(f"wrote {out}")
    return 0


def cmd_report(args: argparse.Namespace) -> int:
    from repro.harness.report import ReportConfig, write_report

    config = ReportConfig(
        nlanr_flows=args.flows,
        scenario_flows=args.scenario_flows,
        ixp_packets=args.packets,
        seed=args.seed,
        include_ixp=not args.no_ixp,
    )
    path = write_report(args.out, config)
    print(f"wrote {path}")
    return 0


# -- parser ---------------------------------------------------------------------


#: The shared measurement flags every measuring subcommand takes —
#: declared once on a parent parser so replay/stream/faults/serve can
#: never drift apart (parity is asserted in tests/test_cli.py).
COMMON_FLAGS = ("scheme", "bits", "mode", "seed", "engine", "store",
                "telemetry")

#: The shared workload flag — one parent parser so replay/stream/serve
#: spell ``--trace`` (and its registry-spec syntax) identically; parity
#: is asserted in tests/test_cli.py.
TRACE_FLAG_HELP = (
    "workload: a registry spec `name[:key=value,...]` "
    "(see repro.trace_names()) or a trace file path "
    "(.trace / .pcap)")


def _trace_parser() -> argparse.ArgumentParser:
    trace = argparse.ArgumentParser(add_help=False)
    trace.add_argument("--trace", default=None, metavar="SPEC|PATH",
                       help=TRACE_FLAG_HELP)
    return trace


def _common_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--scheme", choices=SCHEMES, default="disco")
    common.add_argument("--bits", type=int, default=10)
    common.add_argument("--mode", choices=("volume", "size"), default="volume")
    common.add_argument("--seed", type=int, default=0)
    common.add_argument("--engine",
                        choices=ENGINES,
                        default="auto",
                        help="replay engine (vector = array-native batch "
                             "replay, native = compiled kernels, falls back "
                             "to vector; streaming commands resolve auto to "
                             "vector and reject the scalar engine)")
    common.add_argument("--store", choices=store_names(), default="dense",
                        help="counter-store backend for the per-flow state "
                             "(pools = lossless compact, morris = lossy "
                             "compact; compact stores need a columnar "
                             "engine)")
    common.add_argument("--telemetry", action="store_true",
                        help="record and print telemetry event counts")
    return common


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="DISCO (ICDCS 2010) reproduction toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    common = _common_parser()
    trace_flag = _trace_parser()

    p = sub.add_parser("gen-trace", help="generate a synthetic trace file")
    p.add_argument("--kind", choices=TRACE_KINDS, default="nlanr")
    p.add_argument("--flows", type=int, default=300)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--order", choices=("shuffled", "sequential", "roundrobin"),
                   default="shuffled")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_gen_trace)

    p = sub.add_parser("replay", parents=[common, trace_flag],
                       help="replay a trace through a counting scheme")
    p.set_defaults(func=cmd_replay)

    p = sub.add_parser(
        "stream", parents=[common, trace_flag],
        help="measure a trace as an epoch-rotating, hash-sharded stream")
    p.add_argument("--shards", type=int, default=4,
                   help="hash-partitions of the flow space")
    p.add_argument("--epoch-packets", type=int, default=None,
                   help="rotate the epoch after this many packets")
    p.add_argument("--epoch-bytes", type=int, default=None,
                   help="rotate the epoch after this many bytes")
    p.add_argument("--chunk-packets", type=int, default=None,
                   help="packets per consumption chunk")
    p.add_argument("--workers", type=int, default=None,
                   help="process-pool workers for shard replays (default: serial)")
    p.add_argument("--checkpoint", default=None,
                   help="checkpoint file; enables crash-resumable streaming")
    p.add_argument("--resume", action="store_true",
                   help="resume from --checkpoint if it exists")
    p.set_defaults(func=cmd_stream)

    p = sub.add_parser(
        "serve", parents=[common, trace_flag],
        help="run the measurement daemon with a live JSON/HTTP query API")
    p.add_argument("--feed", choices=("trace", "generator", "socket"),
                   default="trace",
                   help="packet source: a trace file tail, a synthetic "
                        "generator (--trace picks its registry spec), or a "
                        "line-delimited TCP listener")
    p.add_argument("--host", default="127.0.0.1",
                   help="query-API listen address")
    p.add_argument("--port", type=int, default=0,
                   help="query-API port (0 = ephemeral, printed at startup)")
    p.add_argument("--ingest-host", default="127.0.0.1",
                   help="packet listener address for --feed socket")
    p.add_argument("--ingest-port", type=int, default=0,
                   help="packet listener port for --feed socket")
    p.add_argument("--shards", type=int, default=4,
                   help="hash-partitions of the flow space")
    p.add_argument("--epoch-packets", type=int, default=None,
                   help="rotate the epoch after this many packets")
    p.add_argument("--epoch-bytes", type=int, default=None,
                   help="rotate the epoch after this many bytes")
    p.add_argument("--chunk-packets", type=int, default=None,
                   help="packets per ingestion chunk")
    p.add_argument("--workers", type=int, default=None,
                   help="process-pool workers for shard replays (default: serial)")
    p.add_argument("--checkpoint", default=None,
                   help="checkpoint file; enables crash-resumable serving")
    p.add_argument("--checkpoint-every", type=int, default=4,
                   help="ingested chunks between scheduled checkpoints")
    p.add_argument("--resume", action="store_true",
                   help="resume from --checkpoint if it exists")
    p.add_argument("--pace", type=float, default=0.0,
                   help="seconds slept between ingested chunks")
    p.add_argument("--faults", default=None,
                   help="fault plan to arm for the daemon's lifetime "
                        "(also honours REPRO_FAULTS)")
    p.set_defaults(func=cmd_serve)

    p = sub.add_parser("figure", help="regenerate a figure's data series")
    p.add_argument("id", type=int)
    p.add_argument("--flows", type=int, default=300)
    p.add_argument("--runs", type=int, default=50)
    p.add_argument("--seed", type=int, default=7)
    p.set_defaults(func=cmd_figure)

    p = sub.add_parser("table", help="regenerate a table's rows")
    p.add_argument("id", type=int)
    p.add_argument("--flows", type=int, default=300)
    p.add_argument("--packets", type=int, default=60_000)
    p.add_argument("--seed", type=int, default=7)
    p.set_defaults(func=cmd_table)

    p = sub.add_parser("export", help="replay DISCO over a trace, write flow records")
    p.add_argument("--trace", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--bits", type=int, default=12)
    p.add_argument("--mode", choices=("volume", "size"), default="volume")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_export)

    p = sub.add_parser("inspect-export", help="print a flow-record export")
    p.add_argument("path")
    p.add_argument("--top", type=int, default=10)
    p.set_defaults(func=cmd_inspect_export)

    p = sub.add_parser("checkpoint", help="replay DISCO over a trace, save sketch state")
    p.add_argument("--trace", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--bits", type=int, default=12)
    p.add_argument("--mode", choices=("volume", "size"), default="volume")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_checkpoint)

    p = sub.add_parser(
        "faults", parents=[common],
        help="audit parallel-replay recovery paths under injected faults")
    p.add_argument("--plan", action="append", default=None,
                   help="fault plan string (repeatable; default: the "
                        "standard audit schedule)")
    p.add_argument("--replicas", type=int, default=10)
    p.add_argument("--workers", type=int, default=3)
    p.add_argument("--flows", type=int, default=15)
    p.set_defaults(func=cmd_faults, seed=5)

    p = sub.add_parser(
        "scenarios",
        help="sweep scheme × scenario × memory budget; regenerate "
             "docs/scenarios.md")
    p.add_argument("--quick", action="store_true",
                   help="small workloads, fewer budgets/seeds, no native "
                        "engine pass (<60s)")
    p.add_argument("--scenario", action="append", default=None,
                   help="restrict to one scenario (repeatable; default: all)")
    p.add_argument("--out", type=Path, default=None,
                   help="markdown output path (default: the committed "
                        "docs/scenarios.md)")
    p.set_defaults(func=cmd_scenarios)

    p = sub.add_parser("report", help="rerun the evaluation, write a markdown report")
    p.add_argument("--out", required=True)
    p.add_argument("--flows", type=int, default=400)
    p.add_argument("--scenario-flows", type=int, default=150)
    p.add_argument("--packets", type=int, default=40_000)
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--no-ixp", action="store_true")
    p.set_defaults(func=cmd_report)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """Entry point; returns a process exit code.

    Eager-validation failures (:class:`~repro.errors.ParameterError`,
    raised by :func:`repro.facade._validate` and friends) print one line
    to stderr and exit 2 — the same code argparse uses for bad flags, so
    callers see one contract for "your arguments were wrong".
    """
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ParameterError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
