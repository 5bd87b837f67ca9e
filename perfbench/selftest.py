"""Self-test of the benchmark at tiny sizes.

Run from the repository root: ``python3 perfbench/selftest.py``.  It
checks that

* ``BENCHMARK.json`` keeps the benchmark contract and declares exactly
  the metric names and units the code prints;
* every workload runs, untraced and traced, and prints those names;
* deliberately corrupted outputs are caught by the output checks, both
  by the check functions and through a real replay and stream call;
* without the program next to it the benchmark fails without a result.

Exits non-zero on the first failure.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import catalogue  # noqa: E402
import workloads as wl  # noqa: E402


def check(condition, message: str) -> None:
    if not condition:
        raise SystemExit(f"selftest FAILED: {message}")
    print(f"ok  {message}")


def contract() -> None:
    with open("BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    check(set(spec) == {"command", "paths", "run_seconds", "workloads",
                        "end_to_end", "per_layer"}, "BENCHMARK.json keys")
    check([w["name"] for w in spec["workloads"]] == list(wl.WORKLOADS),
          "workloads match the benchmark's own list")
    check(all(0 < m["bound"] <= 0.25 for m in spec["end_to_end"]),
          "every end-to-end bound is in (0, 0.25]")
    setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"]
    check(setup and setup[0]["bound"] == max(
        m["bound"] for m in spec["end_to_end"]),
        "setup_s has the largest bound")
    problems = catalogue.mismatches()
    check(not problems, "BENCHMARK.json names and units match the code"
          + "".join(f"; {p}" for p in problems))


def run(workload: str, trace: int, cwd: str = "."):
    return subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload",
         workload, "--seed", "7", "--seconds", "1", "--trace", str(trace),
         "--size", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=300)


def every_workload_runs() -> None:
    for workload in wl.WORKLOADS:
        for trace, expected in ((0, catalogue.END_TO_END),
                                (1, catalogue.PER_LAYER)):
            out = run(workload, trace)
            check(out.returncode == 0, f"{workload} --trace {trace} exits 0"
                  + ("" if out.returncode == 0 else f": {out.stderr[-800:]}"))
            result = json.loads(out.stdout.strip().splitlines()[-1])
            check(set(result) == {"correct", "attempted", "failed",
                                  "metrics"}, f"{workload} result keys")
            check(result["correct"] and result["failed"] == 0
                  and result["attempted"] >= 1,
                  f"{workload} --trace {trace} is correct")
            units = {k: v["unit"] for k, v in result["metrics"].items()}
            check(units == expected,
                  f"{workload} --trace {trace} prints the declared metrics")
            check(all(math.isfinite(v["value"])
                      for v in result["metrics"].values()),
                  f"{workload} --trace {trace} values are finite")


def corrupted_outputs_are_caught() -> None:
    truth = np.array([100.0, 200.0, 300.0])
    good = dict(packets=10, expected_packets=10, estimates=truth * 1.01,
                truth=truth, max_counter_bits=8)
    _avg, problems = wl.check_run(**good)
    check(not problems, "a clean output passes the checks")
    cases = {
        "a lost packet": dict(good, packets=9),
        "a NaN estimate": dict(good, estimates=np.array([100.0, np.nan, 3.0])),
        "a negative estimate": dict(good, estimates=np.array([1.0, -2.0, 3.0])),
        "a missing flow": dict(good, estimates=wl.aligned({0: 1.0, 1: 2.0},
                                                          [0, 1, 2])),
        "a wrong reported error": dict(good, reported_avg_error=0.5),
        "a zero counter width": dict(good, max_counter_bits=0),
    }
    for name, case in cases.items():
        _avg, problems = wl.check_run(**case)
        check(problems, f"check_run catches {name}")
    check(wl.check_served_totals({"1": 5.0}, {"1": 5.5}),
          "check_served_totals catches a served total off the drained one")
    check(not wl.check_served_totals({"1": 5.0}, {"1": 5.0}),
          "check_served_totals passes equal totals")

    # Through the real calls: corrupt the program's result in place.
    os.environ["TMPDIR"] = os.path.abspath(os.path.join(
        ".bench_build", "perfbench", "tmp"))
    sys.path.insert(0, "src")
    sys.argv = [sys.argv[0]]
    import repro
    import worker

    size = wl.SIZES["tiny"]
    replay = repro.replay

    def corrupt_replay(*args, **kwargs):
        result = replay(*args, **kwargs)
        flow = next(iter(result.estimates))
        result.estimates[flow] = -1.0
        return result

    repro.replay = corrupt_replay
    try:
        _run, _a, problems = worker.replay_call(
            wl.replay_input(7, size), 7, worker.timed_region)
    finally:
        repro.replay = replay
    check(problems, "a corrupted replay result fails its run")

    stream = repro.stream

    def corrupt_stream(*args, **kwargs):
        result = stream(*args, **kwargs)
        return result.__class__(**{**result.__dict__,
                                   "packets": result.packets + 1})

    repro.stream = corrupt_stream
    try:
        _run, _a, problems = worker.stream_call(
            wl.stream_input(7, size), 7, worker.timed_region)
    finally:
        repro.stream = stream
    check(problems, "a corrupted stream result fails its run")


def fails_without_the_program() -> None:
    bare = os.path.join(".bench_build", "perfbench", "bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy("BENCHMARK.json", bare)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = run("replay-nlanr", 0, cwd=bare)
    shutil.rmtree(bare)
    check(out.returncode != 0 and '"metrics"' not in out.stdout,
          "without the program the benchmark exits non-zero, no result")


def main() -> int:
    contract()
    corrupted_outputs_are_caught()
    fails_without_the_program()
    every_workload_runs()
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
