"""The repo's end-to-end benchmark: replay, stream and serve, checked.

Run from the repository root::

    python3 perfbench/run.py --workload replay-nlanr --seed 1 --seconds 10 --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the
per-layer breakdown of a traced run; the last stdout line is one JSON
object ``{"correct", "attempted", "failed", "metrics"}`` whose metric
names and units are those of ``BENCHMARK.json``.  ``--size tiny`` runs
the same code on inputs small enough for the self-test.  See
``perfbench/README.md`` for the workloads and how to read the numbers.
"""

from __future__ import annotations

import argparse
import http.client
import json
import os
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import catalogue  # noqa: E402
import workloads as wl  # noqa: E402

#: Set-ups per run of replay and stream; ``setup_s`` is their median.
SETUP_PROBES = 3
#: Measured daemon passes per serve-mixed run; each one is also a set-up.
SERVE_PASSES = 3
#: Seconds a child may take to reach its ready line (the first run in a
#: checkout also byte-compiles the program).
READY_TIMEOUT = 120.0
#: Seconds allowed for the one-off native library build in a checkout.
WARMUP_TIMEOUT = 600.0
QUERY_TIMEOUT = 10.0
WORKDIR = os.path.join(".bench_build", "perfbench")


class Child:
    """A benchmark child process whose stdout lines a reader thread keeps."""

    def __init__(self, argv, env) -> None:
        self.started = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable] + argv, stdin=subprocess.PIPE,
            stdout=subprocess.PIPE, text=True, env=env)
        self.lines = []  # (time read, line)
        self.done = False
        self._cond = threading.Condition()
        self._reader = threading.Thread(target=self._read, daemon=True)
        self._reader.start()

    def _read(self) -> None:
        for line in self.proc.stdout:
            with self._cond:
                self.lines.append((time.perf_counter(), line.rstrip("\n")))
                self._cond.notify_all()
        with self._cond:
            self.done = True
            self._cond.notify_all()

    def wait_for(self, prefix: str, timeout: float):
        """``(time, line)`` of the first line with ``prefix``.

        Raises when the child exits or ``timeout`` passes first.
        """
        deadline = time.perf_counter() + timeout
        with self._cond:
            while True:
                for stamp, line in self.lines:
                    if line.startswith(prefix):
                        return stamp, line
                left = deadline - time.perf_counter()
                if self.done or left <= 0:
                    raise RuntimeError(
                        f"child {self.proc.args[1]} gave no {prefix!r} line "
                        f"({'exited' if self.done else 'timed out'})")
                self._cond.wait(left)

    def wait_ingested(self, timeout: float) -> bool:
        with self._cond:
            if not self._has("INGESTED") and not self.done:
                self._cond.wait(timeout)
            return self._has("INGESTED")

    def _has(self, prefix: str) -> bool:
        return any(line.startswith(prefix) for _s, line in self.lines)

    def send(self, text: str) -> None:
        self.proc.stdin.write(text + "\n")
        self.proc.stdin.flush()

    def __enter__(self) -> "Child":
        return self

    def __exit__(self, *exc) -> None:
        # Never leave a child behind, whatever went wrong.
        if self.proc.poll() is None:
            self.proc.kill()
        self.close()

    def close(self, timeout: float = 60.0) -> int:
        try:
            self.proc.stdin.close()
        except OSError:
            pass
        try:
            code = self.proc.wait(timeout)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            code = self.proc.wait()
        self._reader.join(10.0)
        return code


def report_of(child: Child, timeout: float) -> dict:
    _stamp, line = child.wait_for("REPORT ", timeout)
    code = child.close()
    if code != 0:
        raise RuntimeError(f"child exited with {code}")
    return json.loads(line[len("REPORT "):])


# -- in-process workloads (replay, stream) ------------------------------------

def worker_argv(args, trace: int):
    return [os.path.join(HERE, "worker.py"), "--workload", args.workload,
            "--seed", str(args.seed), "--seconds", str(args.seconds),
            "--trace", str(trace), "--size", args.size]


def run_worker(args, env) -> dict:
    probes = 1 if args.trace else SETUP_PROBES
    setups = []
    for probe in range(probes):
        with Child(worker_argv(args, args.trace), env) as child:
            stamp, _line = child.wait_for("READY", READY_TIMEOUT)
            setups.append(stamp - child.started)
            if probe < probes - 1:
                child.send("quit")
                if child.close() != 0:
                    raise RuntimeError("set-up probe failed")
                continue
            child.send("go")
            report = report_of(child, 3.0 * args.seconds + 60.0)
    report["setups"] = setups
    return report


# -- serve-mixed ---------------------------------------------------------------

class Client:
    """One connection per request (the daemon answers ``Connection: close``)."""

    def __init__(self, url: str) -> None:
        host, port = url.rsplit("/", 1)[-1].split(":")
        self.host, self.port = host, int(port)
        self.attempted = 0
        self.failed = 0

    def request(self, method: str, path: str):
        """``(status, payload)``; ``(None, None)`` on a transport failure."""
        self.attempted += 1
        conn = http.client.HTTPConnection(self.host, self.port,
                                          timeout=QUERY_TIMEOUT)
        try:
            conn.request(method, path)
            response = conn.getresponse()
            status, body = response.status, response.read()
        except (OSError, http.client.HTTPException):
            self.failed += 1
            return None, None
        finally:
            conn.close()
        try:
            payload = json.loads(body)
        except ValueError:
            payload = None
        if payload is None or not (200 <= status < 300 or status == 404):
            self.failed += 1
        return status, payload


def dashboard_query(k: int, sample) -> str:
    """The dashboard mix: four ``/flows/{id}`` to one ``/topk?n=10``."""
    if k % 5 == 4:
        return "/topk?n=10"
    return f"/flows/{sample[k % len(sample)]}"


def serve_pass(args, env, trace: int, size: dict):
    """One daemon run with the query load; returns its report and client view."""
    os.makedirs(WORKDIR, exist_ok=True)
    checkpoint = os.path.join(WORKDIR, f"serve-{os.getpid()}.ckpt")
    child = Child([os.path.join(HERE, "serve_driver.py"),
                   "--seed", str(args.seed), "--trace", str(trace),
                   "--size", args.size, "--checkpoint", checkpoint], env)
    try:
        with child:
            _s, flows_line = child.wait_for("FLOWS ", READY_TIMEOUT)
            sample = json.loads(flows_line[len("FLOWS "):])
            stamp, banner = child.wait_for("serving on http://", READY_TIMEOUT)
            setup = stamp - child.started
            client = Client(banner.split()[-1])

            # Open loop during ingest: one connection at a time, each query
            # timed from when it was due, so a stalled daemon delays the
            # queries behind it.
            rate = size["serve_query_rate"]
            child.send("go")
            start = time.perf_counter()
            during, late, k = [], [], 0
            while True:
                due = start + k / rate
                if child.wait_ingested(max(0.0, due - time.perf_counter())):
                    break
                sent = time.perf_counter()
                client.request("GET", dashboard_query(k, sample))
                during.append(time.perf_counter() - due)
                late.append(sent - due)
                k += 1

            # Closed-loop burst once ingest has ended, before drain.
            burst = {"flows": [], "topk": []}
            for k in range(size["serve_burst"]):
                path = dashboard_query(k, sample)
                sent = time.perf_counter()
                client.request("GET", path)
                kind = "topk" if path.startswith("/topk") else "flows"
                burst[kind].append(time.perf_counter() - sent)

            served = {}
            for flow in sample:
                status, payload = client.request("GET", f"/flows/{flow}")
                if status == 200 and payload is not None:
                    served[str(flow)] = payload["total"]
            client.request("POST", "/control/drain")
            report = report_of(child, 120.0)
    finally:
        for path in (checkpoint, checkpoint + ".tmp"):
            if os.path.exists(path):
                os.unlink(path)

    problems = report["problems"]
    problems += wl.check_served_totals(served, report["drained"])
    if len(served) != len(sample):
        problems.append(f"{len(sample) - len(served)} sampled flows not "
                        f"served after ingest")
    quiet = burst["flows"] + burst["topk"]
    view = {
        "attempted": client.attempted + 1,
        "failed": client.failed + (1 if problems else 0),
        "ingest_queries": len(during),
        "burst_queries": len(quiet),
        "serve.ingest_query_p50_ms": 1e3 * statistics.median(during)
        if during else 0.0,
        "bench.query_late_p50_ms": 1e3 * statistics.median(late)
        if late else 0.0,
        "serve.query_p50_ms": 1e3 * statistics.median(quiet),
        "serve.query_p95_ms": 1e3 * wl.percentile(quiet, 95),
        "serve.flows_p50_ms": 1e3 * statistics.median(burst["flows"]),
        "serve.topk_p50_ms": 1e3 * statistics.median(burst["topk"]),
    }
    return setup, report, view


def run_serve(args, env) -> dict:
    """Daemon passes: the fastest untraced one, or plain + traced."""
    size = wl.SIZES[args.size]
    if args.trace:
        _setup, plain, view = serve_pass(args, env, 0, size)
        _setup, traced, traced_view = serve_pass(args, env, 1, size)
        layers = traced["layers"]
        layers.update({k: v for k, v in view.items() if "." in k})
        layers["serve.drain_peak_mem_mb"] = plain["serve.drain_peak_mem_mb"]
        layers["bench.trace_overhead_pct"] = 100.0 * (
            traced["ingest_s"] / plain["ingest_s"] - 1.0)
        traced["layers"] = layers
        traced["problems"] += plain["problems"]
        traced["attempted"] = view["attempted"] + traced_view["attempted"]
        traced["failed"] = view["failed"] + traced_view["failed"]
        return traced
    setups, passes = [], []
    for _ in range(SERVE_PASSES):
        setup, report, view = serve_pass(args, env, 0, size)
        report.update(view)
        setups.append(setup)
        passes.append(report)
    # Other tenants' load only ever slows a pass: keep the fastest.
    best = max(passes, key=lambda r: r["metrics"]["throughput_pps"])
    for other in passes:
        if other is not best:
            best["problems"] += other["problems"]
            best["attempted"] += other["attempted"]
            best["failed"] += other["failed"]
    best["setups"] = setups
    best["ingest_s"] = [r["ingest_s"] for r in passes]
    return best


# -- main ----------------------------------------------------------------------

def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=wl.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--size", choices=sorted(wl.SIZES), default="full")
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join("src", "repro", "__init__.py")):
        print("perfbench: run from the repository root (src/repro missing)",
              file=sys.stderr)
        return 2
    problems = catalogue.mismatches()
    if problems:
        print("perfbench: " + "; ".join(problems), file=sys.stderr)
        return 2
    declared = catalogue.PER_LAYER if args.trace else catalogue.END_TO_END
    tmp = os.path.join(WORKDIR, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in ("src", env.get("PYTHONPATH")) if p)
    env["TMPDIR"] = os.path.abspath(tmp)  # the native library cache
    env["PYTHONHASHSEED"] = "0"

    # Build (once per checkout) and load the native library before any
    # set-up is timed.
    subprocess.run([sys.executable, os.path.join(HERE, "worker.py"),
                    "--warmup"], env=env, check=True, timeout=WARMUP_TIMEOUT,
                   stdout=subprocess.DEVNULL)

    if args.workload == "serve-mixed":
        report = run_serve(args, env)
    else:
        report = run_worker(args, env)

    attempted, failed = report["attempted"], report["failed"]
    if args.trace:
        metrics = dict(report["layers"])
        metrics["bench.fail_frac"] = failed / attempted
        for name in declared:
            metrics.setdefault(name, 0.0)  # serve-only client views
    else:
        metrics = dict(report["metrics"])
        metrics["setup_s"] = statistics.median(report["setups"])
    if set(metrics) != set(declared):
        raise RuntimeError(f"measured metrics differ from the catalogue: "
                           f"{sorted(set(metrics) ^ set(declared))}")
    for problem in report["problems"]:
        print(f"perfbench: check failed: {problem}", file=sys.stderr)
    print(f"perfbench: {args.workload} seed={args.seed} engines="
          f"{report['engines']} native={report['provider']} packets="
          f"{report['packets']} flows={report['flows']}", file=sys.stderr)
    for key in ("calls", "call_walls", "setups", "ingest_queries",
                "burst_queries", "ingest_s", "serve.drain_peak_mem_mb",
                "serve.ingest_query_p50_ms", "serve.query_p50_ms",
                "serve.query_p95_ms"):
        if key in report:
            print(f"perfbench:   {key} = {report[key]}", file=sys.stderr)
    print(json.dumps({
        "correct": not report["problems"] and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": float(value), "unit": declared[name]}
                    for name, value in sorted(metrics.items())},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
