"""``repro-serve-load``: load generator + correctness harness.

Drives a serving daemon with a seeded, repeatable mix of
compile/simulate/wcet/sweep/grid requests from concurrent clients —
heavy on repeats, so dedup and the result memo actually get exercised
— and measures throughput and latency.  Two properties are *checked*,
not just measured:

* **Byte-identical serving.**  Every ok response for one request key
  must carry the same canonical result JSON, and that JSON must equal
  a direct, in-process :func:`repro.serve.worker.evaluate_request`
  evaluation of the same canonical request.  Because the local
  evaluation has no fault hooks, this is fault-free ground truth: run
  the load with ``REPRO_FAULT_UNIT=crash@5+`` or a
  ``REPRO_FAULT_SERVE`` slice and the check proves the daemon's
  supervision and the client's transport recovery returned *correct*
  answers, not just answers.

* **Graceful drain.**  ``--sigterm-mid`` SIGTERMs the spawned daemon
  mid-load; in-flight requests must still be answered, later ones be
  rejected as ``draining`` (counted, not failed), and the daemon
  process must exit 0 within its drain deadline.

Exit status is 0 only when every check passed.  ``--json FILE`` writes
the metrics (the ``benchmarks/bench_suite.py`` serve section reads
them into ``BENCH_serve.json``).
"""

from __future__ import annotations

import argparse
import json
import os
import random
import signal
import subprocess
import sys
import tempfile
import threading
import time

from .client import ServeClient, ServeError, ServeTransportError
from .protocol import canonical_request, request_key


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-serve-load",
        description="load-test a repro-serve daemon and verify its "
                    "responses against direct evaluation")
    parser.add_argument("--socket", default=None, metavar="PATH",
                        help="existing daemon socket (default: spawn "
                             "a private daemon for the run)")
    parser.add_argument("--requests", type=int, default=300,
                        help="total requests to send (default 300)")
    parser.add_argument("--clients", type=int, default=4,
                        help="concurrent client threads (default 4)")
    parser.add_argument("--benches", default="crc,fir",
                        help="comma-separated benchmarks to mix "
                             "(default crc,fir)")
    parser.add_argument("--seed", type=int, default=1234,
                        help="request-mix seed (default 1234)")
    parser.add_argument("--workers", type=int, default=2,
                        help="spawned daemon's worker count "
                             "(default 2)")
    parser.add_argument("--queue-depth", type=int, default=32,
                        help="spawned daemon's admission depth "
                             "(default 32)")
    parser.add_argument("--drain-timeout", type=float, default=15.0,
                        help="spawned daemon's drain deadline "
                             "(default 15)")
    parser.add_argument("--quick", action="store_true",
                        help="CI preset: 80 requests, 3 clients, "
                             "one benchmark")
    parser.add_argument("--sigterm-mid", action="store_true",
                        help="SIGTERM the spawned daemon mid-load "
                             "and require a clean drain")
    parser.add_argument("--no-verify", action="store_true",
                        help="skip the byte-identical ground-truth "
                             "check")
    parser.add_argument("--json", default=None, metavar="FILE",
                        help="write metrics JSON here")
    return parser


def build_requests(benches, total, seed, *, heavy=True) -> list:
    """The seeded request mix: a small distinct pool, sampled with
    repeats so dedup/memo paths dominate, exactly like a build system
    hammering a shared analysis service."""
    pool = []
    for bench in benches:
        pool.extend([
            {"op": "compile", "bench": bench},
            {"op": "simulate", "bench": bench},
            {"op": "simulate", "bench": bench,
             "config": {"cache": 256}},
            {"op": "simulate", "bench": bench,
             "config": {"cache": 256, "l2": 1024}},
            {"op": "wcet", "bench": bench, "config": {"cache": 256}},
            {"op": "wcet", "bench": bench,
             "config": {"cache": 512, "assoc": 2},
             "persistence": True},
            {"op": "sweep", "bench": bench,
             "sizes": [64, 128, 256, 512]},
            {"op": "grid", "bench": bench, "sizes": [128, 256, 512],
             "assocs": [1, 2]},
        ])
        if heavy:
            pool.append({"op": "wcet", "bench": bench,
                         "config": {"spm": 256}})
    rng = random.Random(seed)
    return [dict(rng.choice(pool)) for _ in range(total)]


def percentile(samples, fraction: float):
    if not samples:
        return None
    ordered = sorted(samples)
    index = min(len(ordered) - 1,
                max(0, round(fraction * (len(ordered) - 1))))
    return ordered[index]


class _Run:
    """Shared state between the client threads.

    Requests are canonicalised and keyed up front, in the main thread:
    client threads must not race each other through the package's lazy
    imports, and the verifier needs the canonical forms anyway.
    """

    def __init__(self, requests):
        self.requests = [
            (request, request_key(canonical_request(request)))
            for request in requests]
        self.lock = threading.Lock()
        self.cursor = 0
        self.records = []
        self.completed = 0
        self.client_counters = {}

    def next_request(self):
        with self.lock:
            if self.cursor >= len(self.requests):
                return None
            request = self.requests[self.cursor]
            self.cursor += 1
            return request

    def record(self, entry):
        with self.lock:
            self.records.append(entry)
            self.completed += 1

    def add_counters(self, counters):
        with self.lock:
            for key, value in counters.items():
                self.client_counters[key] = \
                    self.client_counters.get(key, 0) + value


def _client_thread(socket_path, run, draining_seen):
    """One client worker: requests until the run's list is empty."""
    client = ServeClient(socket_path, timeout=120.0)
    try:
        while True:
            handout = run.next_request()
            if handout is None:
                return
            request, key = handout
            t0 = time.monotonic()
            try:
                response = client.response(**request)
            except Exception as error:
                # Once the daemon is draining (or gone after a
                # --sigterm-mid), rejections are the *expected*
                # behaviour, not failures.
                if isinstance(error, ServeError):
                    kind = error.kind
                elif isinstance(error, (ServeTransportError, OSError)):
                    kind = "transport"
                else:  # a client bug is a finding, not a lost request
                    kind = f"client-error: {error!r}"
                expected = draining_seen.is_set()
                if kind == "draining":
                    draining_seen.set()
                    expected = True
                run.record({"key": key, "ok": False, "kind": kind,
                            "expected": expected,
                            "elapsed": time.monotonic() - t0})
                continue
            elapsed = time.monotonic() - t0
            if response.get("ok"):
                run.record({
                    "key": key, "ok": True,
                    "served": response.get("served"),
                    "result": json.dumps(response["result"],
                                         sort_keys=True),
                    "elapsed": elapsed})
            else:
                error = response.get("error", {})
                kind = error.get("kind")
                if kind == "draining":
                    draining_seen.set()
                run.record({"key": key, "ok": False, "kind": kind,
                            "expected": kind == "draining",
                            "elapsed": elapsed})
    finally:
        run.add_counters(client.counters)
        client.close()


def _spawn_daemon(args, workdir):
    socket_path = os.path.join(workdir, "serve.sock")
    stats_path = os.path.join(workdir, "daemon-stats.json")
    log_path = os.path.join(workdir, "daemon.log")
    # The spawned interpreter must find this very package, however the
    # loadgen itself was launched (PYTHONPATH=src or installed entry
    # point).
    env = _loadgen_env()
    log = open(log_path, "w")
    process = subprocess.Popen(
        [sys.executable, "-m", "repro.serve.cli",
         "--socket", socket_path,
         "--workers", str(args.workers),
         "--queue-depth", str(args.queue_depth),
         "--drain-timeout", str(args.drain_timeout),
         "--warm", args.benches,
         "--stats-json", stats_path],
        stdout=log, stderr=subprocess.STDOUT, env=env)
    log.close()
    deadline = time.monotonic() + 120.0
    probe = ServeClient(socket_path, timeout=5.0)
    while time.monotonic() < deadline:
        if process.poll() is not None:
            raise RuntimeError(
                f"daemon died during startup (rc {process.returncode}); "
                f"log: {log_path}")
        try:
            probe.ping()
            probe.close()
            return process, socket_path, stats_path, log_path
        except (ServeTransportError, OSError):
            time.sleep(0.1)
    process.kill()
    raise RuntimeError(f"daemon never became ready; log: {log_path}")


def _loadgen_env() -> dict:
    src_dir = os.path.dirname(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [src_dir] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH")
                     else []))
    return env


def _verify(records, requests):
    """Byte-identical check: consistency across responses per key,
    then equality with direct fault-free evaluation."""
    from .worker import evaluate_request
    canonical_by_key = {}
    for request in requests:
        canonical = canonical_request(request)
        canonical_by_key[request_key(canonical)] = canonical
    by_key = {}
    for record in records:
        if record.get("ok"):
            by_key.setdefault(record["key"], set()).add(
                record["result"])
    problems = []
    for key, blobs in sorted(by_key.items()):
        if len(blobs) != 1:
            problems.append(f"key {key}: {len(blobs)} distinct "
                            "response payloads")
            continue
        canonical = canonical_by_key[key]
        if canonical["op"] == "sleep":
            continue
        truth = json.dumps(evaluate_request(canonical),
                           sort_keys=True)
        blob = next(iter(blobs))
        if blob != truth:
            problems.append(
                f"key {key}: served {blob} != direct {truth}")
    return len(by_key), problems


def run_load(args) -> tuple:
    """Run the load; returns ``(exit_code, metrics, failures)``."""
    if args.quick:
        args.requests = min(args.requests, 80)
        args.clients = min(args.clients, 3)
        args.benches = args.benches.split(",")[0]
    benches = [bench for bench in args.benches.split(",") if bench]
    requests = build_requests(benches, args.requests, args.seed,
                              heavy=not args.quick)
    if args.sigterm_mid and args.socket:
        raise SystemExit("--sigterm-mid needs a spawned daemon "
                         "(drop --socket)")
    process = stats_path = log_path = None
    socket_path = args.socket
    if socket_path is None:
        process, socket_path, stats_path, log_path = _spawn_daemon(
            args, tempfile.mkdtemp(prefix="repro-serve-load-"))
    run = _Run(requests)
    draining_seen = threading.Event()
    terminator = None
    if args.sigterm_mid:
        half = max(1, args.requests // 2)

        def _terminate():
            while run.completed < half and process.poll() is None:
                time.sleep(0.02)
            draining_seen.set()
            if process.poll() is None:
                process.send_signal(signal.SIGTERM)

        terminator = threading.Thread(target=_terminate, daemon=True)
    t0 = time.monotonic()
    threads = [threading.Thread(
        target=_client_thread,
        args=(socket_path, run, draining_seen), daemon=True)
        for _ in range(max(1, args.clients))]
    for thread in threads:
        thread.start()
    if terminator is not None:
        terminator.start()
    for thread in threads:
        thread.join()
    wall = time.monotonic() - t0
    failures = []
    ok_records = [r for r in run.records if r["ok"]]
    if len(run.records) != args.requests:
        failures.append(
            f"lost requests: {len(run.records)} records for "
            f"{args.requests} requests")
    for record in run.records:
        if not record["ok"] and not record.get("expected"):
            failures.append(f"unexpected {record.get('kind')} "
                            f"for {record['key']}")
    distinct = 0
    if not args.no_verify:
        distinct, problems = _verify(run.records, requests)
        failures.extend(problems)
    daemon_rc = None
    daemon_stats = None
    if process is not None:
        if process.poll() is None and not args.sigterm_mid:
            process.send_signal(signal.SIGTERM)
        try:
            daemon_rc = process.wait(timeout=args.drain_timeout + 30)
        except subprocess.TimeoutExpired:
            process.kill()
            failures.append("daemon did not exit after SIGTERM")
            daemon_rc = process.wait()
        if daemon_rc != 0:
            failures.append(f"daemon exited {daemon_rc} "
                            f"(log: {log_path})")
        if stats_path and os.path.exists(stats_path):
            with open(stats_path) as handle:
                daemon_stats = json.load(handle)
    latencies = [record["elapsed"] for record in ok_records]
    served = {}
    for record in ok_records:
        served[record["served"]] = served.get(record["served"], 0) + 1
    metrics = {
        "requests": args.requests,
        "clients": args.clients,
        "benches": benches,
        "ok": len(ok_records),
        "rejected_expected": sum(
            1 for r in run.records
            if not r["ok"] and r.get("expected")),
        "failures": len(failures),
        "wall_seconds": round(wall, 3),
        "throughput_rps": round(len(ok_records) / wall, 2)
        if wall > 0 else None,
        "latency_ms": {
            "p50": round(1e3 * percentile(latencies, 0.50), 2)
            if latencies else None,
            "p95": round(1e3 * percentile(latencies, 0.95), 2)
            if latencies else None,
            "max": round(1e3 * max(latencies), 2)
            if latencies else None,
        },
        "served": served,
        "distinct_keys_verified": distinct,
        "sigterm_mid": bool(args.sigterm_mid),
        "daemon_exit_code": daemon_rc,
        "client_counters": dict(run.client_counters),
    }
    if daemon_stats is not None:
        metrics["daemon"] = {
            "counters": daemon_stats.get("counters"),
            "supervisor": daemon_stats.get("supervisor"),
            "stores": daemon_stats.get("stores"),
        }
    return (0 if not failures else 1, metrics, failures)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    code, metrics, failures = run_load(args)
    print(json.dumps(metrics, indent=2, sort_keys=True))
    for failure in failures:
        print(f"repro-serve-load: FAIL: {failure}", file=sys.stderr)
    if args.json:
        with open(args.json, "w") as handle:
            json.dump(metrics, handle, indent=2, sort_keys=True)
            handle.write("\n")
    print(f"repro-serve-load: {'ok' if code == 0 else 'FAILED'} "
          f"({metrics['ok']}/{metrics['requests']} ok, "
          f"{metrics['rejected_expected']} expected rejections, "
          f"{len(failures)} failures)",
          file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
