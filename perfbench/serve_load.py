"""The serve workloads: a private ``repro-serve`` daemon per pass.

Each pass spawns one daemon with one worker on a unix socket inside the
checkout, warmed on every program it serves, and drives it
closed-loop from this process:

* ``cold``: one connection sends seeded *distinct* requests in a fixed
  order: one seeded variant of each entry of the per-bench pool of
  ``repro.serve.loadgen.build_requests`` (``compile``, three
  ``simulate``, three ``wcet`` with a scratchpad point among them, one
  ``sweep``, one ``grid``) for every suite benchmark and eleven
  ``repro.gen`` programs.  Nothing coalesces, so every request is one
  cold computation: trace recording, profiling, allocation, execution
  and WCET analysis in the worker.
* ``memo``: the suite's pool entries with small answers are computed
  once (untimed priming), then two connections repeat those keys, so
  every timed answer should come from the daemon's result memo:
  transport, protocol and memo lookup only.

Every distinct key is checked against a direct, in-process
``repro.serve.worker.evaluate_request`` of the same canonical request,
as ``repro.serve.loadgen`` does, and every repeat must carry the same
result as the first answer.
"""

from __future__ import annotations

import itertools
import json
import os
import random
import shutil
import signal
import subprocess
import sys
import threading
import time

from common import ROOT, WORK, child_env, probe, quantile, tree_peak_rss_mb

#: Cache and scratchpad sizes the seed draws a pool entry's geometry from.
SIZES = (64, 128, 256, 512, 1024, 2048)
SPM_SIZES = (128, 256, 512, 1024)
#: ``(profile, count, statement cap)`` of the ``repro.gen`` programs
#: served beside the suite, capped as in ``dse.GENERATED``.
GENERATED = (("small", 3, 2_000), ("medium", 4, 2_000), ("large", 4, 4_000))
#: Seed of the request order, which is the same for every ``--seed``.
ORDER_SEED = 0
MEMO_CONNECTIONS = 2
MEMO_ROUNDS = 40
MEMO_ROUND_REQUESTS = 2_000
PINGS = 200


def _pool(rng, bench) -> list:
    """One seeded variant of each entry of the per-bench request pool of
    ``repro.serve.loadgen.build_requests`` (its heavy mix), in the same
    proportions: the op and the hierarchy shape are the pool's, the seed
    draws the sizes and associativity.  ``compile`` and the default
    ``simulate`` have nothing to draw."""
    size = rng.choice(SIZES[:4])
    return [
        {"op": "compile", "bench": bench},
        {"op": "simulate", "bench": bench},
        {"op": "simulate", "bench": bench,
         "config": {"cache": rng.choice(SIZES)}},
        {"op": "simulate", "bench": bench,
         "config": {"cache": size, "l2": 4 * size}},
        {"op": "wcet", "bench": bench,
         "config": {"cache": rng.choice(SIZES)}},
        {"op": "wcet", "bench": bench,
         "config": {"cache": rng.choice(SIZES), "assoc": rng.choice((2, 4))},
         "persistence": True},
        {"op": "sweep", "bench": bench,
         "sizes": sorted(rng.sample(SIZES, 4))},
        {"op": "grid", "bench": bench, "sizes": sorted(rng.sample(SIZES, 3)),
         "assocs": [1, 2]},
        {"op": "wcet", "bench": bench,
         "config": {"spm": rng.choice(SPM_SIZES)}},
    ]


def small_answer(request) -> bool:
    """Whether the memo phase repeats *request*: sweeps and grids carry
    one row per geometry, and a scratchpad ``wcet`` would make the
    untimed priming run a profile (seconds on ``g721``)."""
    return (request["op"] in ("compile", "simulate", "wcet")
            and "spm" not in request.get("config", {}))


def _generated(profile, count, cap) -> list:
    """``gen:<seed>:<profile>`` keys of the first *count* generator seeds
    whose reference run stays within *cap* statements."""
    from dse import _generate
    keys = (f"gen:{seed}:{profile}" for seed in range(1, 10_000)
            if _generate(seed, profile, cap) is not None)
    return list(itertools.islice(keys, count))


def make_requests(seed: int, suite=None, generated=GENERATED,
                  keep=None) -> list:
    """``(key, request)``: the seeded pool of every served program.

    The programs are the suite (or *suite*) and the *generated* ones,
    the same for every seed: the seed draws only the geometries, so the
    set of computations, and with it the latency distribution, stays
    nearly the same.  The order is shuffled once, the same way for every
    seed, so the same request pays each program's trace recording.
    *keep* filters the requests.
    """
    from repro.benchmarks import BENCHMARKS
    from repro.serve.protocol import canonical_request, request_key
    rng = random.Random(seed)
    benches = list(BENCHMARKS if suite is None else suite)
    for profile, count, cap in generated:
        benches += _generated(profile, count, cap)
    requests = [(request_key(canonical_request(request)), request)
                for bench in benches for request in _pool(rng, bench)
                if keep is None or keep(request)]
    random.Random(ORDER_SEED).shuffle(requests)
    return requests


def served_benches(requests) -> list:
    """The programs *requests* name, in first-seen order: the daemon
    warms them all, as ``repro-serve-load`` warms its ``--benches``."""
    return list(dict.fromkeys(request["bench"] for _, request in requests))


class Daemon:
    """One private daemon: spawn-until-ping on construction."""

    def __init__(self, tag: str, benches):
        from repro.serve.client import ServeClient, ServeTransportError
        self.dir = os.path.join(WORK, f"d{os.getpid()}-{tag}")
        shutil.rmtree(self.dir, ignore_errors=True)
        os.makedirs(self.dir)
        # A short relative path keeps clear of the unix socket path limit.
        self.socket = os.path.relpath(os.path.join(self.dir, "s.sock"),
                                      ROOT)
        command = [sys.executable, "-m", "repro.serve.cli",
                   "--socket", self.socket, "--workers", "1",
                   "--queue-depth", "64", "--drain-timeout", "30",
                   "--cache-dir", os.path.join(self.dir, "cache"),
                   "--warm", ",".join(benches)]
        self.log_path = os.path.join(self.dir, "daemon.log")
        self.probes = [probe()]
        start = time.perf_counter()
        with open(self.log_path, "w") as log:
            self.process = subprocess.Popen(
                command, cwd=ROOT, env=child_env(),
                stdout=log, stderr=subprocess.STDOUT)
        pinger = ServeClient(self.socket, timeout=5.0, max_retries=0)
        try:
            while True:
                if self.process.poll() is not None:
                    raise RuntimeError(f"daemon exited during start-up: "
                                       f"{self._log_tail()}")
                if time.perf_counter() - start > 120:
                    raise RuntimeError("daemon never answered a ping")
                try:
                    pinger.ping()
                    break
                except (ServeTransportError, OSError):
                    time.sleep(0.005)
        except BaseException:
            self.close()
            raise
        finally:
            pinger.close()
        self.setup_s = time.perf_counter() - start
        self.probes.append(probe())

    def _log_tail(self) -> str:
        try:
            with open(self.log_path) as handle:
                return handle.read()[-2000:]
        except OSError:
            return "(no log)"

    def client(self):
        from repro.serve.client import ServeClient
        return ServeClient(self.socket, timeout=120.0)

    def close(self):
        """SIGTERM, wait for the drain, remove the daemon's files."""
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGTERM)
            try:
                self.process.wait(timeout=60)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
        shutil.rmtree(self.dir, ignore_errors=True)


def _ping_p50_ms(client) -> float:
    samples = []
    for _ in range(PINGS):
        began = time.perf_counter()
        client.ping()
        samples.append(time.perf_counter() - began)
    return 1e3 * quantile(samples, 0.5)


def _send(client, request):
    """``(latency_s, response)`` of one request.  A request the client
    gives up on becomes an error response, so it counts as failed."""
    from repro.serve.client import ServeError
    began = time.perf_counter()
    try:
        response = client.response(**request)
    except (ServeError, OSError) as error:
        response = {"ok": False,
                    "error": {"kind": "client", "message": repr(error)}}
    return time.perf_counter() - began, response


def _daemon_tail(daemon, client) -> dict:
    stats = client.stats()
    stores = stats.get("stores", {})
    return {"stats": {"counters": stats["counters"],
                      "supervisor": stats["supervisor"],
                      "store_entries": sum(layer["entries"]
                                           for layer in stores.values()),
                      "store_bytes": sum(layer["bytes"]
                                         for layer in stores.values())},
            "rss_mb": tree_peak_rss_mb(daemon.process.pid)}


def cold_pass(requests, tag) -> dict:
    """One daemon, one connection, every distinct request once.

    A host-speed probe runs before the first request and after each.
    """
    daemon = Daemon(tag, served_benches(requests))
    try:
        client = daemon.client()
        try:
            ping_ms = _ping_p50_ms(client)
            records, spans = [], []
            samples = [[time.perf_counter(), probe()]]
            for key, request in requests:
                latency, response = _send(client, request)
                end = time.perf_counter()
                spans.append([end - latency, end])
                records.append((key, request["op"], latency, response))
                samples.append([time.perf_counter(), probe()])
            tail = _daemon_tail(daemon, client)
        finally:
            client.close()
    finally:
        daemon.close()
    gaps = sum(later[0] - earlier[1]
               for earlier, later in zip(spans, spans[1:]))
    return {"setup_s": daemon.setup_s, "setup_probes_s": daemon.probes,
            "spans": spans, "op_segments": list(range(len(spans))),
            "samples": samples, "ops": len(records),
            "ping_p50_ms": ping_ms, "records": records,
            "unattributed_s": gaps - sum(d for _, d in samples[1:-1]),
            **tail}


def memo_pass(requests, seed, tag, rounds=MEMO_ROUNDS,
              per_round=MEMO_ROUND_REQUESTS) -> dict:
    """Prime the key set once, then repeat it over two connections.

    The timed phase is *rounds* back-to-back rounds of *per_round*
    requests split over the connections; each round is timed on its
    own, and its latencies are those of all its answers.  Every timed
    answer must come from the memo: ``not_memo_ops`` names each one
    that did not, as a failed operation.  The phase carries no
    host-speed probes: a probe would stall the other connection, and
    the memo path's latency is set by inter-process round trips that a
    compute probe does not track.
    """
    daemon = Daemon(tag, served_benches(requests))
    try:
        primer = daemon.client()
        clients = [daemon.client() for _ in range(MEMO_CONNECTIONS)]
        try:
            ping_ms = _ping_p50_ms(primer)
            primed = [(key, request["op"], *_send(primer, request))
                      for key, request in requests]
            rng = random.Random(seed)
            records, spans, round_latencies, not_memo = [], [], [], []
            for _ in range(rounds):
                plans = [[rng.randrange(len(requests))
                          for _ in range(per_round // len(clients))]
                         for _ in clients]
                lanes = [[] for _ in clients]

                def lane(index):
                    for choice in plans[index]:
                        lanes[index].append(
                            (choice, *_send(clients[index],
                                            requests[choice][1])))

                threads = [threading.Thread(target=lane, args=(index,))
                           for index in range(len(clients))]
                began = time.perf_counter()
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join()
                spans.append([began, time.perf_counter()])
                answered = [(requests[choice][0], requests[choice][1]["op"],
                             latency, response)
                            for out in lanes
                            for choice, latency, response in out]
                round_latencies.append([record[2] for record in answered])
                not_memo += [f"{key}@{len(spans)}.{index}"
                             for index, (key, _, _, response)
                             in enumerate(answered)
                             if response.get("served") != "memo"]
                records += answered
            tail = _daemon_tail(daemon, primer)
        finally:
            for client in [primer, *clients]:
                client.close()
    finally:
        daemon.close()
    busy = sum(end - start for start, end in spans) * len(clients)
    idle = busy - sum(record[2] for record in records)
    return {"setup_s": daemon.setup_s, "setup_probes_s": daemon.probes,
            "spans": spans, "round_latencies": round_latencies,
            "ops": per_round, "attempted": len(primed) + len(records),
            "not_memo_ops": not_memo, "ping_p50_ms": ping_ms,
            "records": primed + records,
            "unattributed_s": idle / len(clients), **tail}


def verify(requests, records) -> dict:
    """Operation key -> problem, for every answer that is not the truth.

    A key's answers must all be ``ok`` and identical, and equal to a
    direct in-process evaluation of the canonical request.
    """
    from repro.serve.protocol import canonical_request
    from repro.serve.worker import evaluate_request
    answers = {}
    problems = {}
    for key, _, _, response in records:
        if not response.get("ok"):
            problems[key] = f"error response {response.get('error')}"
            continue
        answers.setdefault(key, set()).add(
            json.dumps(response["result"], sort_keys=True))
    for key, request in requests:
        blobs = answers.get(key)
        if blobs is None or key in problems:
            problems.setdefault(key, "never answered")
            continue
        if len(blobs) != 1:
            problems[key] = f"{len(blobs)} different answers"
            continue
        truth = json.dumps(evaluate_request(canonical_request(request)),
                           sort_keys=True)
        if truth not in blobs:
            problems[key] = "served answer != direct evaluation"
    return problems
