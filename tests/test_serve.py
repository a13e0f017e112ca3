"""The analysis-as-a-service daemon (PR 9).

The serving invariant mirrors the resilience suite's: **anything the
daemon answers is byte-identical to evaluating the same request
directly**, whatever path produced it — freshly computed, coalesced
onto an in-flight twin, served from the memo, retried past a killed
worker, or resent across an injected transport fault.  Around that
sit the robustness behaviours ISSUE 9 pins down: request dedup,
bounded admission with backpressure, per-waiter deadlines with
copy-pasteable repro commands, supervised worker recovery, and
graceful SIGTERM drain.

Most tests run the daemon in-process (:class:`ServeDaemon` is
embeddable); the drain test and the load-generator test exercise the
real ``repro-serve`` / ``repro-serve-load`` entry points as
subprocesses.
"""

import json
import os
import re
import signal
import socket
import subprocess
import sys
import threading
import time

import pytest

from repro.serve.client import (
    ServeClient,
    ServeError,
    ServeTransportError,
    reconnect_delay,
)
from repro.serve.daemon import ServeDaemon
from repro.serve.protocol import (
    ProtocolError,
    canonical_request,
    decode,
    encode,
    repro_command,
    request_key,
)
from repro.serve.worker import evaluate_request, rerun_request
from repro.testing.faults import reset_fault_counters

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(REPO, "src")

TINY_SOURCE = """
int main(void) {
    int i; int acc = 0;
    for (i = 0; i < 16; i = i + 1) acc = acc + i;
    return acc & 255;
}
"""


@pytest.fixture(autouse=True)
def _no_leftover_faults(monkeypatch):
    monkeypatch.delenv("REPRO_FAULT_STORE_WRITE", raising=False)
    monkeypatch.delenv("REPRO_FAULT_UNIT", raising=False)
    monkeypatch.delenv("REPRO_FAULT_SERVE", raising=False)
    reset_fault_counters()
    yield
    reset_fault_counters()


@pytest.fixture
def daemon_factory(tmp_path):
    daemons = []

    def make(**kwargs):
        kwargs.setdefault("workers", 2)
        kwargs.setdefault("cache_dir", None)
        daemon = ServeDaemon(
            str(tmp_path / f"d{len(daemons)}.sock"), **kwargs)
        daemon.start()
        daemons.append(daemon)
        return daemon

    yield make
    for daemon in daemons:
        daemon.drain(timeout=10.0)


# --------------------------------------------------------------------------
# Protocol: canonicalisation, request identity, validation
# --------------------------------------------------------------------------

class TestProtocol:
    def test_defaults_fill_in(self):
        bare = canonical_request({"op": "simulate", "bench": "crc"})
        explicit = canonical_request(
            {"op": "simulate", "bench": "crc", "config": {},
             "id": "x", "deadline": 5.0})
        assert bare == explicit
        assert request_key(bare) == request_key(explicit)
        assert "id" not in bare and "deadline" not in bare

    def test_non_default_config_changes_key(self):
        small = canonical_request(
            {"op": "wcet", "bench": "crc", "config": {"cache": 256}})
        big = canonical_request(
            {"op": "wcet", "bench": "crc", "config": {"cache": 512}})
        assert small["config"] == {"cache": 256}
        assert request_key(small) != request_key(big)

    def test_source_keyed_by_sha(self):
        canonical = canonical_request(
            {"op": "compile", "source": TINY_SOURCE})
        assert canonical["source"] == TINY_SOURCE
        key = request_key(canonical)
        assert TINY_SOURCE not in key
        assert "source_sha256" in key
        again = canonical_request(
            {"op": "compile", "source": TINY_SOURCE})
        assert request_key(again) == key

    @pytest.mark.parametrize("request_", [
        {"op": "explode"},
        {"op": "simulate"},                                # no target
        {"op": "simulate", "bench": "crc", "source": "x"},  # both
        {"op": "simulate", "bench": "no-such-bench"},
        {"op": "simulate", "bench": "gen:notanumber"},
        {"op": "wcet", "bench": "crc", "config": {"nope": 1}},
        {"op": "wcet", "bench": "crc", "config": {"alloc": "magic"}},
        {"op": "wcet", "bench": "crc", "config": {"cache": -4}},
        {"op": "wcet", "bench": "crc",
         "config": {"spm": 256, "l2": 1024}},     # an L2 needs an L1
        {"op": "sweep", "bench": "crc", "sizes": []},
        {"op": "sweep", "bench": "crc", "sizes": [100]},   # not 2^n
        {"op": "grid", "bench": "crc", "sizes": [256]},    # no assocs
        {"op": "sleep", "seconds": -1},
        {"op": "sleep", "seconds": 1e9},
        # Cache geometries no cache can have (not divisible, zero
        # line or ways, negative ways, a grid cell of 3 ways).
        {"op": "simulate", "bench": "crc", "config": {"cache": 100}},
        {"op": "wcet", "bench": "crc", "config": {"cache": 256, "line": 0}},
        {"op": "wcet", "bench": "crc",
         "config": {"cache": 256, "assoc": 0}},
        {"op": "sweep", "bench": "crc", "sizes": [256], "assoc": -2},
        {"op": "grid", "bench": "crc", "sizes": [256], "assocs": [3]},
        # Fields the workers cannot evaluate, or would read wrongly: a
        # float or bool geometry, a config that is not an object, and
        # flags that are not booleans.
        {"op": "sweep", "bench": "crc", "sizes": [256], "assoc": 2.0},
        {"op": "grid", "bench": "crc", "sizes": [256], "assocs": [1],
         "line": True},
        {"op": "simulate", "bench": "crc", "config": []},
        {"op": "wcet", "bench": "crc", "config": 0},
        {"op": "wcet", "bench": "crc", "config": {"cache": 256},
         "persistence": "no"},
        {"op": "sweep", "bench": "crc", "sizes": [256], "unified": 0},
        {"op": "sweep", "bench": "crc", "sizes": [256],
         "persistence": 1},
        {"op": "grid", "bench": "crc", "sizes": [256], "assocs": [1],
         "icache": "yes"},
        {"op": "simulate", "bench": "crc",
         "config": {"cache": 256, "icache": "no"}},
    ])
    def test_malformed_requests_rejected(self, request_):
        with pytest.raises(ProtocolError):
            canonical_request(request_)

    def test_wire_roundtrip(self):
        message = {"op": "ping", "id": 7}
        assert decode(encode(message)) == message
        with pytest.raises(ProtocolError):
            decode(b"\x00<<not-json>>\xff\n")
        with pytest.raises(ProtocolError):
            decode(b"[1,2,3]\n")

    def test_repro_command_reruns_the_request(self, capsys):
        canonical = canonical_request({"op": "sleep", "seconds": 0})
        command = repro_command(canonical)
        assert "rerun_request" in command
        assert "PYTHONPATH=src" in command
        rerun_request(json.dumps(canonical))
        printed = json.loads(capsys.readouterr().out)
        assert printed == evaluate_request(canonical)
        # The printed line pastes into a shell as it stands.
        pasted = subprocess.run(
            ["sh", "-c", command.replace("python", sys.executable, 1)],
            cwd=REPO, capture_output=True, text=True, timeout=60)
        assert pasted.returncode == 0, pasted.stderr
        assert json.loads(pasted.stdout) == printed

    @pytest.mark.parametrize("config", [
        {"spm": 256}, {"spm": 256, "alloc": "wcet"}],
        ids=["energy", "wcet"])
    def test_scratchpad_simulate_runs_no_wcet(self, config, monkeypatch):
        # A simulate is priced without the analysis a wcet op needs.
        from repro import workflow
        from repro.benchmarks import get
        from repro.serve.protocol import system_config

        calls = []
        analyze = workflow.analyze_wcet
        monkeypatch.setattr(
            workflow, "analyze_wcet",
            lambda *args, **kwargs: calls.append(args) or analyze(
                *args, **kwargs))
        request = canonical_request(
            {"op": "simulate", "bench": "crc", "config": config})
        got = evaluate_request(request)
        assert calls == []
        # What config_point's simulation gives, from a fresh workflow.
        sim = workflow.Workflow(get("crc").source()).config_point(
            system_config(config), method=config.get("alloc",
                                                     "energy")).sim
        assert got == {"config": "spm256", "cycles": sim.cycles,
                       "instructions": sim.instructions,
                       "exit_code": sim.exit_code}


# --------------------------------------------------------------------------
# The client: addresses and the reconnect backoff schedule
# --------------------------------------------------------------------------

class TestAddressScheme:
    def test_unix_scheme_and_bare_path(self, daemon_factory):
        daemon = daemon_factory(workers=1)
        for address in (daemon.socket_path, f"unix:{daemon.socket_path}"):
            with ServeClient(address, timeout=10.0) as client:
                assert client.ping()["pong"] is True

    @pytest.mark.parametrize("bad", [
        "", None, "unix:", "tcp://", "tcp://host", "tcp://:123",
        "tcp://host:port", "http://x:1",
    ])
    def test_malformed_addresses_raise(self, bad):
        with pytest.raises(ValueError):
            ServeClient(bad)

    def test_tcp_address_rejected_without_connecting(self):
        # The constructor does no I/O, so raising there proves no
        # connection was tried.
        with pytest.raises(ValueError,
                           match=re.escape("tcp://127.0.0.1:1")):
            ServeClient("tcp://127.0.0.1:1")


class TestReconnectDelay:
    def test_schedule_is_exponential_then_capped(self):
        delays = [reconnect_delay(attempt, base=0.05, cap=0.5,
                                  jitter=0)
                  for attempt in range(1, 7)]
        assert delays == [0.05, 0.1, 0.2, 0.4, 0.5, 0.5]

    def test_jitter_is_bounded_by_its_cap(self):
        class FullJitter:
            @staticmethod
            def random():
                return 1.0

        worst = reconnect_delay(50, base=0.05, cap=0.5, jitter=0.1,
                                rng=FullJitter)
        assert worst == pytest.approx(0.6)
        for _ in range(100):
            delay = reconnect_delay(3, base=0.05, cap=0.5, jitter=0.1)
            assert 0.2 <= delay <= 0.3 + 1e-9

    def test_attempt_floor(self):
        assert reconnect_delay(0, jitter=0) == \
            reconnect_delay(1, jitter=0)


# --------------------------------------------------------------------------
# The daemon in-process: dedup, backpressure, deadlines, recovery
# --------------------------------------------------------------------------

class TestServeDaemon:
    def test_ping_and_stats_inline(self, daemon_factory):
        daemon = daemon_factory(workers=1)
        with ServeClient(daemon.socket_path) as client:
            ping = client.ping()
            assert ping["protocol"] == 1
            stats = client.stats()
        assert stats["workers"] == 1
        assert stats["counters"]["requests"] >= 2
        assert stats["counters"]["computed"] == 0  # inline ops only

    def test_identical_concurrent_requests_compute_once(
            self, daemon_factory):
        daemon = daemon_factory(workers=2)
        responses = []

        def one_request():
            with ServeClient(daemon.socket_path) as client:
                responses.append(
                    client.response("sleep", seconds=0.4))

        threads = [threading.Thread(target=one_request)
                   for _ in range(6)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(30)
        assert len(responses) == 6
        assert all(r["ok"] for r in responses)
        assert all(r["result"] == {"slept": 0.4} for r in responses)
        served = sorted(r["served"] for r in responses)
        assert served.count("computed") == 1
        assert daemon.counters["computed"] == 1
        assert (daemon.counters["coalesced"]
                + daemon.counters["memo_hits"]) == 5
        # A latecomer is answered from the bounded memo.
        with ServeClient(daemon.socket_path) as client:
            late = client.response("sleep", seconds=0.4)
        assert late["served"] == "memo"
        assert late["result"] == responses[0]["result"]

    def test_backpressure_sheds_when_queue_full(self, daemon_factory):
        daemon = daemon_factory(workers=1, queue_depth=1,
                                retry_after=0.2)
        occupier = threading.Thread(
            target=lambda: ServeClient(daemon.socket_path)
            .call("sleep", seconds=1.0))
        occupier.start()
        deadline = time.monotonic() + 5.0
        while not daemon.counters["computed"]:
            assert time.monotonic() < deadline
            time.sleep(0.01)
        with ServeClient(daemon.socket_path,
                         retry_overloaded=False) as client:
            with pytest.raises(ServeError) as shed:
                client.call("sleep", seconds=0.9)
        assert shed.value.kind == "overloaded"
        assert shed.value.retry_after == 0.2
        assert daemon.counters["sheds"] == 1
        occupier.join(30)
        # With retry_overloaded on, the same request eventually lands.
        with ServeClient(daemon.socket_path) as client:
            assert client.call("sleep", seconds=0.9) == {"slept": 0.9}

    def test_deadline_expires_waiter_not_work(self, daemon_factory):
        daemon = daemon_factory(workers=1)
        with ServeClient(daemon.socket_path) as client:
            with pytest.raises(ServeError) as expired:
                client.call("sleep", seconds=1.0, deadline=0.2)
            assert expired.value.kind == "deadline"
            assert "rerun_request" in expired.value.repro
            # The computation kept running; a patient waiter gets it.
            patient = client.response("sleep", seconds=1.0)
        assert patient["ok"]
        assert patient["served"] in ("coalesced", "memo")
        assert daemon.counters["deadline_expired"] == 1
        assert daemon.counters["computed"] == 1

    def test_invalid_deadline_rejected(self, daemon_factory):
        daemon = daemon_factory(workers=1)
        with ServeClient(daemon.socket_path) as client:
            with pytest.raises(ServeError) as rejected:
                client.call("sleep", seconds=0, deadline="soon")
        assert rejected.value.kind == "invalid"

    def test_invalid_request_never_queued(self, daemon_factory):
        daemon = daemon_factory(workers=1)
        with ServeClient(daemon.socket_path) as client:
            with pytest.raises(ServeError) as rejected:
                client.call("simulate", bench="no-such-bench")
        assert rejected.value.kind == "invalid"
        assert daemon.counters["invalid"] == 1
        assert daemon.counters["computed"] == 0

    def test_worker_crash_recovers_and_answers(
            self, daemon_factory, tmp_path, monkeypatch):
        # The first unit any worker runs kills that worker outright
        # (at most once globally); supervision must rebuild the pool,
        # re-run the unit, and still answer this request correctly.
        monkeypatch.setenv(
            "REPRO_FAULT_UNIT",
            f"crash@1@{tmp_path / 'crash.once'}")
        daemon = daemon_factory(workers=2)
        with ServeClient(daemon.socket_path) as client:
            assert client.call("sleep", seconds=0.1) == {"slept": 0.1}
        supervisor = daemon.stats()["supervisor"]
        assert supervisor["crashes"] >= 1
        assert supervisor["rebuilds"] >= 1
        assert daemon.counters["ok"] >= 1

    def test_failed_unit_reports_attempts_and_repro(
            self, daemon_factory, monkeypatch):
        monkeypatch.setenv("REPRO_FAULT_UNIT", "raise@1+")
        daemon = daemon_factory(workers=1, retries=1, backoff=0.01)
        with ServeClient(daemon.socket_path) as client:
            with pytest.raises(ServeError) as failed:
                client.call("sleep", seconds=0)
        assert failed.value.kind == "failed"
        assert failed.value.attempts == 2  # one try + one retry
        assert "rerun_request" in failed.value.repro
        assert daemon.counters["failed"] == 1

    def test_live_socket_is_not_stolen(self, daemon_factory):
        daemon = daemon_factory(workers=1)
        usurper = ServeDaemon(daemon.socket_path, workers=1)
        with pytest.raises(RuntimeError, match="live daemon"):
            usurper.start()
        # The original daemon is unharmed.
        with ServeClient(daemon.socket_path) as client:
            assert client.ping()["protocol"] == 1


# --------------------------------------------------------------------------
# Injected transport faults: the client survives the daemon's worst
# --------------------------------------------------------------------------

class TestServeTransportFaults:
    def test_garbage_lines_are_skipped(self, daemon_factory,
                                       monkeypatch):
        daemon = daemon_factory(workers=1)
        monkeypatch.setenv("REPRO_FAULT_SERVE", "garbage@1+")
        with ServeClient(daemon.socket_path) as client:
            for _ in range(3):
                assert client.call("sleep", seconds=0) == {"slept": 0.0}

    def test_dropped_response_resends_and_coalesces(
            self, daemon_factory, monkeypatch):
        daemon = daemon_factory(workers=1)
        monkeypatch.setenv("REPRO_FAULT_SERVE", "drop@1")
        with ServeClient(daemon.socket_path) as client:
            assert client.call("sleep", seconds=0.3) == {"slept": 0.3}
        # The resend after EOF found the first attempt's computation.
        assert daemon.counters["computed"] == 1
        assert (daemon.counters["coalesced"]
                + daemon.counters["memo_hits"]) >= 1

    def test_unreachable_daemon_raises_transport_error(self, tmp_path):
        client = ServeClient(str(tmp_path / "nobody.sock"))
        with pytest.raises(ServeTransportError):
            client.ping()

    def test_backoff_sleeps_only_between_attempts(self, tmp_path):
        address = str(tmp_path / "nobody.sock")

        def seconds_to_give_up(**kwargs):
            client = ServeClient(address, jitter=0, **kwargs)
            began = time.monotonic()
            with pytest.raises(ServeTransportError):
                client.ping()
            return time.monotonic() - began

        # One attempt: nothing is left to wait for once it fails.
        assert seconds_to_give_up(max_retries=0, backoff=2.0,
                                  backoff_cap=2.0) < 1.0
        # Two attempts: one backoff, between them.
        assert 0.4 <= seconds_to_give_up(max_retries=1, backoff=0.4,
                                         backoff_cap=0.4) < 0.7

    def test_stall_past_client_timeout_raises(self, daemon_factory,
                                              monkeypatch):
        daemon = daemon_factory(workers=1)
        monkeypatch.setenv("REPRO_FAULT_SERVE", "stall@1")
        client = ServeClient(daemon.socket_path, timeout=0.1,
                             max_retries=0)
        began = time.monotonic()
        with pytest.raises(ServeTransportError):
            client.ping()
        assert time.monotonic() - began < 5.0  # the timeout, no hang
        client.close()

    def test_serve_fault_drop_holds_across_forked_workers(
            self, daemon_factory, monkeypatch):
        """``@n`` counts the daemon's responses: evaluations run in
        forked workers, but the n-th response written is still the
        n-th, so ``drop@2`` costs exactly one reconnect."""
        daemon = daemon_factory(workers=2)
        monkeypatch.setenv("REPRO_FAULT_SERVE", "drop@2")
        reset_fault_counters()
        client = ServeClient(daemon.socket_path, timeout=30.0,
                             max_retries=4, jitter=0)
        assert client.call("sleep", seconds=0.05) == {"slept": 0.05}
        assert client.call("sleep", seconds=0.06) == {"slept": 0.06}
        assert client.counters["client_reconnects"] == 1
        client.close()


# --------------------------------------------------------------------------
# Served answers are byte-identical to direct Workflow evaluation
# --------------------------------------------------------------------------

class TestServedEqualsDirect:
    def test_wcet_simulate_compile_match_direct(self, daemon_factory):
        from repro.experiments.common import workflow_for
        from repro.serve.protocol import system_config

        daemon = daemon_factory(workers=2, warm=("crc",))
        requests = [
            {"op": "compile", "bench": "crc"},
            {"op": "simulate", "bench": "crc"},
            {"op": "wcet", "bench": "crc", "config": {"cache": 256}},
            {"op": "compile", "source": TINY_SOURCE},
        ]
        with ServeClient(daemon.socket_path) as client:
            served = [client.call(r["op"], **{k: v
                                              for k, v in r.items()
                                              if k != "op"})
                      for r in requests]
        direct = [evaluate_request(canonical_request(r))
                  for r in requests]
        for request, got, want in zip(requests, served, direct):
            assert (json.dumps(got, sort_keys=True)
                    == json.dumps(want, sort_keys=True)), request
        # And against the Workflow API itself, not just the worker's
        # wrapping of it.
        workflow = workflow_for("crc")
        assert served[0] == {
            "content_key": workflow.baseline_image().content_key()}
        point = workflow.config_point(
            system_config({"cache": 256}), False)
        assert served[2] == point.row()

    @pytest.mark.parametrize("config", [
        {"spm": 256, "cache": 512, "hybrid": True, "l2": 2048},
        {"spm": 256, "cache": 512, "hybrid": True, "dcache": 256},
    ], ids=["spm+l1+l2", "spm+split"])
    def test_scratchpad_behind_deeper_caches_is_served(self, daemon_factory,
                                                      config):
        daemon = daemon_factory(workers=1, warm=("crc",))
        requests = [{"op": op, "bench": "crc", "config": config}
                    for op in ("wcet", "simulate")]
        with ServeClient(daemon.socket_path) as client:
            wcet, sim = [client.call(r["op"], **{k: v
                                                 for k, v in r.items()
                                                 if k != "op"})
                         for r in requests]
        for request, got in zip(requests, (wcet, sim)):
            want = evaluate_request(canonical_request(request))
            assert (json.dumps(got, sort_keys=True)
                    == json.dumps(want, sort_keys=True)), request
        assert wcet["wcet_cycles"] >= wcet["sim_cycles"] == sim["cycles"]

    def test_sweep_and_grid_match_direct(self, daemon_factory):
        daemon = daemon_factory(workers=2, warm=("crc",))
        requests = [
            {"op": "sweep", "bench": "crc", "sizes": [128, 256]},
            {"op": "grid", "bench": "crc", "sizes": [128, 256],
             "assocs": [1, 2]},
        ]
        with ServeClient(daemon.socket_path) as client:
            served = [client.call(r["op"], **{k: v
                                              for k, v in r.items()
                                              if k != "op"})
                      for r in requests]
        for request, got in zip(requests, served):
            want = evaluate_request(canonical_request(request))
            assert (json.dumps(got, sort_keys=True)
                    == json.dumps(want, sort_keys=True)), request


# --------------------------------------------------------------------------
# The real entry points: SIGTERM drain + the load generator
# --------------------------------------------------------------------------

def _spawn_serve_cli(socket_path, *extra):
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    process = subprocess.Popen(
        [sys.executable, "-m", "repro.serve.cli",
         "--socket", str(socket_path), "--workers", "1",
         "--cache-dir", "none", *extra],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
        text=True, env=env)
    client = ServeClient(str(socket_path), timeout=30.0)
    deadline = time.monotonic() + 60.0
    while True:
        try:
            client.ping()
            return process, client
        except (ServeTransportError, OSError):
            if (process.poll() is not None
                    or time.monotonic() > deadline):
                process.kill()
                raise RuntimeError(
                    f"daemon never came up: {process.stdout.read()}")
            time.sleep(0.05)


class TestSigtermDrain:
    def test_sigterm_drains_inflight_and_exits_zero(self, tmp_path):
        process, client = _spawn_serve_cli(tmp_path / "drain.sock")
        try:
            inflight = {}

            def slow_request():
                inflight["response"] = client.response(
                    "sleep", seconds=1.5)

            waiter = threading.Thread(target=slow_request)
            waiter.start()
            # Make sure the request is admitted before the signal.
            probe = ServeClient(str(tmp_path / "drain.sock"))
            deadline = time.monotonic() + 10.0
            while not probe.stats()["counters"]["computed"]:
                assert time.monotonic() < deadline
                time.sleep(0.05)
            probe.close()
            process.send_signal(signal.SIGTERM)
            waiter.join(30)
            # The in-flight request was answered, not abandoned.
            assert inflight["response"]["ok"]
            assert inflight["response"]["result"] == {"slept": 1.5}
            assert process.wait(timeout=30) == 0
        finally:
            client.close()
            if process.poll() is None:
                process.kill()
        output = process.stdout.read()
        assert "repro-serve: draining" in output
        assert "final stats" in output
        # The socket was removed on the way out.
        assert not os.path.exists(tmp_path / "drain.sock")


def _live_group_members(pgid):
    """Pids of the processes in group *pgid* that are not yet dead.

    Zombies count as dead: a killed daemon's forked worker is
    re-parented to init, which reaps it whenever it gets to it.
    """
    members = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as stat:
                fields = stat.read().rsplit(")", 1)[1].split()
        except OSError:
            continue  # exited while we looked
        state, group = fields[0], int(fields[2])
        if group == pgid and state not in ("Z", "X"):
            members.append(int(entry))
    return members


def _assert_groups_die(pgids, seconds=10.0):
    """Every member of every group in *pgids* dies within *seconds*."""
    if not os.path.isdir("/proc"):
        return  # no cheap way to list a group's members here
    survivors = {pgid: _live_group_members(pgid) for pgid in pgids}
    deadline = time.monotonic() + seconds
    while any(survivors.values()) and time.monotonic() < deadline:
        time.sleep(0.05)
        survivors = {pgid: _live_group_members(pgid)
                     for pgid in survivors}
    assert not any(survivors.values()), survivors


class TestStartFailure:
    def test_failed_start_exits_without_residue(self, tmp_path):
        """A socket path over the AF_UNIX limit fails ``bind`` after
        the pool has forked its worker.  ``repro-serve`` must still
        exit 2 at once, leaving no lock file and no live process."""
        socket_path = str(tmp_path / ("s" * 110))
        env = dict(os.environ)
        env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
        # Its own session, so the check and the cleanup reach the
        # forked worker as well as the daemon.
        process = subprocess.Popen(
            [sys.executable, "-m", "repro.serve.cli",
             "--socket", socket_path, "--workers", "1",
             "--cache-dir", "none"],
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
            text=True, env=env, start_new_session=True)
        try:
            output, _ = process.communicate(timeout=30)
        except subprocess.TimeoutExpired:
            output = None
        try:
            assert output is not None, "repro-serve hung after start"
            assert process.returncode == 2, output
            assert "repro-serve:" in output
            assert not os.path.exists(socket_path + ".lock")
            _assert_groups_die([process.pid])
        finally:
            try:
                os.killpg(process.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass  # the whole group has exited already
            if output is None:
                process.communicate()


# --------------------------------------------------------------------------
# Socket-claim lockfile (two racing subprocesses)
# --------------------------------------------------------------------------

CLAIM_RACER = r"""
import sys
sys.path.insert(0, {src!r})
from repro.serve.daemon import ServeDaemon

daemon = ServeDaemon({path!r}, workers=1, cache_dir=None)
try:
    daemon.start()
except RuntimeError:
    print("LOST", flush=True)
    sys.exit(21)
print("WON", flush=True)
import time
time.sleep(30)
"""


class TestSocketClaimRace:
    def test_two_racers_one_socket_exactly_one_wins(self, tmp_path):
        """Two daemons starting concurrently on one dead socket path
        must never both bind: the flock claim makes exactly one win,
        every time."""
        socket_path = str(tmp_path / "contested.sock")
        # A stale socket file from a "crashed" daemon sweetens the race:
        # both racers must decide it is dead and try to take the path.
        stale = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        stale.bind(socket_path)
        stale.close()  # bound then closed: path exists, nobody listens
        script = CLAIM_RACER.format(src=SRC, path=socket_path)
        # Each racer leads its own process group, so cleanup reaches
        # the worker its daemon forks as well as the racer itself.
        racers = [subprocess.Popen([sys.executable, "-c", script],
                                   stdout=subprocess.PIPE,
                                   stderr=subprocess.STDOUT, text=True,
                                   start_new_session=True)
                  for _ in range(2)]
        verdicts = {}
        deadline = time.monotonic() + 60.0
        try:
            while len(verdicts) < 2 and time.monotonic() < deadline:
                for index, racer in enumerate(racers):
                    if index in verdicts or racer.stdout is None:
                        continue
                    line = racer.stdout.readline().strip()
                    if line:
                        verdicts[index] = line
            assert sorted(verdicts.values()) == ["LOST", "WON"], \
                f"verdicts: {verdicts}"
            winner = [racers[i] for i, v in verdicts.items()
                      if v == "WON"][0]
            loser = [racers[i] for i, v in verdicts.items()
                     if v == "LOST"][0]
            assert loser.wait(timeout=30) == 21
            # The winner holds the lock and actually serves.
            with ServeClient(socket_path, timeout=10.0) as client:
                assert client.ping()["pong"] is True
            assert os.path.exists(socket_path + ".lock")
            assert winner.poll() is None
        finally:
            for racer in racers:
                try:
                    os.killpg(racer.pid, signal.SIGKILL)
                except ProcessLookupError:
                    pass  # the whole group has exited already
                racer.wait()
                racer.stdout.close()
        _assert_groups_die([racer.pid for racer in racers])

    def test_lock_released_after_drain(self, tmp_path):
        socket_path = str(tmp_path / "reusable.sock")
        for _ in range(2):  # claim, drain, claim again: no residue
            daemon = ServeDaemon(socket_path, workers=1,
                                 cache_dir=None)
            daemon.start()
            daemon.drain(timeout=10.0)
            assert not os.path.exists(socket_path)
            assert not os.path.exists(socket_path + ".lock")


# --------------------------------------------------------------------------
# repro-cc cache stats --daemon
# --------------------------------------------------------------------------

class TestCliSurfaces:
    def test_cache_stats_over_daemon_socket(self, daemon_factory,
                                            capsys):
        from repro.cli import main
        daemon = daemon_factory(workers=1)
        rc = main(["cache", "stats", "--daemon",
                   f"unix:{daemon.socket_path}"])
        out = capsys.readouterr().out
        assert rc == 0
        assert f"# daemon: {daemon.socket_path} " in out
        assert "# requests:" in out

    def test_cache_stats_daemon_failure_is_reported(self):
        from repro.cli import main
        with pytest.raises(SystemExit, match="cache: .*tcp://"):
            main(["cache", "stats", "--daemon", "tcp://127.0.0.1:1"])


class TestLoadGenerator:
    def test_quick_load_with_faults_verifies_and_drains(
            self, monkeypatch):
        # The CI smoke in miniature: a fault-slice load run whose every
        # response must verify byte-identical to direct evaluation.
        from repro.serve import loadgen
        monkeypatch.setenv("REPRO_FAULT_SERVE", "garbage@5+")
        args = loadgen.build_parser().parse_args(
            ["--requests", "30", "--clients", "3", "--benches", "crc",
             "--workers", "2", "--seed", "99"])
        exit_code, metrics, failures = loadgen.run_load(args)
        assert failures == []
        assert exit_code == 0
        assert metrics["ok"] == 30
        assert metrics["daemon_exit_code"] == 0
        assert metrics["distinct_keys_verified"] >= 1
