"""Multi-host serving: transport, cluster client, sharded store (PR 10).

The cluster tier's invariant extends the serving one: **whatever
subset of daemons is reachable, every answer a client completes is
byte-identical to direct evaluation** — routed by rendezvous hash,
failed over past dead or resetting daemons, optionally hedged, and
backed by an artifact store sharded over the same hash.  Around that
sit the new robustness seams ISSUE 10 pins down:

* the ``unix:``/``tcp://`` address scheme and the HMAC-SHA256
  challenge/response gate (unauthenticated TCP peers are shed before
  the worker pool sees them);
* :class:`~repro.serve.cluster.ClusterClient` routing, health-probed
  failover and tail hedging;
* :class:`~repro.store.ShardedArtifactStore` placement, read-through
  peer fallback, read-repair, write-behind replication and per-shard
  quarantine;
* ``REPRO_FAULT_NET`` chaos (refuse / partition / slow / reset) and
  the per-process fault-counter reset across forked TCP daemon
  workers;
* the flock-based socket claim (two daemons racing one path).
"""

import json
import os
import signal
import socket
import subprocess
import sys
import time

import pytest

from repro.serve.client import (
    ServeClient,
    ServeError,
    ServeTransportError,
    reconnect_delay,
)
from repro.serve.cluster import ClusterClient
from repro.serve.daemon import ServeDaemon
from repro.serve.protocol import canonical_request, request_key
from repro.serve.transport import (
    AddressError,
    AuthError,
    auth_digest,
    format_address,
    load_auth_key,
    parse_address,
)
from repro.serve.worker import evaluate_request
from repro.store import ArtifactStore, ShardedArtifactStore, rendezvous_rank
from repro.testing.faults import corrupt_file, reset_fault_counters

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(REPO, "src")

KEY = b"test-cluster-secret"

TINY_SOURCE = """
int main(void) {
    int i; int acc = 0;
    for (i = 0; i < 8; i = i + 1) acc = acc + i;
    return acc & 255;
}
"""


@pytest.fixture(autouse=True)
def _no_leftover_faults(monkeypatch):
    monkeypatch.delenv("REPRO_FAULT_STORE_WRITE", raising=False)
    monkeypatch.delenv("REPRO_FAULT_UNIT", raising=False)
    monkeypatch.delenv("REPRO_FAULT_SERVE", raising=False)
    monkeypatch.delenv("REPRO_FAULT_NET", raising=False)
    reset_fault_counters()
    yield
    reset_fault_counters()


@pytest.fixture
def tcp_daemon_factory():
    """In-process TCP daemons on kernel-assigned ports."""
    daemons = []

    def spawn(**kwargs):
        kwargs.setdefault("workers", 1)
        kwargs.setdefault("cache_dir", None)
        daemon = ServeDaemon(None, listen="127.0.0.1:0", auth_key=KEY,
                             **kwargs)
        daemon.start()
        daemons.append(daemon)
        return daemon

    yield spawn
    for daemon in daemons:
        daemon.drain(timeout=10.0)


def _tcp_address(daemon) -> str:
    return format_address("tcp", daemon.tcp_address)


# ---------------------------------------------------------------------------
# Address scheme


class TestAddressScheme:
    def test_unix_scheme_and_bare_path(self):
        assert parse_address("unix:/tmp/a.sock") == \
            ("unix", "/tmp/a.sock")
        assert parse_address("/tmp/a.sock") == ("unix", "/tmp/a.sock")
        assert parse_address("relative.sock") == \
            ("unix", "relative.sock")

    def test_tcp_scheme(self):
        assert parse_address("tcp://127.0.0.1:9000") == \
            ("tcp", ("127.0.0.1", 9000))

    @pytest.mark.parametrize("bad", [
        "", None, "unix:", "tcp://", "tcp://host", "tcp://:123",
        "tcp://host:port", "http://x:1",
    ])
    def test_malformed_addresses_raise(self, bad):
        with pytest.raises(AddressError):
            parse_address(bad)

    def test_format_roundtrips(self):
        for address in ("unix:/tmp/a.sock", "tcp://127.0.0.1:9000"):
            assert format_address(*parse_address(address)) == address


# ---------------------------------------------------------------------------
# Rendezvous hashing


class TestRendezvousRank:
    NODES = ["tcp://10.0.0.1:1", "tcp://10.0.0.2:1", "tcp://10.0.0.3:1"]

    def test_deterministic_and_order_independent(self):
        keys = [f"key-{index}" for index in range(50)]
        shuffled = list(reversed(self.NODES))
        for key in keys:
            ranked = rendezvous_rank(key, self.NODES)
            assert ranked == rendezvous_rank(key, self.NODES)
            assert ranked == rendezvous_rank(key, shuffled)
            assert sorted(ranked) == sorted(self.NODES)

    def test_spreads_keys(self):
        owners = {rendezvous_rank(f"key-{index}", self.NODES)[0]
                  for index in range(100)}
        assert owners == set(self.NODES)

    def test_minimal_disruption_on_node_loss(self):
        """Removing one node only moves the keys it owned (HRW)."""
        lost = self.NODES[1]
        survivors = [node for node in self.NODES if node != lost]
        for index in range(100):
            key = f"key-{index}"
            before = rendezvous_rank(key, self.NODES)[0]
            after = rendezvous_rank(key, survivors)[0]
            if before != lost:
                assert after == before
            else:
                assert after in survivors


# ---------------------------------------------------------------------------
# Reconnect backoff schedule


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


# ---------------------------------------------------------------------------
# Authenticated TCP transport


class TestTcpAuth:
    def test_authenticated_round_trip_and_byte_identity(
            self, tcp_daemon_factory):
        daemon = tcp_daemon_factory()
        request = {"op": "simulate", "source": TINY_SOURCE}
        with ServeClient(_tcp_address(daemon), timeout=60.0,
                         auth_key=KEY) as client:
            assert client.ping()["pong"] is True
            served = client.call(**request)
        direct = evaluate_request(canonical_request(request))
        assert json.dumps(served, sort_keys=True) == \
            json.dumps(direct, sort_keys=True)
        assert daemon.counters["auth_ok"] >= 1
        assert daemon.counters["auth_failed"] == 0

    def test_wrong_key_is_rejected_before_the_pool(
            self, tcp_daemon_factory):
        daemon = tcp_daemon_factory()
        client = ServeClient(_tcp_address(daemon), timeout=10.0,
                             auth_key=b"not-the-key", max_retries=3)
        with pytest.raises(AuthError):
            client.ping()
        client.close()
        assert daemon.counters["auth_failed"] == 1  # never retried
        assert daemon.counters["requests"] == 0
        assert daemon._pool.counters["submitted"] == 0

    def test_missing_key_fails_fast_with_a_hint(
            self, tcp_daemon_factory):
        daemon = tcp_daemon_factory()
        client = ServeClient(_tcp_address(daemon), timeout=10.0)
        with pytest.raises(AuthError, match="requires authentication"):
            client.ping()
        client.close()

    def test_garbage_during_handshake_is_shed(self, tcp_daemon_factory):
        daemon = tcp_daemon_factory()
        raw = socket.create_connection(daemon.tcp_address, timeout=10.0)
        try:
            raw.sendall(b'{"auth": "response", "digest": "beef"}\n')
            deadline = time.monotonic() + 10.0
            while time.monotonic() < deadline:
                if not raw.recv(4096):
                    break
        finally:
            raw.close()
        deadline = time.monotonic() + 5.0
        while time.monotonic() < deadline \
                and not daemon.counters["auth_failed"]:
            time.sleep(0.01)
        assert daemon.counters["auth_failed"] == 1
        assert daemon.counters["requests"] == 0

    def test_digest_is_keyed_hmac(self):
        nonce = "00" * 32
        assert auth_digest(b"a", nonce) != auth_digest(b"b", nonce)
        assert auth_digest(b"a", nonce) == auth_digest(b"a", nonce)

    def test_tcp_listen_requires_auth_key(self):
        with pytest.raises(ValueError, match="auth key"):
            ServeDaemon(None, listen="127.0.0.1:0")

    def test_daemon_needs_some_transport(self):
        with pytest.raises(ValueError):
            ServeDaemon(None)

    def test_load_auth_key_strips_and_rejects_empty(self, tmp_path):
        path = tmp_path / "key"
        path.write_bytes(b"  secret-bytes\n\n")
        assert load_auth_key(str(path)) == b"secret-bytes"
        (tmp_path / "empty").write_bytes(b" \n")
        with pytest.raises(AuthError):
            load_auth_key(str(tmp_path / "empty"))


# ---------------------------------------------------------------------------
# ClusterClient: routing, failover, hedging


class TestClusterClient:
    def _cluster(self, tcp_daemon_factory, count=2, **kwargs):
        daemons = [tcp_daemon_factory() for _ in range(count)]
        addresses = [_tcp_address(daemon) for daemon in daemons]
        client = ClusterClient(addresses, auth_key=KEY, timeout=60.0,
                               **kwargs)
        return daemons, addresses, client

    def test_validates_addresses(self):
        with pytest.raises(ValueError):
            ClusterClient([])
        with pytest.raises(ValueError):
            ClusterClient(["tcp://h:1", "tcp://h:1"])

    def test_routes_identical_requests_to_one_daemon(
            self, tcp_daemon_factory):
        daemons, addresses, client = self._cluster(tcp_daemon_factory)
        request = {"op": "sleep", "seconds": 0.01}
        with client:
            first = client.call(**request)
            second = client.call(**request)
        assert first == second
        owner = rendezvous_rank(
            request_key(canonical_request(request)), addresses)[0]
        owner_daemon = daemons[addresses.index(owner)]
        other = daemons[1 - addresses.index(owner)]
        # Both requests landed on the ranked owner: the second was a
        # memo hit there, and the peer saw no traffic at all.
        assert owner_daemon.counters["requests"] == 2
        assert owner_daemon.counters["memo_hits"] == 1
        assert other.counters["requests"] == 0

    def test_fails_over_to_surviving_daemon(self, tcp_daemon_factory):
        daemons, addresses, client = self._cluster(tcp_daemon_factory)
        # A request owned by daemon 0, found by scanning the keyspace.
        request = None
        for index in range(100):
            candidate = {"op": "sleep", "seconds": 0.01 + index / 1e4}
            key = request_key(canonical_request(candidate))
            if rendezvous_rank(key, addresses)[0] == addresses[0]:
                request = candidate
                break
        assert request is not None
        daemons[0].drain(timeout=10.0)  # the owner goes away
        with client:
            result = client.call(**request)
        assert result == evaluate_request(canonical_request(request))
        assert client.counters["client_failovers"] >= 1
        assert daemons[1].counters["ok"] >= 1
        assert addresses[0] not in client.healthy_addresses()

    def test_recovers_when_every_daemon_is_down_then_back(
            self, tcp_daemon_factory):
        daemon = tcp_daemon_factory()
        address = _tcp_address(daemon)
        client = ClusterClient([address], auth_key=KEY, timeout=10.0)
        assert client.ping()["pong"] is True
        daemon.drain(timeout=10.0)
        # The established connection still answers pings while the
        # daemon drains (health checks stay cheap); evaluation work is
        # rejected with ``draining``, which the cluster treats as the
        # daemon being gone.
        with pytest.raises(ServeTransportError):
            client.response("sleep", seconds=0.01)
        assert not client.healthy_addresses()
        client.close()

    def test_hedges_to_next_ranked_daemon(self, tcp_daemon_factory):
        daemons, addresses, client = self._cluster(
            tcp_daemon_factory, hedge_after=0.0)
        request = {"op": "sleep", "seconds": 0.2}
        with client:
            result = client.call(**request)
        assert result == {"slept": 0.2}
        assert client.counters["client_hedges"] >= 1
        # Purity makes the duplicate harmless: both daemons may have
        # answered, but any completed answer is the same bytes.
        total_ok = sum(d.counters["ok"] for d in daemons)
        assert total_ok >= 1

    def test_counters_aggregate_member_reconnects(
            self, tcp_daemon_factory):
        daemons, addresses, client = self._cluster(tcp_daemon_factory)
        with client:
            client.ping()
            merged = client.all_counters()
        assert set(merged) >= {"client_reconnects", "client_failovers",
                               "client_hedges", "client_probes"}

    def test_stats_reports_unreachable_daemons_as_none(
            self, tcp_daemon_factory):
        daemons, addresses, client = self._cluster(tcp_daemon_factory)
        daemons[1].drain(timeout=10.0)
        with client:
            stats = client.stats()
        assert stats[addresses[0]]["pid"] == os.getpid()
        assert stats[addresses[1]] is None


# ---------------------------------------------------------------------------
# Sharded artifact store


class TestShardedArtifactStore:
    def _roots(self, tmp_path, count=3):
        return [str(tmp_path / f"shard{index}") for index in range(count)]

    def test_validates_roots(self, tmp_path):
        with pytest.raises(ValueError):
            ShardedArtifactStore([])
        root = str(tmp_path / "a")
        with pytest.raises(ValueError):
            ShardedArtifactStore([root, root])

    def test_placement_follows_rendezvous_rank(self, tmp_path):
        roots = self._roots(tmp_path)
        store = ShardedArtifactStore(roots)
        try:
            for index in range(20):
                key = ("k", index)
                store.store(key, {"value": index})
                owner = store.ranked_for(key)[0]
                assert os.path.exists(store.path_for(key))
                assert store.path_for(key).startswith(owner)
                assert store.load(key) == {"value": index}
        finally:
            store.close()
        # With replicas=1 exactly one shard holds each key.
        singles = sum(ArtifactStore(root).stats()["entries"]
                      for root in roots)
        assert singles == 20

    def test_write_behind_replication(self, tmp_path):
        roots = self._roots(tmp_path, count=2)
        store = ShardedArtifactStore(roots, replicas=2)
        try:
            store.store(("replicated",), {"payload": 7})
            store.flush()
            for root in roots:
                assert ArtifactStore(root).load(("replicated",)) == \
                    {"payload": 7}
            assert store._extra["replica_writes"] == 1
        finally:
            store.close()

    def test_replicas_clamped_to_shard_count(self, tmp_path):
        store = ShardedArtifactStore(self._roots(tmp_path, 2),
                                     replicas=5)
        assert store.replicas == 2
        store.close()

    def test_read_through_peer_and_read_repair(self, tmp_path):
        roots = self._roots(tmp_path)
        store = ShardedArtifactStore(roots)
        try:
            key = ("migrated",)
            ranked = store.ranked_for(key)
            peer = ranked[1]  # not the owner
            ArtifactStore(peer).store(key, {"found": True})
            assert store.load(key) == {"found": True}
            assert store._extra["peer_hits"] == 1
            assert store._extra["read_repairs"] == 1
            # Repaired into the owner shard: the next load is local.
            assert ArtifactStore(ranked[0]).load(key) == {"found": True}
        finally:
            store.close()

    def test_corrupt_owner_copy_served_from_replica(self, tmp_path):
        """One corrupted replica quarantines locally; the value
        survives through the peer copy, byte-for-byte."""
        roots = self._roots(tmp_path, count=2)
        store = ShardedArtifactStore(roots, replicas=2)
        try:
            key = ("precious",)
            store.store(key, {"bytes": list(range(16))})
            store.flush()
            corrupt_file(store.path_for(key))  # the owner's copy
            assert store.load(key) == {"bytes": list(range(16))}
            owner_root = store.ranked_for(key)[0]
            owner = store.shard_for(key)
            assert owner.counters["corrupt"] == 1
            assert os.listdir(os.path.join(owner_root, "corrupt"))
            assert store.counters["corrupt"] == 1
            assert store._extra["peer_hits"] == 1
        finally:
            store.close()

    def test_missing_key_is_a_clean_miss(self, tmp_path):
        store = ShardedArtifactStore(self._roots(tmp_path))
        try:
            assert store.load(("absent",)) is None
        finally:
            store.close()

    def test_stats_aggregate_per_shard(self, tmp_path):
        roots = self._roots(tmp_path, count=2)
        store = ShardedArtifactStore(roots, replicas=2)
        try:
            for index in range(4):
                store.store(("s", index), index)
            store.flush()
            stats = store.stats()
            assert stats["shards"] == 2
            assert stats["replicas"] == 2
            assert stats["entries"] == 8  # 4 keys x 2 copies
            assert len(stats["shard_stats"]) == 2
        finally:
            store.close()


# ---------------------------------------------------------------------------
# Network chaos (REPRO_FAULT_NET) against live TCP daemons


class TestNetChaos:
    def test_refused_connections_are_counted_and_survived(
            self, tcp_daemon_factory, monkeypatch):
        daemon = tcp_daemon_factory()
        monkeypatch.setenv("REPRO_FAULT_NET", "refuse@1")
        reset_fault_counters()
        client = ServeClient(_tcp_address(daemon), timeout=10.0,
                             auth_key=KEY, max_retries=4, jitter=0)
        assert client.ping()["pong"] is True  # retried past the refuse
        client.close()
        assert daemon.counters["net_refused"] == 1
        assert daemon.counters["auth_ok"] >= 1

    def test_reset_mid_stream_fails_fast_and_recovers(
            self, tcp_daemon_factory, monkeypatch):
        daemon = tcp_daemon_factory()
        monkeypatch.setenv("REPRO_FAULT_NET", "reset@2")
        reset_fault_counters()
        client = ServeClient(_tcp_address(daemon), timeout=30.0,
                             auth_key=KEY, max_retries=4, jitter=0)
        assert client.call("sleep", seconds=0.01) == {"slept": 0.01}
        t0 = time.monotonic()
        # Response 2 is aborted; the resend must recover promptly from
        # the daemon's memo — never by waiting out the socket timeout.
        assert client.call("sleep", seconds=0.02) == {"slept": 0.02}
        assert time.monotonic() - t0 < 10.0
        assert client.counters["client_reconnects"] >= 1
        client.close()

    def test_partition_blackholes_until_client_timeout(
            self, tcp_daemon_factory, monkeypatch):
        daemon = tcp_daemon_factory()
        monkeypatch.setenv("REPRO_FAULT_NET", "partition@1+")
        reset_fault_counters()
        client = ServeClient(_tcp_address(daemon), timeout=0.5,
                             auth_key=KEY, max_retries=0)
        t0 = time.monotonic()
        with pytest.raises(ServeTransportError):
            client.ping()
        elapsed = time.monotonic() - t0
        assert 0.4 <= elapsed < 5.0  # the socket timeout, not a hang
        client.close()

    def test_slow_link_delays_but_answers(self, tcp_daemon_factory,
                                          monkeypatch):
        daemon = tcp_daemon_factory()
        monkeypatch.setenv("REPRO_FAULT_NET", "slow@1")
        reset_fault_counters()
        client = ServeClient(_tcp_address(daemon), timeout=30.0,
                             auth_key=KEY)
        t0 = time.monotonic()
        assert client.ping()["pong"] is True
        assert time.monotonic() - t0 >= 0.2
        client.close()

    def test_cluster_survives_one_resetting_daemon(
            self, tcp_daemon_factory, monkeypatch):
        """reset@1+ aborts every response write in this process — both
        in-process daemons share the counter, so the first transport
        error must fail over fast and the caller sees one structured
        error, never a hang."""
        daemons = [tcp_daemon_factory() for _ in range(2)]
        addresses = [_tcp_address(daemon) for daemon in daemons]
        client = ClusterClient(addresses, auth_key=KEY, timeout=5.0,
                               max_retries=1)
        assert client.ping()["pong"] is True
        monkeypatch.setenv("REPRO_FAULT_NET", "reset@1+")
        reset_fault_counters()
        t0 = time.monotonic()
        with pytest.raises(ServeTransportError):
            client.response("sleep", seconds=0.01)
        assert time.monotonic() - t0 < 60.0
        assert client.counters["client_failovers"] >= 1
        monkeypatch.delenv("REPRO_FAULT_NET")
        client.close()


# ---------------------------------------------------------------------------
# Fault counters across forked TCP daemon workers


class TestForkCounterIsolation:
    def test_net_counter_is_daemon_side_not_worker_side(
            self, tcp_daemon_factory, monkeypatch):
        """``@n`` counts the daemon's response writes.  The pool's
        forked workers (re-forked with inherited environment) must not
        consume or skew the count: evaluations run in workers, but the
        n-th *send* is still the n-th."""
        daemon = tcp_daemon_factory(workers=2)
        monkeypatch.setenv("REPRO_FAULT_NET", "reset@3")
        reset_fault_counters()
        client = ServeClient(_tcp_address(daemon), timeout=30.0,
                             auth_key=KEY, max_retries=4, jitter=0)
        # Two pool-evaluated requests: sends 1 and 2, clean.
        assert client.call("sleep", seconds=0.01) == {"slept": 0.01}
        assert client.call("sleep", seconds=0.02) == {"slept": 0.02}
        assert client.counters["client_reconnects"] == 0
        # Send 3 resets; the resend (send 4) serves from the memo.
        assert client.call("sleep", seconds=0.03) == {"slept": 0.03}
        assert client.counters["client_reconnects"] == 1
        # Send 5: past the one-shot trigger, clean again.
        assert client.call("sleep", seconds=0.04) == {"slept": 0.04}
        client.close()

    def test_serve_fault_drop_holds_for_inet_daemons(
            self, tcp_daemon_factory, monkeypatch):
        daemon = tcp_daemon_factory(workers=2)
        monkeypatch.setenv("REPRO_FAULT_SERVE", "drop@2")
        reset_fault_counters()
        client = ServeClient(_tcp_address(daemon), timeout=30.0,
                             auth_key=KEY, max_retries=4, jitter=0)
        assert client.call("sleep", seconds=0.05) == {"slept": 0.05}
        assert client.call("sleep", seconds=0.06) == {"slept": 0.06}
        assert client.counters["client_reconnects"] == 1
        client.close()


# ---------------------------------------------------------------------------
# Socket-claim lockfile (two racing subprocesses)


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


class TestSocketClaimRace:
    def test_two_racers_one_socket_exactly_one_wins(self, tmp_path):
        """Regression for the PR-9 probe-then-unlink race: two daemons
        starting concurrently on one dead socket path could both bind.
        The flock claim makes exactly one win, every time."""
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
        finally:
            for racer in racers:
                try:
                    os.killpg(racer.pid, signal.SIGKILL)
                except ProcessLookupError:
                    pass  # the whole group has exited already
                racer.wait()
                racer.stdout.close()
        if not os.path.isdir("/proc"):
            return  # no cheap way to list a group's members here
        survivors = {racer.pid: _live_group_members(racer.pid)
                     for racer in racers}
        deadline = time.monotonic() + 10.0
        while any(survivors.values()) and time.monotonic() < deadline:
            time.sleep(0.05)
            survivors = {pgid: _live_group_members(pgid)
                         for pgid in survivors}
        assert not any(survivors.values()), survivors

    def test_lock_released_after_drain(self, tmp_path):
        socket_path = str(tmp_path / "reusable.sock")
        for _ in range(2):  # claim, drain, claim again: no residue
            daemon = ServeDaemon(socket_path, workers=1,
                                 cache_dir=None)
            daemon.start()
            daemon.drain(timeout=10.0)
            assert not os.path.exists(socket_path)
            assert not os.path.exists(socket_path + ".lock")


# ---------------------------------------------------------------------------
# CLI surfaces: repro-cc cache stats --daemon tcp://, repro-serve --listen


class TestCliSurfaces:
    def test_cache_stats_over_tcp_daemon(self, tcp_daemon_factory,
                                         tmp_path, capsys):
        from repro.cli import main
        daemon = tcp_daemon_factory()
        key_path = tmp_path / "auth.key"
        key_path.write_bytes(KEY + b"\n")
        rc = main(["cache", "stats", "--daemon", _tcp_address(daemon),
                   "--auth-key", str(key_path)])
        out = capsys.readouterr().out
        assert rc == 0
        assert _tcp_address(daemon) in out

    def test_cache_stats_daemon_auth_failure_is_reported(
            self, tcp_daemon_factory, tmp_path, capsys):
        from repro.cli import main
        daemon = tcp_daemon_factory()
        key_path = tmp_path / "wrong.key"
        key_path.write_bytes(b"wrong\n")
        with pytest.raises(SystemExit) as failure:
            main(["cache", "stats", "--daemon", _tcp_address(daemon),
                  "--auth-key", str(key_path)])
        assert "cache:" in str(failure.value)

    def test_serve_cli_rejects_listen_without_key(self):
        from repro.serve.cli import main as serve_main
        rc = serve_main(["--socket", "none",
                         "--listen", "127.0.0.1:0"])
        assert rc == 2

    def test_serve_cli_rejects_no_transport(self):
        from repro.serve.cli import main as serve_main
        rc = serve_main(["--socket", "none"])
        assert rc == 2
