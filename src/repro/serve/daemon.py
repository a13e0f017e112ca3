"""The analysis-as-a-service daemon.

:class:`ServeDaemon` listens on a Unix-domain socket, speaks the
JSON-lines protocol of :mod:`repro.serve.protocol`, and answers every
evaluation op from a :class:`~repro.serve.supervisor.SupervisedPool`
of worker processes running :func:`repro.serve.worker.serve_unit`.
One connection handler thread per client; admission, dedup and the
result memo live behind one lock in the daemon process.

The robustness spine:

* **Dedup.**  Requests are keyed by :func:`~repro.serve.protocol.
  request_key` — the ``(content key, config)`` identity of the pure
  function being asked for.  A request whose key is already in flight
  coalesces onto the running computation (``served: "coalesced"``);
  one already answered within the bounded result memo is served from
  it (``served: "memo"``).  Only the first arrival pays.

* **Backpressure.**  At most ``queue_depth`` distinct computations may
  be admitted (queued or running) at once.  Beyond that, new keys are
  shed with a structured ``overloaded`` error carrying ``retry_after``
  seconds — clients back off instead of piling onto a daemon that is
  already behind.  Coalescing and memo hits are never shed: they cost
  no worker time.

* **Deadlines.**  A request may carry ``deadline`` seconds.  When the
  answer is not ready in time, the waiting client gets a ``deadline``
  error (with the repro command); the computation itself keeps running
  and lands in the memo for the retry.

* **Supervision.**  Worker crashes and hangs are detected, the pool is
  killed and rebuilt, and in-flight requests are re-enqueued without
  losing a retry attempt — the :class:`SupervisedPool` contract.  A
  request that exhausts its retry budget produces a ``failed`` error
  carrying the attempt count and the copy-pasteable repro command.

* **Graceful drain.**  :meth:`ServeDaemon.drain` (wired to SIGTERM by
  the CLI) stops admission — new computations are rejected with a
  ``draining`` error — waits for in-flight work under a deadline,
  publishes final stats, and tears the pool down.

* **One socket.**  The claim on the socket path is arbitrated by an
  exclusive lock file, so two daemons pointed at one path cannot both
  start, however exactly their startups interleave; filesystem
  permissions on the path gate who may connect.

``REPRO_FAULT_SERVE`` (see :mod:`repro.testing.faults`) injects
connection-layer faults — dropped, stalled or garbage-prefixed
responses — just before each response is written.
"""

from __future__ import annotations

import json
import os
import socket
import sys
import threading
import time
from concurrent.futures import TimeoutError as FutureTimeoutError

from .protocol import (
    PROTOCOL_VERSION,
    ProtocolError,
    canonical_request,
    encode,
    error_response,
    ok_response,
    repro_command,
    request_key,
)
from .supervisor import SupervisedPool, TaskFailure
from ..store import LRUCache

try:
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX platforms
    fcntl = None

#: Fresh daemon counter block (republished by the ``stats`` op).
SERVE_COUNTER_KEYS = (
    "connections", "requests", "ok", "computed", "coalesced",
    "memo_hits", "sheds", "deadline_expired", "failed", "invalid",
    "draining_rejected", "bad_lines",
)

#: How long a ``stall`` serve fault delays one response.
STALL_SECONDS = 0.25


class ServeDaemon:
    """One serving daemon instance (socket + pool + dedup state).

    Embeddable: tests construct it in-process and call
    :meth:`start` / :meth:`drain` directly; the ``repro-serve`` CLI
    wraps it with signal handling.
    """

    def __init__(self, socket_path, *, workers=2, queue_depth=32,
                 task_timeout=300.0, retries=2, backoff=0.25,
                 default_deadline=None, retry_after=0.05,
                 memo_capacity=1024, cache_dir=None, warm=()):
        self.socket_path = socket_path
        self.workers = max(1, int(workers))
        self.queue_depth = max(1, int(queue_depth))
        self.task_timeout = task_timeout
        self.retries = retries
        self.backoff = backoff
        self.default_deadline = default_deadline
        self.retry_after = retry_after
        self.cache_dir = cache_dir
        self.warm = tuple(warm)
        self.counters = dict.fromkeys(SERVE_COUNTER_KEYS, 0)
        self._memo = LRUCache(capacity=memo_capacity)
        self._inflight = {}  # request key -> Future
        self._lock = threading.Lock()
        self._draining = False
        self._active = 0  # requests currently being answered
        self._settled = threading.Condition(self._lock)
        self._pool = None
        self._listener = None
        self._lock_fd = None
        self._started = time.monotonic()

    # -- lifecycle -----------------------------------------------------------

    def start(self):
        """Claim the socket, build the pool, begin accepting clients.

        Any failure after the claim (an over-long socket path, say)
        tears down the pool and releases the claim before it
        propagates, so the caller is left with no forked worker to
        wait on and no lock file behind.
        """
        # Claim before building the pool: a losing racer exits
        # without having forked workers it must then tear down.
        self._claim_socket_path()
        try:
            if self.cache_dir:
                os.makedirs(os.path.join(self.cache_dir, "analysis"),
                            exist_ok=True)
                os.makedirs(os.path.join(self.cache_dir, "traces"),
                            exist_ok=True)
            # Pre-warm in the daemon process so fork-platform workers
            # inherit the compiled workflows instead of redoing them.
            from ..experiments.common import workflow_for
            for key in self.warm:
                workflow_for(key).warm()
            import multiprocessing
            try:
                context = multiprocessing.get_context("fork")
            except ValueError:
                context = multiprocessing.get_context()
            from .worker import serve_unit, serve_worker_init
            self._pool = SupervisedPool(
                serve_unit, self.workers, mp_context=context,
                initializer=serve_worker_init,
                initargs=(self.cache_dir, self.warm),
                timeout=self.task_timeout, retries=self.retries,
                backoff=self.backoff, name="serve-pool")
            self._listener = socket.socket(socket.AF_UNIX,
                                           socket.SOCK_STREAM)
            self._listener.bind(self.socket_path)
            self._listener.listen(128)
        except BaseException:
            if self._listener is not None:
                self._listener.close()
                self._listener = None
            if self._pool is not None:
                self._pool.shutdown()
                self._pool = None
            self._release_socket_path()
            raise
        self._started = time.monotonic()
        threading.Thread(target=self._accept_loop, name="serve-accept",
                         daemon=True).start()
        return self

    def _lock_path(self) -> str:
        return self.socket_path + ".lock"

    def _claim_socket_path(self):
        """Take the socket's exclusive lock file; then any existing
        socket is provably stale and safe to unlink.

        PR 9 probed the socket (connect → live?) and unlinked on
        failure, which raced: two daemons probing the same dead socket
        concurrently both unlinked and both bound — last bind silently
        stole the path.  The lock file closes the race: ``flock`` is
        atomic in the kernel, held for the daemon's lifetime, and
        released automatically on any process death (no stale-pidfile
        liveness guessing).  The fstat-after-flock check handles the
        drain-time unlink of the lock file itself: a racer that locked
        a just-unlinked inode retries on the fresh one.
        """
        if fcntl is None:  # pragma: no cover - non-POSIX fallback
            self._claim_by_probe()
            return
        for _ in range(8):
            fd = os.open(self._lock_path(), os.O_CREAT | os.O_RDWR,
                         0o666)
            try:
                fcntl.flock(fd, fcntl.LOCK_EX | fcntl.LOCK_NB)
            except OSError:
                os.close(fd)
                raise RuntimeError(
                    f"socket {self.socket_path} already has a live "
                    "daemon (lock held)") from None
            try:
                same = os.fstat(fd).st_ino == \
                    os.stat(self._lock_path()).st_ino
            except OSError:
                same = False  # unlinked under us: retry on a fresh one
            if not same:
                os.close(fd)
                continue
            os.ftruncate(fd, 0)
            os.write(fd, f"{os.getpid()}\n".encode())
            self._lock_fd = fd
            try:
                os.unlink(self.socket_path)  # ours now: stale if present
            except OSError:
                pass
            return
        raise RuntimeError(  # pragma: no cover - needs a pathological race
            f"could not claim lock for {self.socket_path}")

    def _claim_by_probe(self):  # pragma: no cover - non-POSIX fallback
        """The PR-9 probe-then-unlink claim, for platforms sans flock."""
        if not os.path.exists(self.socket_path):
            return
        probe = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        try:
            probe.connect(self.socket_path)
        except OSError:
            os.unlink(self.socket_path)  # stale: no one is listening
        else:
            raise RuntimeError(
                f"socket {self.socket_path} already has a live daemon")
        finally:
            probe.close()

    def _release_socket_path(self):
        try:
            os.unlink(self.socket_path)
        except OSError:
            pass
        if self._lock_fd is not None:
            try:
                os.unlink(self._lock_path())
            except OSError:
                pass
            try:
                os.close(self._lock_fd)  # after unlink: lock covers it
            except OSError:
                pass
            self._lock_fd = None

    def drain(self, timeout=10.0) -> bool:
        """Graceful shutdown: stop admission, finish in-flight work.

        Returns True when everything settled within *timeout* seconds.
        Always closes the listener, tears the pool down and removes
        the socket path; publishes final stats via :meth:`stats` to
        the caller.
        """
        with self._lock:
            self._draining = True
        if self._listener is not None:
            try:
                # close() alone does not wake a thread blocked in
                # accept(); shutdown() does, so the accept loop exits
                # now instead of leaking until process exit.
                self._listener.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            try:
                self._listener.close()
            except OSError:
                pass
        deadline = time.monotonic() + (timeout or 0.0)
        drained = self._pool.drain(timeout) if self._pool else True
        # Pool futures resolving is not the end: connection threads
        # still have to write the responses out.
        with self._settled:
            while self._active:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    drained = False
                    break
                self._settled.wait(timeout=remaining)
        if self._pool is not None and drained:
            self._pool.shutdown()
        self._release_socket_path()
        return drained

    # -- connection handling -------------------------------------------------

    def _accept_loop(self):
        while True:
            try:
                conn, _addr = self._listener.accept()
            except OSError:
                return  # listener closed (drain)
            with self._lock:
                self.counters["connections"] += 1
            thread = threading.Thread(target=self._serve_connection,
                                      args=(conn,), daemon=True,
                                      name="serve-conn")
            thread.start()

    def _serve_connection(self, conn):
        reader = conn.makefile("rb")
        try:
            for line in reader:
                if not line.strip():
                    continue
                if not self._handle_line(conn, line):
                    return
        except OSError:
            pass
        finally:
            try:
                reader.close()
            except OSError:
                pass
            try:
                # shutdown (not just close) delivers EOF even when a
                # forked pool worker inherited a duplicate of this fd.
                conn.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            try:
                conn.close()
            except OSError:
                pass

    def _handle_line(self, conn, line) -> bool:
        """Answer one request line; False closes the connection."""
        with self._settled:
            self.counters["requests"] += 1
            self._active += 1
        try:
            try:
                response = self._respond(line)
            except Exception as error:  # daemon bug: never hang a client
                response = error_response(None, "internal", repr(error))
            return self._send(conn, response)
        finally:
            with self._settled:
                self._active -= 1
                self._settled.notify_all()

    def _send(self, conn, response) -> bool:
        """Write one response line, honouring the injected fault.

        ``REPRO_FAULT_SERVE`` (drop / stall / garbage) is a no-op
        unless its environment variable is set.
        """
        if os.environ.get("REPRO_FAULT_SERVE"):
            from ..testing.faults import serve_fault
            fault = serve_fault()
            if fault == "drop":
                return False  # close without answering: client sees EOF
            if fault == "stall":
                time.sleep(STALL_SECONDS)
            elif fault == "garbage":
                try:
                    conn.sendall(b"\x00<<not-json>>\xff\n")
                except OSError:
                    return False
        try:
            conn.sendall(encode(response))
        except OSError:
            return False
        return True

    # -- request dispatch ----------------------------------------------------

    def _respond(self, line) -> dict:
        try:
            request = json.loads(line.decode("utf-8"))
            if not isinstance(request, dict):
                raise ValueError("request must be a JSON object")
        except (UnicodeDecodeError, ValueError) as error:
            with self._lock:
                self.counters["bad_lines"] += 1
                self.counters["invalid"] += 1
            return error_response(None, "invalid",
                                  f"undecodable request: {error}")
        rid = request.get("id")
        try:
            return self._dispatch(rid, request)
        except Exception as error:  # daemon bug: still echo the id
            return error_response(rid, "internal", repr(error))

    def _dispatch(self, rid, request) -> dict:
        try:
            canonical = canonical_request(request)
        except ProtocolError as error:
            with self._lock:
                self.counters["invalid"] += 1
            return error_response(rid, "invalid", str(error))
        op = canonical["op"]
        if op == "ping":
            with self._lock:
                self.counters["ok"] += 1
            return ok_response(rid, {"pong": True,
                                     "protocol": PROTOCOL_VERSION},
                               "inline")
        if op == "stats":
            response = ok_response(rid, self.stats(), "inline")
            with self._lock:
                self.counters["ok"] += 1
            return response
        return self._respond_evaluation(rid, request, canonical)

    def _admit(self, key, canonical):
        """(future, served) or (None, error_response), under the lock.

        Memo hits short-circuit as ``(None, ok_response)`` too — the
        three no-new-computation outcomes (memo, draining, overloaded)
        all come back as a finished response.
        """
        with self._lock:
            result = self._memo.get(key)
            if result is not None:
                self.counters["memo_hits"] += 1
                self.counters["ok"] += 1
                return None, ok_response(None, result, "memo")
            future = self._inflight.get(key)
            if future is not None:
                self.counters["coalesced"] += 1
                return future, "coalesced"
            if self._draining:
                self.counters["draining_rejected"] += 1
                return None, error_response(
                    None, "draining",
                    "daemon is draining; not admitting new work")
            if len(self._inflight) >= self.queue_depth:
                self.counters["sheds"] += 1
                return None, error_response(
                    None, "overloaded",
                    f"admission queue full "
                    f"({self.queue_depth} computations in flight)",
                    retry_after=self.retry_after)
            future = self._pool.submit(canonical)
            self._inflight[key] = future
            self.counters["computed"] += 1
            future.add_done_callback(
                lambda fut, key=key: self._finish(key, fut))
            return future, "computed"

    def _finish(self, key, future):
        with self._lock:
            self._inflight.pop(key, None)
            if future.exception() is None:
                self._memo[key] = future.result()

    def _respond_evaluation(self, rid, request, canonical) -> dict:
        deadline = request.get("deadline", self.default_deadline)
        if deadline is not None and (
                not isinstance(deadline, (int, float))
                or isinstance(deadline, bool) or deadline <= 0):
            with self._lock:
                self.counters["invalid"] += 1
            return error_response(rid, "invalid",
                                  "deadline must be a positive number "
                                  "of seconds")
        key = request_key(canonical)
        future, served = self._admit(key, canonical)
        if future is None:  # memo hit or shed: `served` is the response
            served["id"] = rid
            return served
        try:
            result = future.result(timeout=deadline)
        except FutureTimeoutError:
            with self._lock:
                self.counters["deadline_expired"] += 1
            return error_response(
                rid, "deadline",
                f"deadline expired ({deadline:g}s); the computation "
                "continues and will be memoised",
                repro=repro_command(canonical))
        except TaskFailure as failure:
            with self._lock:
                self.counters["failed"] += 1
            return error_response(
                rid, "failed",
                f"evaluation failed: {failure.describe()}",
                attempts=failure.attempts,
                repro=repro_command(canonical))
        with self._lock:
            self.counters["ok"] += 1
        return ok_response(rid, result, served)

    # -- observability -------------------------------------------------------

    def stats(self) -> dict:
        """The ``stats`` op payload (also the final drain report)."""
        with self._lock:
            counters = dict(self.counters)
            inflight = len(self._inflight)
            draining = self._draining
        payload = {
            "protocol": PROTOCOL_VERSION,
            "socket": self.socket_path,
            "pid": os.getpid(),
            "uptime_seconds": round(
                time.monotonic() - self._started, 3),
            "draining": draining,
            "workers": self.workers,
            "queue_depth": self.queue_depth,
            "inflight": inflight,
            "counters": counters,
            "supervisor": dict(self._pool.counters)
            if self._pool else {},
            "memo": {
                "entries": len(self._memo),
                "capacity": self._memo.capacity,
                "evictions": self._memo.evictions,
            },
        }
        if self.cache_dir:
            payload["stores"] = self._store_stats()
        return payload

    def _store_stats(self) -> dict:
        from ..store import ArtifactStore
        stores = {}
        for name in ("analysis", "traces"):
            root = os.path.join(self.cache_dir, name)
            if os.path.isdir(root):
                stats = ArtifactStore(root).stats()
                stores[name] = {
                    "entries": stats["entries"],
                    "bytes": stats["bytes"],
                    "quarantined": stats["quarantined_files"],
                }
        return stores


def flush_stats(daemon: ServeDaemon, stream=None, path=None):
    """Publish final stats on drain: one JSON line, optionally a file."""
    payload = daemon.stats()
    blob = json.dumps(payload, sort_keys=True)
    print(f"repro-serve: final stats {blob}",
          file=stream or sys.stderr, flush=True)
    if path:
        with open(path, "w") as handle:
            json.dump(payload, handle, indent=2, sort_keys=True)
            handle.write("\n")
    return payload
