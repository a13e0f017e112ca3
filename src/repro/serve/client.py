"""Client for the serving daemon's JSON-lines socket protocol.

:class:`ServeClient` is deliberately paranoid about the transport,
because the daemon's response writer is where ``REPRO_FAULT_SERVE``
injects faults: a dropped response (EOF mid-request) reconnects and
resends — safe because every evaluation is a pure function and the
daemon dedups/memoises, so a resend coalesces instead of recomputing —
garbage lines on the stream are skipped until a well-formed response
with the matching request id appears, and stalls are bounded by the
socket timeout.  ``overloaded`` responses are retried after the
daemon's ``retry_after`` hint; every other error surfaces as a
structured :class:`ServeError`.

The address is the daemon's unix socket, as a bare path or
``unix:PATH``; any other ``scheme://`` address is a ``ValueError``.

Reconnect backoff is exponential from *backoff* capped at
*backoff_cap*, plus uniform jitter bounded by *jitter* (the jitter
cap) so a fleet of clients hammering a recovering daemon doesn't
reconnect in lockstep; it is slept between attempts, never after the
last one.  *max_retries* bounds the resend budget.  The ``counters``
dict (``client_reconnects``) feeds the load generator's metrics.
"""

from __future__ import annotations

import random
import socket
import time

from .protocol import ProtocolError, decode, encode

#: Default resend budget across reconnects for one request.
TRANSPORT_RETRIES = 8

#: Give up waiting out ``overloaded`` responses after this many sheds.
OVERLOAD_RETRIES = 200

#: Skip at most this many non-protocol lines while hunting for the
#: response (the ``garbage`` serve fault writes such lines).
MAX_GARBAGE_LINES = 64


def _socket_path(address) -> str:
    """The unix socket path *address* names (a path or ``unix:PATH``)."""
    if not isinstance(address, str) or not address:
        raise ValueError(f"bad daemon address {address!r}")
    if address.startswith("unix:"):
        path = address[len("unix:"):]
        if not path:
            raise ValueError("unix: address needs a socket path")
        return path
    if "://" in address:
        raise ValueError(f"unsupported daemon address {address!r} "
                         "(want a socket path or unix:PATH)")
    return address


def reconnect_delay(attempt: int, *, base=0.05, cap=0.5, jitter=0.1,
                    rng=None) -> float:
    """Backoff before transport retry *attempt* (1-based).

    Exponential from *base*, capped at *cap*, plus uniform jitter in
    ``[0, jitter]`` — the jitter *cap* bounds the random part
    absolutely, so the worst-case delay is exactly ``cap + jitter``
    and a test can pin the whole schedule by passing ``jitter=0``.
    """
    delay = min(cap, base * (2 ** max(0, attempt - 1)))
    if jitter:
        delay += (rng or random).random() * jitter
    return delay


class ServeError(RuntimeError):
    """A structured error response from the daemon.

    Mirrors the protocol's error object: ``kind`` (one of
    :data:`repro.serve.protocol.ERROR_KINDS`), ``message``, and the
    optional ``retry_after`` / ``attempts`` / ``repro`` fields.
    """

    def __init__(self, error: dict):
        self.kind = error.get("kind", "internal")
        self.retry_after = error.get("retry_after")
        self.attempts = error.get("attempts")
        self.repro = error.get("repro")
        super().__init__(
            f"{self.kind}: {error.get('message', '(no message)')}")


class ServeTransportError(ConnectionError):
    """The daemon could not be reached (or kept dropping us)."""


class ServeClient:
    """One connection to a serving daemon (reconnects as needed)."""

    def __init__(self, address, *, timeout=120.0,
                 retry_overloaded=True,
                 max_retries=TRANSPORT_RETRIES, backoff=0.05,
                 backoff_cap=0.5, jitter=0.1):
        self.address = address
        self._path = _socket_path(address)
        self.timeout = timeout
        self.retry_overloaded = retry_overloaded
        self.max_retries = max(0, int(max_retries))
        self.backoff = backoff
        self.backoff_cap = backoff_cap
        self.jitter = jitter
        self.counters = {"client_reconnects": 0}
        self._sock = None
        self._reader = None
        self._connected_once = False
        self._next_id = 0

    # -- transport -----------------------------------------------------------

    def _connect(self):
        sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        try:
            sock.settimeout(self.timeout)
            sock.connect(self._path)
        except BaseException:
            sock.close()
            raise
        self._sock = sock
        self._reader = sock.makefile("rb")
        if self._connected_once:
            self.counters["client_reconnects"] += 1
        self._connected_once = True

    def close(self):
        if self._reader is not None:
            try:
                self._reader.close()
            except OSError:
                pass
            self._reader = None
        if self._sock is not None:
            try:
                self._sock.close()
            except OSError:
                pass
            self._sock = None

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()

    def _read_response(self, rid) -> dict:
        """The next well-formed response for *rid*, skipping garbage."""
        for _ in range(MAX_GARBAGE_LINES):
            line = self._reader.readline()
            if not line:
                raise ConnectionError("connection closed by daemon")
            if not line.strip():
                continue
            try:
                response = decode(line)
            except ProtocolError:
                continue  # injected garbage / corrupted line: resync
            if response.get("id") == rid:
                return response
        raise ConnectionError("no response found on stream "
                              f"(> {MAX_GARBAGE_LINES} garbage lines)")

    def request(self, request: dict) -> dict:
        """Send one request, return its raw response envelope.

        Reconnects and resends on transport failure (EOF, reset,
        timeout, refused) — idempotent by construction, since the
        daemon dedups identical requests and memoises results.
        """
        if "id" not in request:
            self._next_id += 1
            request = dict(request, id=f"c{self._next_id}")
        payload = encode(request)
        last_error = None
        for attempt in range(self.max_retries + 1):
            if attempt:
                time.sleep(reconnect_delay(
                    attempt, base=self.backoff,
                    cap=self.backoff_cap, jitter=self.jitter))
            try:
                if self._sock is None:
                    self._connect()
                self._sock.sendall(payload)
                return self._read_response(request["id"])
            except OSError as error:
                last_error = error
                self.close()
        raise ServeTransportError(
            f"daemon at {self.address} unreachable after "
            f"{self.max_retries + 1} attempts: {last_error!r}")

    # -- the convenient face -------------------------------------------------

    def response(self, op: str, **fields) -> dict:
        """Full response envelope for one op (retrying overload sheds)."""
        request = {"op": op, **fields}
        for _ in range(OVERLOAD_RETRIES):
            response = self.request(dict(request))
            error = response.get("error")
            if (not response.get("ok") and error is not None
                    and error.get("kind") == "overloaded"
                    and self.retry_overloaded):
                time.sleep(error.get("retry_after") or 0.05)
                continue
            return response
        raise ServeError(error)

    def call(self, op: str, **fields):
        """Result payload for one op; raises :class:`ServeError`."""
        response = self.response(op, **fields)
        if response.get("ok"):
            return response["result"]
        raise ServeError(response.get("error", {}))

    def ping(self) -> dict:
        return self.call("ping")

    def stats(self) -> dict:
        return self.call("stats")
