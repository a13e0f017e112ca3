"""The daemon's JSON-lines protocol: requests, responses, errors.

One request per line, one response per line, UTF-8 JSON with sorted
keys.  A request is an object with:

``op``
    One of :data:`OPS`.  ``ping`` and ``stats`` are answered by the
    daemon inline; everything else is evaluated in a supervised
    worker process.
``id``
    Optional client token (string/number), echoed verbatim in the
    response so clients can pipeline.
``bench`` / ``source``
    What to evaluate: a suite benchmark name (``crc``), a generated
    workload key (``gen:<seed>[:<size>]``), or inline mini-C source.
    Exactly one of the two for evaluation ops.
``config``
    Memory-system spec, mirroring the ``repro-cc`` flags (see
    :data:`CONFIG_DEFAULTS`); omitted fields take the CLI defaults,
    and the spec is validated by the *same* code path the CLI uses,
    so daemon and command line accept exactly the same shapes.
``deadline``
    Optional per-request seconds; when the answer is not ready in
    time the *waiter* gets a ``deadline`` error (the computation
    itself keeps running and lands in the result memo).

Responses are ``{"id": ..., "ok": true, "served": ..., "result": ...}``
or ``{"id": ..., "ok": false, "error": {...}}``.  ``served`` says how
the daemon produced the answer: ``computed`` (this request started the
computation), ``coalesced`` (attached to an identical in-flight
request) or ``memo`` (served from the bounded result memo).  The error
object carries a ``kind`` from :data:`ERROR_KINDS`, a human message,
and — for anything that failed or timed out server-side — the same
copy-pasteable ``repro`` command a :class:`~repro.experiments.common.
SweepFailure` report carries, re-evaluating the request directly.

Requests are canonicalised before keying (:func:`canonical_request`):
defaults are filled in so ``{"op": "simulate", "bench": "crc"}`` and
the same request with an explicit empty config dedup onto one
computation, and inline source is keyed by its sha256 — the request
key *is* the ``(content key, config)`` identity of the underlying
pure function.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import shlex

#: Protocol version, reported by ``ping``.
PROTOCOL_VERSION = 1

#: Every request kind the daemon understands.  ``sleep`` exists for
#: diagnostics and deterministic tests (a worker-evaluated op whose
#: duration the client controls).
OPS = ("ping", "stats", "compile", "simulate", "wcet", "sweep",
       "grid", "sleep")

#: Ops answered by the daemon thread itself, no worker involved.
INLINE_OPS = ("ping", "stats")

#: Structured error kinds (the taxonomy ``docs/serving.md`` documents).
ERROR_KINDS = (
    "invalid",      # malformed request: never retried, never queued
    "overloaded",   # admission queue full: back off retry_after secs
    "deadline",     # this waiter's deadline expired (work continues)
    "failed",       # evaluation exhausted its retry budget
    "draining",     # daemon is shutting down, not admitting work
    "internal",     # daemon-side bug; carries the exception repr
)

#: Memory-system spec fields and their defaults — one to one with the
#: ``repro-cc`` command-line options (``--spm/--cache/--l2/...``).
CONFIG_DEFAULTS = {
    "spm": None, "alloc": "energy", "cache": None, "assoc": 1,
    "line": 16, "icache": False, "dcache": None, "l2": None,
    "l2_assoc": 1, "l2_line": 16, "hybrid": False,
}

#: Upper bound for the diagnostic ``sleep`` op.
MAX_SLEEP_SECONDS = 60.0


class ProtocolError(ValueError):
    """A request violates the protocol (``invalid`` error kind)."""


# -- wire format -------------------------------------------------------------

def encode(message: dict) -> bytes:
    """One canonical JSON line (sorted keys, minimal separators)."""
    return json.dumps(message, sort_keys=True,
                      separators=(",", ":")).encode() + b"\n"


def decode(line) -> dict:
    """Parse one request/response line; reject non-object payloads."""
    try:
        if isinstance(line, (bytes, bytearray)):
            line = line.decode("utf-8", errors="strict")
        message = json.loads(line)
    except (UnicodeDecodeError, ValueError) as error:
        raise ProtocolError(f"undecodable line: {error}") from None
    if not isinstance(message, dict):
        raise ProtocolError("request must be a JSON object")
    return message


def ok_response(rid, result, served: str) -> dict:
    return {"id": rid, "ok": True, "served": served, "result": result}


def error_response(rid, kind: str, message: str, *, retry_after=None,
                   attempts=None, repro=None) -> dict:
    assert kind in ERROR_KINDS, kind
    error = {"kind": kind, "message": message}
    if retry_after is not None:
        error["retry_after"] = retry_after
    if attempts is not None:
        error["attempts"] = attempts
    if repro is not None:
        error["repro"] = repro
    return {"id": rid, "ok": False, "error": error}


# -- the memory-system spec --------------------------------------------------

def config_namespace(spec: dict) -> argparse.Namespace:
    """The spec as the namespace ``repro.cli._config_for`` expects."""
    if spec is None:
        spec = {}
    if not isinstance(spec, dict):
        raise ProtocolError("config must be an object")
    unknown = set(spec) - set(CONFIG_DEFAULTS)
    if unknown:
        raise ProtocolError(
            f"unknown config fields: {sorted(unknown)} "
            f"(known: {sorted(CONFIG_DEFAULTS)})")
    merged = dict(CONFIG_DEFAULTS)
    merged.update(spec)
    if merged["alloc"] not in ("energy", "wcet"):
        raise ProtocolError(f"bad alloc {merged['alloc']!r} "
                            "(energy or wcet)")
    for field in ("spm", "cache", "assoc", "line", "dcache", "l2",
                  "l2_assoc", "l2_line"):
        value = merged[field]
        if value is not None and (not isinstance(value, int)
                                  or isinstance(value, bool)
                                  or value < 0):
            raise ProtocolError(
                f"config field {field} must be a non-negative integer")
    for field in ("icache", "hybrid"):
        if not isinstance(merged[field], bool):
            raise ProtocolError(
                f"config field {field} must be true or false")
    return argparse.Namespace(**merged)


def system_config(spec: dict):
    """The :class:`~repro.memory.hierarchy.SystemConfig` a spec names.

    Delegates to the CLI's option-to-pipeline builder so the daemon
    accepts exactly the configurations ``repro-cc`` does, translating
    its rejections into protocol errors.
    """
    from ..cli import _config_for
    namespace = config_namespace(spec)
    try:
        return _config_for(namespace)
    except SystemExit as error:
        raise ProtocolError(f"bad config: {error}") from None


# -- canonicalisation + request identity -------------------------------------

def _canonical_target(request: dict, canonical: dict):
    bench = request.get("bench")
    source = request.get("source")
    if (bench is None) == (source is None):
        raise ProtocolError(
            "evaluation requests take exactly one of bench/source")
    if bench is not None:
        if not isinstance(bench, str):
            raise ProtocolError("bench must be a string")
        if bench.startswith("gen:"):
            fields = bench.split(":")
            if len(fields) not in (2, 3) or not fields[1].isdigit():
                raise ProtocolError(
                    f"bad generated-benchmark key {bench!r} "
                    "(expected gen:<seed>[:<size>])")
        else:
            from ..benchmarks import BENCHMARKS
            if bench not in BENCHMARKS:
                raise ProtocolError(
                    f"unknown benchmark {bench!r} "
                    f"(suite: {', '.join(BENCHMARKS)}; or gen:<seed>, "
                    "or inline source)")
        canonical["bench"] = bench
    else:
        if not isinstance(source, str) or not source.strip():
            raise ProtocolError("source must be non-empty mini-C text")
        canonical["source"] = source


def _is_positive_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool) \
        and value > 0


def _int_field(request, field, default) -> int:
    value = request.get(field, default)
    if not _is_positive_int(value):
        raise ProtocolError(f"{field} must be a positive integer")
    return value


def _flag(request, field, default=False) -> bool:
    value = request.get(field, default)
    if not isinstance(value, bool):
        raise ProtocolError(f"{field} must be true or false")
    return value


def _int_list(request, field) -> list:
    values = request.get(field)
    if values is None:
        raise ProtocolError(f"{field} is required")
    if (not isinstance(values, list) or not values
            or not all(_is_positive_int(v) for v in values)):
        raise ProtocolError(
            f"{field} must be a non-empty list of positive integers")
    return list(values)


def canonical_request(request: dict) -> dict:
    """Validate *request* and return its canonical evaluation form.

    The canonical form is what workers evaluate and what the request
    key is derived from: op-relevant fields only (no ``id`` or
    ``deadline``), defaults filled in, config normalised.  Raises
    :class:`ProtocolError` for anything malformed — validation runs in
    the daemon thread, *before* admission, so broken requests are
    rejected immediately instead of burning worker retries.
    """
    op = request.get("op")
    if op not in OPS:
        raise ProtocolError(
            f"unknown op {op!r} (one of: {', '.join(OPS)})")
    canonical = {"op": op}
    if op in INLINE_OPS:
        return canonical
    if op == "sleep":
        seconds = request.get("seconds", 0.1)
        if (not isinstance(seconds, (int, float))
                or isinstance(seconds, bool) or seconds < 0
                or seconds > MAX_SLEEP_SECONDS):
            raise ProtocolError(
                "seconds must be a number in "
                f"[0, {MAX_SLEEP_SECONDS:g}]")
        canonical["seconds"] = float(seconds)
        return canonical
    _canonical_target(request, canonical)
    if op == "compile":
        return canonical
    if op in ("simulate", "wcet"):
        spec = request.get("config")
        namespace = config_namespace(spec)
        system_config(spec)  # full validation, daemon-side
        canonical["config"] = {
            field: getattr(namespace, field)
            for field in sorted(CONFIG_DEFAULTS)
            if getattr(namespace, field) != CONFIG_DEFAULTS[field]}
        if op == "wcet":
            canonical["persistence"] = _flag(request, "persistence")
        return canonical
    from ..memory.cache import CacheConfig
    if op == "sweep":
        sizes = _int_list(request, "sizes")
        line = _int_field(request, "line", 16)
        assoc = _int_field(request, "assoc", 1)
        unified = _flag(request, "unified", True)
        for size in sizes:
            try:
                CacheConfig(size=size, line_size=line, assoc=assoc,
                            unified=unified)
            except ValueError as error:
                raise ProtocolError(f"bad sweep point: {error}") \
                    from None
        canonical.update(sizes=sizes, line=line, assoc=assoc,
                         unified=unified,
                         persistence=_flag(request, "persistence"))
        return canonical
    if op == "grid":
        sizes = _int_list(request, "sizes")
        assocs = _int_list(request, "assocs")
        line = _int_field(request, "line", 16)
        # The cells the worker evaluates (smaller ones are skipped).
        for size in sizes:
            for assoc in assocs:
                if size >= line * assoc:
                    try:
                        CacheConfig(size=size, line_size=line,
                                    assoc=assoc)
                    except ValueError as error:
                        raise ProtocolError(
                            f"bad grid point: {error}") from None
        canonical.update(sizes=sizes, assocs=assocs, line=line,
                         icache=_flag(request, "icache"))
        return canonical
    raise ProtocolError(f"unhandled op {op!r}")  # pragma: no cover


def request_key(canonical: dict) -> str:
    """The dedup/memo identity of a canonical request.

    Inline source is replaced by its sha256, so the key stays small
    and equals the identity of the underlying pure function: what to
    compile (content) × how to price it (config).
    """
    keyed = dict(canonical)
    source = keyed.pop("source", None)
    if source is not None:
        keyed["source_sha256"] = hashlib.sha256(
            source.encode()).hexdigest()
    return json.dumps(keyed, sort_keys=True, separators=(",", ":"))


def repro_command(canonical: dict) -> str:
    """Copy-pasteable command re-evaluating *canonical* directly.

    The serving twin of :func:`repro.experiments.common.rerun_unit`'s
    repro line: bypasses the daemon entirely and prints the result the
    workers should have produced.
    """
    blob = json.dumps(canonical, sort_keys=True)
    return "PYTHONPATH=src python -c " + shlex.quote(
        "from repro.serve.worker import rerun_request; "
        f"rerun_request({blob!r})")
