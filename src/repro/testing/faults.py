"""Deterministic, environment-driven fault injection.

The resilience suite (``tests/test_resilience.py``) and the CI
crash-recovery smoke need to break the artifact store and the parallel
experiment runner *on purpose*, reproducibly, and across worker
process boundaries.  Everything here is driven by environment
variables, because environment is the one channel that survives both
``fork`` and ``spawn`` into :func:`repro.experiments.common.
evaluate_points` workers — no monkeypatching of live objects required.

Two injection points exist in production code, both gated on the
variable being set so the cost to a normal run is one ``os.environ``
lookup:

* ``REPRO_FAULT_STORE_WRITE`` — consulted by
  :meth:`repro.store.ArtifactStore.write` before committing an entry.
  Spec ``<kind>@<n>`` triggers on the *n*-th write of each process
  (1-based); ``<kind>@<n>+`` triggers on every write from the *n*-th
  on.  Kinds:

  - ``torn``   — commit a truncated envelope (a torn write that still
    got renamed, e.g. power loss after ``os.replace``);
  - ``enospc`` — raise ``OSError(ENOSPC)`` (disk full);
  - ``erofs``  — raise ``OSError(EROFS)`` (read-only filesystem).

* ``REPRO_FAULT_UNIT`` — consulted at the top of
  :func:`repro.experiments.common._run_unit` and of the serving
  daemon's worker entry (:func:`repro.serve.worker.serve_unit`).  Spec
  ``<action>@<n>[@<once-path>]`` triggers on the *n*-th unit a process
  runs; when *once-path* is given the trigger fires **at most once
  globally** (the first process to atomically create that file wins),
  which is how "crash once, then succeed on retry" is expressed.
  Actions:

  - ``crash`` — ``os._exit(13)``: the worker dies mid-unit, the pool
    breaks;
  - ``hang``  — sleep for an hour: only a per-unit timeout saves the
    sweep;
  - ``raise`` — raise :class:`FaultInjected` (an ordinary in-worker
    task failure, retried with backoff).

A third injection point lives in the serving daemon's connection
layer:

* ``REPRO_FAULT_SERVE`` — consulted by
  :meth:`repro.serve.daemon.ServeDaemon` just before each response is
  written.  Spec ``<kind>@<n>[+]`` counts responses per daemon
  process.  Kinds:

  - ``drop``    — close the connection without responding (the client
    sees EOF and must reconnect and resend);
  - ``stall``   — sleep briefly before responding (a slow network /
    overloaded peer);
  - ``garbage`` — write a non-protocol line before the real response
    (a corrupted stream the client must skip or resync past).

File-corruption faults need no hooks at all: :func:`corrupt_file` /
:func:`truncate_file` mutate committed store entries directly, which
is exactly what a real bit flip or torn sector looks like to the
reader.

Counters are per-process; :func:`reset_fault_counters` reroots them
between test cases, and an ``os.register_at_fork`` hook reroots them
in every forked child.  The fork hook is what makes ``@<n>`` specs
(and the ``@once-path`` marker) mean the same thing in pool workers
as in a fresh process: a worker forked from a parent that already
consumed trigger counts would otherwise inherit them and count its
own first unit as the parent's *k*-th — so ``crash@1@path`` would
silently never fire in any worker once the parent had run one unit.
"""

from __future__ import annotations

import os
import time

#: Per-process trigger counters, keyed by injection point.
_COUNTS = {"store_write": 0, "unit": 0, "serve": 0}


class FaultInjected(RuntimeError):
    """The error raised by the ``raise`` unit-fault action."""


def reset_fault_counters():
    for key in _COUNTS:
        _COUNTS[key] = 0


if hasattr(os, "register_at_fork"):
    # Every forked child (pool workers above all) counts triggers from
    # zero, exactly like a spawned one; the @once-path file remains the
    # single cross-process at-most-once arbiter.
    os.register_at_fork(after_in_child=reset_fault_counters)


def _parse(spec: str):
    """``(head, n, repeat, extra)`` from ``head@n[+][@extra]``."""
    fields = spec.split("@")
    head = fields[0]
    count = fields[1] if len(fields) > 1 else "1"
    repeat = count.endswith("+")
    extra = fields[2] if len(fields) > 2 else None
    return head, int(count.rstrip("+")), repeat, extra


def _triggers(point: str, n: int, repeat: bool) -> bool:
    _COUNTS[point] += 1
    calls = _COUNTS[point]
    return calls >= n if repeat else calls == n


def _claim_once(path: str) -> bool:
    """Atomically claim a one-shot trigger across processes."""
    try:
        os.close(os.open(path, os.O_CREAT | os.O_EXCL | os.O_WRONLY))
    except FileExistsError:
        return False
    return True


def store_write_fault():
    """The fault mode for this store write: torn/enospc/erofs or None.

    Called by :meth:`repro.store.ArtifactStore.write` only when
    ``REPRO_FAULT_STORE_WRITE`` is set.
    """
    spec = os.environ.get("REPRO_FAULT_STORE_WRITE")
    if not spec:
        return None
    kind, n, repeat, _ = _parse(spec)
    if kind not in ("torn", "enospc", "erofs"):
        raise ValueError(f"unknown store-write fault {kind!r}")
    if not _triggers("store_write", n, repeat):
        return None
    return kind


def serve_fault():
    """The fault mode for this daemon response, or None.

    Called by the serving daemon's response writer only when
    ``REPRO_FAULT_SERVE`` is set.
    """
    spec = os.environ.get("REPRO_FAULT_SERVE")
    if not spec:
        return None
    kind, n, repeat, _ = _parse(spec)
    if kind not in ("drop", "stall", "garbage"):
        raise ValueError(f"unknown serve fault {kind!r}")
    if not _triggers("serve", n, repeat):
        return None
    return kind


def unit_fault():
    """Maybe crash/hang/fail the current evaluation unit.

    Called by :func:`repro.experiments.common._run_unit` and
    :func:`repro.serve.worker.serve_unit` only when
    ``REPRO_FAULT_UNIT`` is set.
    """
    spec = os.environ.get("REPRO_FAULT_UNIT")
    if not spec:
        return
    action, n, repeat, once = _parse(spec)
    if action not in ("crash", "hang", "raise"):
        raise ValueError(f"unknown unit fault {action!r}")
    if not _triggers("unit", n, repeat):
        return
    if once is not None and not _claim_once(once):
        return
    if action == "crash":
        os._exit(13)
    if action == "hang":
        time.sleep(3600.0)
    raise FaultInjected(f"injected unit fault ({spec})")


def corrupt_file(path, offset: int = -20):
    """Flip one byte of a committed entry (default: inside the payload)."""
    with open(path, "r+b") as handle:
        handle.seek(offset, os.SEEK_END if offset < 0 else os.SEEK_SET)
        byte = handle.read(1)
        handle.seek(-1, os.SEEK_CUR)
        handle.write(bytes([byte[0] ^ 0xFF]))


def truncate_file(path, keep_fraction: float = 0.5):
    """Truncate a committed entry, as a torn write would leave it."""
    size = os.path.getsize(path)
    with open(path, "r+b") as handle:
        handle.truncate(max(1, int(size * keep_fraction)))
