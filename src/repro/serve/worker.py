"""Worker-side evaluation of canonical serve requests.

:func:`serve_unit` is the :class:`~repro.serve.supervisor.
SupervisedPool` runner the daemon fans requests out to: a picklable
module-level function taking one canonical request (as produced by
:func:`repro.serve.protocol.canonical_request`) and returning a plain
JSON-serialisable result dict.  Everything is answered from the
existing :class:`~repro.workflow.Workflow` machinery — the daemon adds
supervision and dedup, never a second evaluation path — so a served
result is, field for field, what the same direct Workflow calls
produce.

:func:`evaluate_request` is the pure core (no fault hooks): it is what
``rerun_request`` — the copy-pasteable repro command attached to
``failed``/``deadline`` responses — executes, and what the load
generator uses as fault-free ground truth when verifying a faulted
daemon's responses byte-for-byte.

Workers memoise per benchmark/source: suite and generated benchmarks
share :func:`repro.experiments.common.workflow_for`'s process-wide
cache, inline sources get a bounded LRU keyed by content.  On top of
the in-process memo, workers join the daemon's shared on-disk reuse
caches (recorded traces, cache-analysis fixpoints) through
:func:`serve_worker_init`, exactly like ``evaluate_points`` workers.
"""

from __future__ import annotations

import hashlib
import json
import os
import time

from ..store import LRUCache

#: Inline-source workflows, keyed by source sha256 (bounded: a serve
#: worker is long-lived and clients may stream arbitrary programs).
_SOURCE_WORKFLOWS = LRUCache(capacity=32)


def serve_worker_init(cache_dir=None, warm_keys=()):
    """Worker bootstrap (the pool initializer the daemon installs).

    Joins the daemon's shared on-disk reuse caches and warms the named
    benchmarks — a no-op on fork platforms when the daemon pre-warmed
    them (the compiled workflows are inherited), a one-off cost on
    spawn platforms or after a pool rebuild.
    """
    from ..experiments import common
    common.set_jobs(1)  # serve workers never nest their own pools
    if cache_dir:
        from ..sim.trace import set_trace_cache_dir
        from ..wcet.cacheanalysis import set_analysis_cache_dir
        set_analysis_cache_dir(os.path.join(cache_dir, "analysis"))
        set_trace_cache_dir(os.path.join(cache_dir, "traces"))
    for key in warm_keys:
        common.workflow_for(key).warm()


def _workflow(request):
    from ..experiments.common import workflow_for
    source = request.get("source")
    if source is None:
        return workflow_for(request["bench"])
    from ..workflow import Workflow
    key = hashlib.sha256(source.encode()).hexdigest()
    workflow = _SOURCE_WORKFLOWS.get(key)
    if workflow is None:
        workflow = Workflow(source)
        _SOURCE_WORKFLOWS[key] = workflow
    return workflow


def _sim_fields(sim) -> dict:
    fields = {
        "cycles": sim.cycles,
        "instructions": sim.instructions,
        "exit_code": sim.exit_code,
    }
    if sim.cache_stats is not None:
        fields["cache"] = {"hits": sim.cache_stats.hits,
                           "misses": sim.cache_stats.misses}
    return fields


def evaluate_request(request: dict) -> dict:
    """Evaluate one canonical request directly (no daemon, no faults).

    This is the ground truth the daemon's responses are measured
    against: ``result`` fields of a served response are exactly this
    function's return value for the same canonical request.
    """
    op = request["op"]
    if op == "sleep":
        time.sleep(request.get("seconds", 0.1))
        return {"slept": request.get("seconds", 0.1)}
    workflow = _workflow(request)
    if op == "compile":
        return {"content_key": workflow.baseline_image().content_key()}
    if op in ("simulate", "wcet"):
        from ..serve.protocol import system_config
        spec = request.get("config", {})
        config = system_config(spec)
        method = spec.get("alloc", "energy")
        if op == "wcet":
            return workflow.config_point(
                config, bool(request.get("persistence", False)),
                method=method).row()
        sim = workflow.sim_for(config, method)
        fields = _sim_fields(sim)
        fields["config"] = config.name
        return fields
    if op == "sweep":
        from ..memory.cache import CacheConfig
        from ..memory.hierarchy import SystemConfig
        specs = [
            (SystemConfig.cached(CacheConfig(
                size=size, line_size=request["line"],
                assoc=request["assoc"], unified=request["unified"])),
             request["persistence"], "energy")
            for size in request["sizes"]]
        return {"rows": [point.row()
                         for point in workflow.config_points(specs)]}
    if op == "grid":
        from ..memory.cache import CacheConfig
        line = request["line"]
        grid, skipped = [], []
        for size in request["sizes"]:
            for assoc in request["assocs"]:
                if size >= line * assoc:
                    grid.append(CacheConfig(
                        size=size, line_size=line, assoc=assoc,
                        unified=not request["icache"]))
                else:
                    skipped.append([size, assoc])
        sims = workflow.cache_sims(grid)
        cells = [{"size": cache.size, "assoc": cache.assoc,
                  "cycles": sims[cache].cycles} for cache in grid]
        return {"line": line, "icache": request["icache"],
                "cells": cells, "skipped": skipped}
    raise ValueError(f"unhandled op {op!r}")  # pragma: no cover


def serve_unit(request: dict) -> dict:
    """Pool-worker entry: fault hook + :func:`evaluate_request`."""
    if os.environ.get("REPRO_FAULT_UNIT"):
        # Deterministic crash/hang/raise injection for the serve
        # resilience tests; a no-op unless the env var is set.
        from ..testing.faults import unit_fault
        unit_fault()
    return evaluate_request(request)


def rerun_request(blob):
    """Re-evaluate a failed request directly (the repro command).

    Accepts the canonical request dict or its JSON as attached to a
    ``failed``/``deadline`` response; prints the result the daemon's
    workers should have produced, as one canonical JSON line.
    """
    request = json.loads(blob) if isinstance(blob, str) else blob
    result = evaluate_request(request)
    print(json.dumps(result, sort_keys=True))
    return result
