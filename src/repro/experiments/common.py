"""Shared infrastructure for experiment regeneration.

Each experiment module exposes ``run(fast=False) -> dict`` with at least
``name``, ``rows`` (list of dicts) and ``text`` (formatted report).
``fast=True`` shrinks sweeps for the tests and the CI smoke run; the
full runs regenerate the paper's artefacts.

Sweeps go through the **evaluation task layer**: an experiment describes
its (benchmark × configuration) points as picklable task tuples and hands
them to :func:`evaluate_points`, which either evaluates them serially in
order (the default) or fans them across ``set_jobs(N)`` worker processes
(``repro-experiments --jobs N``).  Results always come back in task
order and every point's computation is deterministic, so the merged
artefacts are identical whichever way they were produced.

Before anything runs, a **sweep-aware planner** (:func:`plan_units`)
rewrites the task list: all cache tasks of one benchmark collapse into
a single batched unit served by :meth:`~repro.workflow.Workflow.
cache_points`, which replays the benchmark's recorded trace instead of
re-executing it per configuration and evaluates same-geometry size
sweeps in one stack-distance pass.  Workers additionally share an
on-disk trace cache next to the PR-4 analysis reuse cache, so a trace
recorded by one process is loaded, not re-executed, by every other.
"""

from __future__ import annotations

import multiprocessing
import os
import shutil
import tempfile

from ..benchmarks import get as get_benchmark
from ..serve.supervisor import SupervisedPool, TaskFailure
from ..sim.trace import set_trace_cache_dir
from ..wcet.cacheanalysis import set_analysis_cache_dir
from ..workflow import PAPER_SIZES, Workflow

#: Reduced sweep for fast/benchmark runs.
FAST_SIZES = (64, 512, 4096)

_WORKFLOWS = {}

#: Worker-process count for evaluate_points (set via ``set_jobs``).
_JOBS = 1

#: Resilience knobs for the parallel scheduler (``set_resilience``):
#: per-unit wall-clock timeout in seconds (None disables), how many
#: times a failed unit is re-run after its first attempt, and the base
#: backoff delay (doubling per attempt) before a unit retries.
_TIMEOUT = 600.0
_RETRIES = 2
_BACKOFF = 0.25

_KEEP = object()


def set_resilience(timeout=_KEEP, retries=_KEEP, backoff=_KEEP):
    """Configure the hardened scheduler (``repro-experiments
    --timeout/--retries``); omitted arguments keep their value."""
    global _TIMEOUT, _RETRIES, _BACKOFF
    if timeout is not _KEEP:
        _TIMEOUT = timeout
    if retries is not _KEEP:
        _RETRIES = max(0, int(retries))
    if backoff is not _KEEP:
        _BACKOFF = max(0.0, float(backoff))


class SweepFailure(RuntimeError):
    """A sweep aborted: some unit kept failing after every retry.

    Carries the partial results (task order, ``None`` where the failed
    units' points would be) and one structured record per failed unit,
    so the runner can report exactly what broke and how to reproduce
    it instead of dumping a mid-sweep traceback.
    """

    def __init__(self, failures, results):
        self.failures = failures
        self.results = results
        super().__init__(self.report())

    def report(self) -> str:
        done = sum(result is not None for result in self.results)
        lines = [
            f"sweep failed: {len(self.failures)} unit(s) exhausted "
            f"their retries; {done}/{len(self.results)} points "
            "completed (partial results merged in task order)"]
        for failure in self.failures:
            lines.append(
                f"  unit bench={failure['bench']} kind={failure['kind']} "
                f"task-indices={failure['indices']}: "
                f"{failure['attempts']} attempts, last error: "
                f"{failure['error']}")
            lines.append(f"    repro: {failure['repro']}")
        return "\n".join(lines)


def workflow_for(key: str) -> Workflow:
    """Cached workflow per benchmark (compile + profile once).

    Besides the seven suite names, ``gen:<seed>`` and
    ``gen:<seed>:<size>`` keys run experiments over generated workloads
    (:mod:`repro.gen`) — e.g. ``repro-experiments --bench gen:1234``
    prices generated program 1234 exactly like a hand-ported benchmark.
    """
    if key not in _WORKFLOWS:
        if key.startswith("gen:"):
            from ..gen import generate
            fields = key.split(":")
            if len(fields) not in (2, 3):
                raise ValueError(f"bad generated-benchmark key {key!r} "
                                 "(expected gen:<seed>[:<size>])")
            seed = int(fields[1])
            size = fields[2] if len(fields) == 3 else "small"
            source = generate(seed, size).source
            _WORKFLOWS[key] = Workflow(source)
        else:
            _WORKFLOWS[key] = Workflow(get_benchmark(key).source())
    return _WORKFLOWS[key]


def sizes(fast: bool):
    return FAST_SIZES if fast else PAPER_SIZES


# -- the process-parallel sweep layer ---------------------------------------

def set_jobs(jobs: int):
    """Set the worker-process count used by :func:`evaluate_points`."""
    global _JOBS
    _JOBS = max(1, int(jobs))


def spm_task(bench: str, size: int, method: str = "energy"):
    return (bench, "spm", (size, method))


def cache_task(bench: str, cache, persistence: bool = False):
    return (bench, "cache", (cache, persistence))


def uncached_task(bench: str):
    return (bench, "uncached", ())


def multilevel_task(bench: str, l1, l2):
    return (bench, "multilevel", (l1, l2))


def split_task(bench: str, icache, dcache):
    return (bench, "split", (icache, dcache))


def hybrid_task(bench: str, spm_size: int, cache, method: str = "energy"):
    return (bench, "hybrid", (spm_size, cache, method))


def _init_worker(bench_keys, profile_keys, cache_dir):
    """Worker bootstrap for :func:`evaluate_points` pools.

    Warms the per-worker workflow cache once at startup (a no-op on
    fork platforms, where the parent's warmed cache is inherited; a
    one-off compile+profile on spawn platforms, instead of redoing it
    lazily per benchmark mid-sweep) and joins the run's shared on-disk
    reuse caches: per-level cache-analysis fixpoints and recorded
    execution traces computed by one worker are loaded, not recomputed,
    by every other worker that needs them.
    """
    global _JOBS
    _JOBS = 1  # workers never nest their own pools
    if cache_dir:
        set_analysis_cache_dir(os.path.join(cache_dir, "analysis"))
        set_trace_cache_dir(os.path.join(cache_dir, "traces"))
    for key in bench_keys:
        workflow_for(key).warm(profile=key in profile_keys)


def _evaluate_task(task):
    """Evaluate one task tuple in this process (worker entry point)."""
    bench, kind, params = task
    workflow = workflow_for(bench)
    if kind == "spm":
        size, method = params
        return workflow.spm_point(size, method)
    if kind == "cache":
        cache, persistence = params
        return workflow.cache_point(cache, persistence=persistence)
    if kind == "uncached":
        return workflow.uncached_point()
    if kind == "multilevel":
        return workflow.multilevel_point(*params)
    if kind == "split":
        return workflow.split_point(*params)
    if kind == "hybrid":
        spm_size, cache, method = params
        return workflow.hybrid_point(spm_size, cache, method=method)
    raise ValueError(f"unknown evaluation task kind {kind!r}")


def plan_units(tasks):
    """Rewrite a task list into execution units for :func:`_run_unit`.

    Cache tasks of one benchmark — however they interleave with other
    kinds — become a single batched unit, so the benchmark's recorded
    trace is replayed (and same-geometry size sweeps collapse into one
    single-pass replay) instead of the executable re-executing per
    configuration.  Everything else stays a unit of its own.  Each unit
    carries the task indices it produces, so results land back in task
    order no matter how units are scheduled.
    """
    units = []
    batches = {}  # bench -> unit position in `units`
    for index, task in enumerate(tasks):
        bench, kind, params = task
        if kind != "cache":
            units.append(((index,), task))
            continue
        position = batches.get(bench)
        if position is None:
            batches[bench] = len(units)
            units.append(((index,), (bench, "cache_batch", (params,))))
        else:
            indices, (_, _, specs) = units[position]
            units[position] = (indices + (index,),
                               (bench, "cache_batch", specs + (params,)))
    return units


def _run_unit(unit):
    """Evaluate one planned unit; returns points in intra-unit order."""
    indices, task = unit
    bench, kind, params = task
    if os.environ.get("REPRO_FAULT_UNIT"):
        # Deterministic crash/hang/raise injection for the resilience
        # suite; a no-op unless the env var is set.
        from ..testing.faults import unit_fault
        unit_fault()
    if kind == "cache_batch":
        return workflow_for(bench).cache_points(params)
    return [_evaluate_task(task)]


def rerun_unit(unit):
    """Re-evaluate one failed unit serially (the failure-report repro).

    Accepts the unit tuple or its ``repr`` as printed by a
    :class:`SweepFailure` report; prints each produced point's row.
    """
    if isinstance(unit, str):
        from ..memory.cache import CacheConfig
        unit = eval(unit, {"CacheConfig": CacheConfig})
    points = _run_unit(unit)
    for point in points:
        print(point.row())
    return points


def _unit_failure(unit, attempts, error) -> dict:
    """Structured failure record for one exhausted unit."""
    indices, task = unit
    bench, kind, _params = task
    return {
        "bench": bench,
        "kind": kind,
        "indices": indices,
        "attempts": attempts,
        "error": repr(error) if isinstance(error, BaseException) else error,
        "repro": ("PYTHONPATH=src python -c \"from "
                  "repro.experiments.common import rerun_unit; "
                  f"rerun_unit({str(unit)!r})\""),
    }


def evaluate_points(tasks):
    """Evaluate task tuples; returns points in task order.

    Tasks are first rewritten by the sweep-aware planner
    (:func:`plan_units`).  With one job the units run serially in plan
    order, sharing the process-wide workflow cache.  With more, units
    fan out over a process pool through the hardened scheduler
    (:func:`_evaluate_parallel`): per-unit timeouts, retry with
    exponential backoff, and pool-rebuild recovery from crashed or
    hung workers.  Results always merge back by task index and every
    unit's computation is deterministic, so the merged artefacts are
    bit-for-bit the serial result no matter how many faults were
    survived along the way; a unit that keeps failing raises a
    :class:`SweepFailure` carrying the partial results and a
    structured report.  On fork platforms the parent warms each
    benchmark's compile (and profile, when a scratchpad task needs it)
    first, so workers inherit the expensive steps instead of redoing
    them.
    """
    tasks = list(tasks)
    units = plan_units(tasks)
    results = [None] * len(tasks)

    def merge(unit, points):
        for index, point in zip(unit[0], points):
            results[index] = point

    if _JOBS <= 1 or len(units) <= 1:
        for unit in units:
            merge(unit, _run_unit(unit))
        return results
    bench_keys = tuple(dict.fromkeys(t[0] for t in tasks))
    needs_profile = frozenset(
        t[0] for t in tasks if t[1] in ("spm", "hybrid"))
    for key in bench_keys:
        workflow_for(key).warm(profile=key in needs_profile)
    try:
        context = multiprocessing.get_context("fork")
    except ValueError:  # platform without fork: the initializer rebuilds
        context = multiprocessing.get_context()
    # Shared scratch directory for the content-addressed reuse caches
    # (analysis fixpoints + recorded traces): what one worker computes,
    # every other worker loads.
    cache_dir = tempfile.mkdtemp(prefix="repro-reuse-")
    os.makedirs(os.path.join(cache_dir, "analysis"))
    os.makedirs(os.path.join(cache_dir, "traces"))
    try:
        _evaluate_parallel(units, merge, results, context,
                           (bench_keys, needs_profile, cache_dir))
        return results
    finally:
        shutil.rmtree(cache_dir, ignore_errors=True)


def _evaluate_parallel(units, merge, results, context, initargs):
    """The fault-tolerant fan-out behind :func:`evaluate_points`.

    One :class:`~repro.serve.supervisor.SupervisedPool` (the scheduler
    this module's PR-8 pool-rebuild logic was refactored into, now
    shared with the serving daemon) runs the planned units.  The
    invariants the resilience suite pins down:

    * a unit that raises is retried with exponential backoff, up to
      ``retries`` re-runs;
    * a worker crash (``BrokenProcessPool``) or a unit exceeding the
      per-unit timeout tears the whole pool down (hung processes are
      killed), rebuilds it, and re-enqueues everything that was in
      flight — units merely caught in the rebuild do not lose an
      attempt;
    * results merge by task index, so scheduling order never changes
      the artefacts;
    * when a unit exhausts its attempts the sweep still finishes every
      other unit, then raises :class:`SweepFailure` with the partial
      results and per-unit failure records.
    """
    pool = SupervisedPool(
        _run_unit, min(_JOBS, len(units)), mp_context=context,
        initializer=_init_worker, initargs=initargs,
        timeout=_TIMEOUT, retries=_RETRIES, backoff=_BACKOFF,
        name="evaluate-points")
    failures = []
    try:
        futures = [(pool.submit(unit), unit) for unit in units]
        for future, unit in futures:
            try:
                merge(unit, future.result())
            except TaskFailure as failure:
                failures.append(_unit_failure(unit, failure.attempts,
                                              failure.error))
    finally:
        pool.shutdown()
    if failures:
        raise SweepFailure(failures, list(results))


def format_table(headers, rows) -> str:
    """Fixed-width text table."""
    widths = [len(h) for h in headers]
    cells = []
    for row in rows:
        line = [str(value) for value in row]
        cells.append(line)
        widths = [max(w, len(v)) for w, v in zip(widths, line)]
    lines = ["  ".join(h.ljust(w) for h, w in zip(headers, widths))]
    lines.append("  ".join("-" * w for w in widths))
    for line in cells:
        lines.append("  ".join(v.rjust(w) for v, w in zip(line, widths)))
    return "\n".join(lines)


def spm_rows(points):
    return [
        {
            "size": p.config.spm_size,
            "sim_cycles": p.sim.cycles,
            "wcet_cycles": p.wcet.wcet,
            "ratio": round(p.ratio, 3),
            "spm_used": p.allocation.used_bytes,
            "objects": len(p.allocation.objects),
        }
        for p in points
    ]


def cache_rows(points):
    return [
        {
            "size": p.config.cache.size,
            "sim_cycles": p.sim.cycles,
            "wcet_cycles": p.wcet.wcet,
            "ratio": round(p.ratio, 3),
            "misses": p.sim.cache_stats.misses,
            "hits": p.sim.cache_stats.hits,
        }
        for p in points
    ]
