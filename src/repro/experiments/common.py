"""Shared infrastructure for experiment regeneration.

Each experiment module exposes ``run(fast=False) -> dict`` with at least
``name``, ``rows`` (list of dicts) and ``text`` (formatted report).
``fast=True`` shrinks sweeps for the tests and the CI smoke run; the
full runs regenerate the paper's artefacts.

Sweeps go through the **evaluation task layer**: an experiment describes
its (benchmark × configuration) points as picklable task tuples of one
shape, ``(bench, config, persistence, method)`` (:func:`task`; *config*
a :class:`~repro.memory.hierarchy.SystemConfig`), and hands them to
:func:`evaluate_points`, which either evaluates them serially in order
(the default) or fans them across ``set_jobs(N)`` worker processes
(``repro-experiments --jobs N``).  Results always come back in task
order and every point's computation is deterministic, so the merged
artefacts are identical whichever way they were produced.

Before anything runs, a **sweep-aware planner** (:func:`plan_units`)
rewrites the task list: the cache-only tasks of one benchmark and one
replay geometry collapse into a single unit served by one
:meth:`~repro.workflow.Workflow.config_points` call, which replays the
benchmark's recorded trace instead of re-executing it per configuration
and evaluates same-geometry size sweeps in one stack-distance pass.
Workers additionally share an on-disk trace cache next to the analysis
reuse cache, so a trace recorded by one process is loaded, not
re-executed, by every other.
"""

from __future__ import annotations

import multiprocessing
import os
import shlex
import shutil
import tempfile

from ..benchmarks import get as get_benchmark
from ..memory.cache import CacheConfig
from ..memory.hierarchy import SystemConfig
from ..serve.supervisor import SupervisedPool, TaskFailure
from ..sim.replay import grid_geometry
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
                f"  unit bench={failure['bench']} "
                f"configs={','.join(failure['configs'])} "
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


def task(bench: str, config, persistence: bool = False,
         method: str = "energy"):
    """One evaluation task: what :meth:`~repro.workflow.Workflow.
    config_point` takes, plus the benchmark key."""
    return (bench, config, persistence, method)


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


def plan_units(tasks):
    """Rewrite a task list into execution units for :func:`_run_unit`.

    Cache-only tasks of one benchmark that share a
    :func:`~repro.sim.replay.grid_geometry` — however they interleave
    with other tasks — become a single batched unit, so the
    benchmark's recorded trace is replayed once per geometry (same-
    geometry size sweeps collapse into one single-pass replay) instead
    of once per configuration.  Scratchpad tasks and configs without a
    grid geometry (uncached, L1+L2, split I/D) stay units of their own.
    A unit is ``(task indices, tasks)``: results land back in task
    order no matter how units are scheduled.
    """
    units = []
    batches = {}  # (bench, geometry) -> unit position in `units`
    for index, entry in enumerate(tasks):
        bench, config = entry[:2]
        geometry = None if config.spm_size else grid_geometry(config)
        if geometry is None:
            units.append(((index,), (entry,)))
            continue
        position = batches.get((bench, geometry))
        if position is None:
            batches[(bench, geometry)] = len(units)
            units.append(((index,), (entry,)))
        else:
            indices, batch = units[position]
            units[position] = (indices + (index,), batch + (entry,))
    return units


def _run_unit(unit):
    """Evaluate one planned unit; returns points in intra-unit order."""
    _indices, tasks = unit
    if os.environ.get("REPRO_FAULT_UNIT"):
        # Deterministic crash/hang/raise injection for the resilience
        # suite; a no-op unless the env var is set.
        from ..testing.faults import unit_fault
        unit_fault()
    return workflow_for(tasks[0][0]).config_points(
        entry[1:] for entry in tasks)


def rerun_unit(unit):
    """Re-evaluate one failed unit serially (the failure-report repro).

    Accepts the unit tuple or its ``repr`` as printed by a
    :class:`SweepFailure` report; prints each produced point's row.
    """
    if isinstance(unit, str):
        from ..memory.levels import CacheLevel, MainMemoryLevel, SpmLevel
        from ..memory.timing import AccessTiming

        unit = eval(unit, {
            "AccessTiming": AccessTiming, "CacheConfig": CacheConfig,
            "CacheLevel": CacheLevel, "MainMemoryLevel": MainMemoryLevel,
            "SpmLevel": SpmLevel, "SystemConfig": SystemConfig})
    points = _run_unit(unit)
    for point in points:
        print(point.row())
    return points


def _unit_failure(unit, attempts, error) -> dict:
    """Structured failure record for one exhausted unit."""
    indices, tasks = unit
    return {
        "bench": tasks[0][0],
        "configs": [entry[1].name for entry in tasks],
        "indices": indices,
        "attempts": attempts,
        "error": repr(error) if isinstance(error, BaseException) else error,
        "repro": "PYTHONPATH=src python -c " + shlex.quote(
            "from repro.experiments.common import rerun_unit; "
            f"rerun_unit({str(unit)!r})"),
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
    needs_profile = frozenset(t[0] for t in tasks if t[1].spm_size)
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


def branch_points(bench: str, fast: bool):
    """The paper's two branches on *bench*: ``(scratchpad points,
    unified direct-mapped cache points)``, one per sweep size."""
    sweep = sizes(fast)
    points = evaluate_points(
        [task(bench, SystemConfig.scratchpad(size)) for size in sweep]
        + [task(bench, SystemConfig.cached(CacheConfig(size=size)))
           for size in sweep])
    return points[:len(sweep)], points[len(sweep):]


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
