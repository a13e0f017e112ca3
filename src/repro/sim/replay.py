"""Trace replay kernels: re-price a recorded stream under any config.

Given a :class:`~repro.sim.trace.Trace` (the image's dynamic access
stream, recorded once by the execution engine) and a compatible
:class:`~repro.memory.hierarchy.SystemConfig`, :func:`replay` produces a
:class:`~repro.sim.simulator.SimResult` bit-identical to re-executing
the program on that config — same cycles, instruction count, console,
exit code, and per-level hit/miss statistics — without touching
registers, RAM or step closures.  Only the accesses that can change
cache state reach the kernels:

* SPM-resident accesses and data writes have config-fixed costs
  (write-through stores pay main memory regardless of hit/miss), so
  they are priced from the trace's aggregate per-tag counts in O(1) —
  writes reach the kernels only when a data-path cache needs their LRU
  refresh/statistics;
* on fetch-only pipelines (instruction caches) the data stream is
  skipped entirely;
* pipelines with no caches at all reduce to pure arithmetic over a
  memoized per-config pricing plan — no tag arrays, no hierarchy.

Every cached pipeline is priced by the numpy kernels of
:mod:`repro.sim.kernels`: the direct-mapped carry kernel, and an exact
set-associative kernel that walks only the run heads of each set.  The
tests hold the kernels to a per-access walk over the reference
hierarchy in ``tests/oracles``, a model they share no code with.

:func:`replay_sweep` goes further for the paper's bread-and-butter
sweep: same-geometry direct-mapped LRU caches of different sizes
(figs. 3-6 and the cache-config ablation, batched by
``Workflow.config_points``).  For LRU the
set contents of a cache are exactly the most recently used blocks
mapping to each set — Mattson et al.'s stack property, which for the
direct-mapped case degenerates to "resident iff most recent allocation
in the set".  The stream is therefore reduced once and every size
prices from one grouping per set count
(:func:`~repro.sim.kernels.dm_sweep_counts`).  Writes never allocate,
so they only read the residency the allocations leave behind.

:func:`replay_grid` generalises the sweep to full per-set Mattson stack
distances: one call prices an entire (size × associativity) LRU grid at
fixed line size.  The associativity-1 points take the sweep kernel and
the others the set-associative kernel, where points with one set count
share a grouping and a walk.  When the set counts form a divisibility
chain, each finer one regroups only the probes the coarser ones left
unsettled; the rest carry their hits forward
(:func:`~repro.sim.kernels.lru_grid_counts`).
"""

from __future__ import annotations

import weakref

from ..memory.cache import CacheStats
from ..memory.hierarchy import MemoryHierarchy, SystemConfig
from ..memory.levels import level_labels, path_geometry, serve_costs
from ..memory.regions import RegionKind
from ..sim.simulator import SimResult, SimError
from . import kernels
from .trace import COUNTERS, TAG_WIDTH, Trace


def _check_budget(trace: Trace, max_steps: int):
    if trace.instructions > max_steps:
        # The engine would have given up mid-run; replays agree.
        raise SimError(f"exceeded {max_steps} steps (runaway program?)")


def _check_spm(trace: Trace, config: SystemConfig):
    if config.spm_size != trace.spm_size:
        raise ValueError(
            f"trace was recorded with a {trace.spm_size}-byte SPM split; "
            f"config {config.name!r} has {config.spm_size} bytes — "
            "re-record against the matching image")


# -- per-config pricing plans -------------------------------------------------

class _ReplayPlan:
    """Immutable pricing tables of one ``(levels, timing)`` point.

    Everything a replay needs that is *not* per-access state: physical
    cache descriptors in level order, serve-cost tables per path depth,
    and per-tag SPM/main cycle costs.  Memoized process-wide
    (:func:`_plan_for`), so repeated replays of the same config — the
    planner's singles, the sweep/grid pricing step, uncached baselines
    — skip hierarchy construction entirely.
    """

    __slots__ = ("names", "caches", "fetch_order", "data_order",
                 "fcosts", "dcosts", "spm_tag_cycles", "main_tag_cycles",
                 "kernel_caches")

    def __init__(self, config: SystemConfig):
        timing = config.timing
        names = []
        caches = []  # (CacheConfig, on_fetch, on_data)
        fetch_order = []
        data_order = []
        for level in config.cache_level_specs:
            labels = iter(level_labels(level))
            if level.shared:
                fetch_order.append(len(caches))
                data_order.append(len(caches))
                names.append(next(labels))
                caches.append((level.icache, True, True))
                continue
            if level.icache is not None:
                fetch_order.append(len(caches))
                names.append(next(labels))
                caches.append((level.icache, True, False))
            if level.dcache is not None:
                data_order.append(len(caches))
                names.append(next(labels))
                caches.append((level.dcache, False, True))
        self.names = tuple(names)
        self.caches = tuple(caches)
        self.fetch_order = tuple(fetch_order)
        self.data_order = tuple(data_order)
        self.fcosts = tuple(serve_costs(
            path_geometry(config.fetch_path(), "i"), timing))
        self.dcosts = tuple(serve_costs(
            path_geometry(config.data_path(), "d"), timing))
        self.spm_tag_cycles = tuple(
            timing.cycles(RegionKind.SPM, TAG_WIDTH[tag])
            for tag in range(8))
        self.main_tag_cycles = tuple(
            timing.cycles(RegionKind.MAIN, TAG_WIDTH[tag])
            for tag in range(8))
        self.kernel_caches = tuple(
            (spec.line_size, spec.num_sets, spec.assoc, on_fetch, on_data)
            for spec, on_fetch, on_data in caches)


_PLANS = {}
#: ``id(config) -> (weak reference to config, plan)``.  An entry leaves
#: with its config, so the map never outgrows the live configs (a
#: server builds a fresh config per request) and keeps none alive.
_PLANS_BY_ID = {}


def _plan_for(config: SystemConfig) -> _ReplayPlan:
    # Fast path: the same config object replayed again (sweeps, grids,
    # benches) resolves by identity, skipping the key flattening.
    cached = _PLANS_BY_ID.get(id(config))
    if cached is not None and cached[0]() is config:
        return cached[1]
    # AccessTiming holds dict fields (unhashable), so the memo key
    # flattens it; levels tuples are frozen dataclasses and hash fine.
    timing = config.timing
    key = (config.levels,
           tuple(sorted(timing.main.items())),
           tuple(sorted(timing.spm.items())))
    plan = _PLANS.get(key)
    if plan is None:
        plan = _PLANS[key] = _ReplayPlan(config)
    ident = id(config)
    _PLANS_BY_ID[ident] = (
        weakref.ref(config, lambda _ref: _PLANS_BY_ID.pop(ident, None)),
        plan)
    return plan


def _fixed_cycles(trace: Trace, plan: _ReplayPlan,
                  fetches_fixed: bool, reads_fixed: bool) -> int:
    """Cycles of every access whose cost the config pins up front.

    Always: SPM-resident accesses and the write-through store costs.
    Additionally the whole fetch (data-read) stream when no cache sits
    on that path, where each access pays plain main-memory cost.
    Memoised on the trace per (plan, path-fixedness) — plans are
    interned for the process lifetime, so their ids are stable keys.
    """
    memo = trace._memo
    memo_key = ("fixed", id(plan), fetches_fixed, reads_fixed)
    cached = memo.get(memo_key)
    if cached is not None:
        return cached
    spm_out = plan.spm_tag_cycles
    main_out = plan.main_tag_cycles
    total = 0
    for tag, count in enumerate(trace.spm_counts):
        if count:
            total += count * spm_out[tag]
    counts = trace.op_counts
    for tag in (4, 5, 6):  # writes: main cost at any depth
        if counts[tag]:
            total += counts[tag] * main_out[tag]
    if fetches_fixed and (counts[0] or counts[7]):
        total += (counts[0] + counts[7]) * main_out[0]
    if reads_fixed:
        for tag in (1, 2, 3):
            if counts[tag]:
                total += counts[tag] * main_out[tag]
    memo[memo_key] = total
    return total


def _plan_result(trace: Trace, plan: _ReplayPlan, cycles: int,
                 counts_per_cache) -> SimResult:
    """Build a SimResult from counters alone (no tag arrays needed)."""
    level_stats = {}
    first = None
    for name, counts in zip(plan.names, counts_per_cache):
        stats = CacheStats(*counts)
        level_stats[name] = stats
        if first is None:
            first = stats
    return SimResult(
        cycles=cycles,
        instructions=trace.instructions,
        exit_code=trace.exit_code,
        console=list(trace.console),
        cache_stats=first,
        level_stats=level_stats,
    )


def _priced_counts(trace: Trace, plan: _ReplayPlan, counts_per_cache,
                   fetches_fixed: bool = False,
                   reads_fixed: bool = False) -> int:
    """Total cycles from per-cache counters and the plan's cost tables."""
    cycles = trace.base_cycles + _fixed_cycles(
        trace, plan, fetches_fixed=fetches_fixed, reads_fixed=reads_fixed)
    op_counts = trace.op_counts
    if plan.fetch_order and not fetches_fixed:
        total = op_counts[0] + op_counts[7]
        served = 0
        for depth, index in enumerate(plan.fetch_order):
            hits = counts_per_cache[index][0]
            cycles += hits * plan.fcosts[depth]
            served += hits
        cycles += (total - served) * plan.fcosts[len(plan.fetch_order)]
    if plan.data_order and not reads_fixed:
        total = op_counts[1] + op_counts[2] + op_counts[3]
        served = 0
        for depth, index in enumerate(plan.data_order):
            hits = counts_per_cache[index][2]
            cycles += hits * plan.dcosts[depth]
            served += hits
        cycles += (total - served) * plan.dcosts[len(plan.data_order)]
    return cycles


def replay(trace: Trace, config: SystemConfig,
           max_steps: int = 50_000_000) -> SimResult:
    """Re-price *trace* under *config*; bit-identical to execution."""
    _check_budget(trace, max_steps)
    _check_spm(trace, config)
    plan = _plan_for(config)
    COUNTERS["replay_runs"] += 1
    if not plan.caches:
        # No tag state anywhere: pure arithmetic over the plan tables.
        COUNTERS["replay_scalar"] += 1
        cycles = trace.base_cycles + _fixed_cycles(
            trace, plan, fetches_fixed=True, reads_fixed=True)
        return _plan_result(trace, plan, cycles, ())
    COUNTERS["replay_numpy"] += 1
    counts = kernels.lru_chain_counts(
        kernels.ops_view(trace.ops), plan.kernel_caches, memo=trace._memo)
    cycles = _priced_counts(trace, plan, counts,
                            fetches_fixed=not plan.fetch_order,
                            reads_fixed=not plan.data_order)
    return _plan_result(trace, plan, cycles, counts)


def replay_misses(trace: Trace, config: SystemConfig,
                  max_steps: int = 50_000_000):
    """Per-pc fetch-miss counters served from the trace, no re-execution.

    Returns ``(fetch_misses, fetch_main_misses)`` — instruction address
    -> miss count dicts (the second counts fetches that missed every
    cache level and were served by main memory).  Both halfword
    fetches of a 32-bit instruction attribute to the instruction's pc
    (continuation entries carry :data:`~repro.sim.trace.TAG_FETCH_CONT`
    and name ``pc + 2``), and one execution of an instruction counts at
    most once per counter however many of its halfwords missed.

    The walk touches the full fetch *and* data pipelines: on unified
    levels, data traffic moves the very tags fetch misses depend on.
    ``repro-cc run --record-misses`` prints the hottest of these pcs;
    the tests hold both dicts to the recording oracle, pc by pc.
    """
    _check_budget(trace, max_steps)
    _check_spm(trace, config)
    hierarchy = MemoryHierarchy(config)

    def chain(caches, make):
        # One (touch, line_size, num_sets) per cache on the path,
        # outermost first: the closures the execution engine prices with.
        return tuple((make(cache), cache.config.line_size,
                      cache.config.num_sets) for cache in caches)
    fts = chain(hierarchy._fetch_chain,
                lambda cache: hierarchy._make_touch(cache, 0))
    dts = chain(hierarchy._data_chain,
                lambda cache: hierarchy._make_touch(cache, 2))
    wts = chain(hierarchy._data_chain, hierarchy._make_write_touch)
    main_depth = len(fts)
    fetch_misses = {}
    fetch_main_misses = {}
    counted = counted_main = True  # until the first tag-0 fetch
    pc = None
    for value in trace.ops:
        tag = value & 7
        addr = value >> 3
        if tag == 0 or tag == 7:
            if tag == 0:
                pc = addr
                counted = counted_main = False
            if not fts:
                continue  # no fetch caches: misses cannot happen
            depth = 0
            for touch, line, nsets in fts:
                block = addr // line
                if touch(block, block % nsets):
                    break
                depth += 1
            if depth:
                if not counted:
                    counted = True
                    fetch_misses[pc] = fetch_misses.get(pc, 0) + 1
                if depth == main_depth and not counted_main:
                    counted_main = True
                    fetch_main_misses[pc] = \
                        fetch_main_misses.get(pc, 0) + 1
        elif tag < 4:
            for touch, line, nsets in dts:
                block = addr // line
                if touch(block, block % nsets):
                    break
        else:
            for touch, line, nsets in wts:
                block = addr // line
                touch(block, block % nsets)
    COUNTERS["miss_replays"] += 1
    return fetch_misses, fetch_main_misses


# -- single-pass size sweeps -------------------------------------------------

def grid_geometry(config: SystemConfig):
    """The shared-geometry key of *config* for grid evaluation.

    Grid-able configs have exactly one cache level that serves fetches
    (unified or instruction-only), at any associativity, optionally
    behind a scratchpad.  Configs with equal
    keys (and equal SPM splits) may be evaluated together by
    :func:`replay_grid` in one pass.  Returns None when the config
    needs a plain per-config replay.
    """
    caches = config.cache_level_specs
    if len(caches) != 1:
        return None
    level = caches[0]
    if level.icache is None:
        return None
    if level.dcache is not None and not level.shared:
        return None
    # Per-config costs (hit_cycles, timing) are priced after the walk,
    # so only what shapes the shared walk itself keys the group.
    return (level.icache.line_size, level.shared, config.spm_size)


def sweep_geometry(config: SystemConfig):
    """The shared-geometry key of *config*, or None if not sweepable.

    Sweepable configs are the direct-mapped subset of
    :func:`grid_geometry` (where direct-mapped content is just "last
    allocated block per set" — the degenerate Mattson stack).  Configs
    with equal keys (and equal SPM splits) may be evaluated together by
    :func:`replay_sweep` in one pass.
    """
    key = grid_geometry(config)
    if key is None:
        return None
    if config.cache_level_specs[0].icache.assoc != 1:
        return None
    return key


def replay_sweep(trace: Trace, configs,
                 max_steps: int = 50_000_000):
    """Evaluate every same-geometry config in **one** pass over *trace*.

    All *configs* must share one :func:`sweep_geometry` key; returns one
    :class:`~repro.sim.simulator.SimResult` per config, in order, each
    bit-identical to :func:`replay` (asserted by the differential and
    property tests).
    """
    configs = list(configs)
    if not configs:
        return []
    _check_budget(trace, max_steps)
    keys = {sweep_geometry(config) for config in configs}
    if len(keys) != 1 or None in keys:
        raise ValueError("replay_sweep needs same-geometry direct-mapped "
                         f"LRU configs, got keys {keys}")
    for config in configs:
        _check_spm(trace, config)
    line, unified, _spm = next(iter(keys))

    if len(configs) == 1:
        # Degenerate sweep: a plain replay prices the one config.
        results = [replay(trace, configs[0], max_steps)]
        COUNTERS["replay_runs"] -= 1
    else:
        plans = [_plan_for(config) for config in configs]
        COUNTERS["sweep_numpy"] += 1
        counts_list = kernels.dm_sweep_counts(
            kernels.ops_view(trace.ops), line, unified,
            [plan.caches[0][0].num_sets for plan in plans],
            memo=trace._memo)
        results = [
            _plan_result(trace, plan,
                         _sweep_cycles(trace, plan, counts, unified),
                         (counts,))
            for plan, counts in zip(plans, counts_list)]
    COUNTERS["sweep_passes"] += 1
    COUNTERS["sweep_points"] += len(configs)
    return results


def _sweep_cycles(trace: Trace, plan: _ReplayPlan, counts,
                  unified: bool) -> int:
    """Price one single-cache config from its sweep/grid counters."""
    cycles = trace.base_cycles + _fixed_cycles(
        trace, plan, fetches_fixed=False, reads_fixed=not unified)
    cycles += counts[0] * plan.fcosts[0] + counts[1] * plan.fcosts[1]
    if unified:
        cycles += counts[2] * plan.dcosts[0] + counts[3] * plan.dcosts[1]
    return cycles


# -- single-pass geometry grids ----------------------------------------------

def replay_grid(trace: Trace, configs,
                max_steps: int = 50_000_000):
    """Evaluate a (size × associativity) LRU grid in one trace pass.

    All *configs* must share one :func:`grid_geometry` key (same line
    size, same unified/instruction side, same SPM split — sizes and
    associativities free).  Returns one SimResult per config, in order,
    bit-identical to :func:`replay` per point.
    """
    configs = list(configs)
    if not configs:
        return []
    _check_budget(trace, max_steps)
    keys = {grid_geometry(config) for config in configs}
    if len(keys) != 1 or None in keys:
        raise ValueError("replay_grid needs same-geometry LRU configs, "
                         f"got keys {keys}")
    for config in configs:
        _check_spm(trace, config)
    line, unified, _spm = next(iter(keys))

    plans = [_plan_for(config) for config in configs]
    specs = [plan.caches[0][0] for plan in plans]
    counts_for = [None] * len(configs)
    values = kernels.ops_view(trace.ops)

    dm_positions = [i for i, spec in enumerate(specs) if spec.assoc == 1]
    lru_positions = [i for i, spec in enumerate(specs) if spec.assoc > 1]
    if dm_positions:
        dm_counts = kernels.dm_sweep_counts(
            values, line, unified,
            [specs[i].num_sets for i in dm_positions], memo=trace._memo)
        for position, counts in zip(dm_positions, dm_counts):
            counts_for[position] = counts
    if lru_positions:
        lru_counts, settled = kernels.lru_grid_counts(
            values, line, unified,
            [(specs[i].assoc, specs[i].num_sets) for i in lru_positions],
            memo=trace._memo)
        COUNTERS["grid_settled"] += settled
        for position, counts in zip(lru_positions, lru_counts):
            counts_for[position] = counts
    results = [
        _plan_result(trace, plan,
                     _sweep_cycles(trace, plan, counts, unified),
                     (counts,))
        for plan, counts in zip(plans, counts_for)]
    COUNTERS["grid_passes"] += 1
    COUNTERS["grid_points"] += len(configs)
    COUNTERS["grid_numpy"] += 1
    return results
