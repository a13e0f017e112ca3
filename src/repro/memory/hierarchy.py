"""System configurations and the simulator-facing memory hierarchy.

A :class:`SystemConfig` is one point in the design space.  The paper's
own three systems keep their dedicated constructors:

* ``SystemConfig.scratchpad(n)`` — *n* bytes of SPM plus main memory
  (the paper's left branch, Figure 1);
* ``SystemConfig.cached(cfg)`` — main memory behind a unified cache
  (the right branch);
* ``SystemConfig.uncached()`` — main memory only (baseline / 0-byte SPM).

Beyond the paper, a config is an ordered **level pipeline**
(:mod:`repro.memory.levels`): an optional SPM region, any number of
cache levels (unified, instruction-only, or split I/D), then main
memory.  The future-work shapes get constructors too:

* ``SystemConfig.hybrid(spm, cache)`` — SPM with a cache behind it;
* ``SystemConfig.two_level(l1, l2)`` — an L2 behind the L1;
* ``SystemConfig.split_l1(icache, dcache)`` — separate I/D caches;
* ``SystemConfig.with_levels(name, levels)`` — anything else.

:class:`MemoryHierarchy` turns a config into the stateful tag arrays
and plain-int cost tables the execution engine and trace replay price
every access with.  The WCET analyser walks the *same* level specs and
the same :func:`~repro.memory.levels.serve_costs` table, so simulation
and analysis share one machine model by construction.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .cache import Cache, CacheConfig
from .levels import (
    CacheLevel,
    MainMemoryLevel,
    SpmLevel,
    cache_levels,
    data_path,
    fetch_path,
    level_labels,
    path_geometry,
    serve_costs,
    spm_level,
    validate_levels,
)
from .regions import MemoryMap, RegionKind
from .timing import AccessTiming


@dataclass(frozen=True)
class SystemConfig:
    """One memory-hierarchy configuration under study.

    ``levels`` is the authoritative description.  When it is omitted the
    legacy fields build the paper's shapes (and combining ``spm_size``
    with ``cache`` is rejected, exactly as before — hybrids must be
    spelled out via :meth:`hybrid` or ``levels``).  When ``levels`` is
    given, ``spm_size`` and ``cache`` are derived mirrors: the SPM
    capacity and the outermost cache config on the fetch (else data)
    path, kept so existing reporting code reads naturally.
    """

    name: str
    spm_size: int = 0
    cache: Optional[CacheConfig] = None
    timing: AccessTiming = AccessTiming.table1()
    levels: tuple = None

    def __post_init__(self):
        if self.levels is None:
            if self.spm_size and self.cache is not None:
                raise ValueError(
                    "the paper's systems have either a scratchpad or a "
                    "cache; build hybrids with SystemConfig.hybrid() or "
                    "an explicit level pipeline")
            derived = []
            if self.spm_size:
                derived.append(SpmLevel(self.spm_size))
            if self.cache is not None:
                if self.cache.unified:
                    derived.append(CacheLevel.unified(self.cache))
                else:
                    derived.append(CacheLevel.instruction(self.cache))
            derived.append(MainMemoryLevel())
            object.__setattr__(self, "levels", tuple(derived))
        else:
            levels = tuple(self.levels)
            validate_levels(levels)
            object.__setattr__(self, "levels", levels)
            spm = spm_level(levels)
            object.__setattr__(self, "spm_size", spm.size if spm else 0)
            caches = cache_levels(levels)
            primary = None
            if caches:
                primary = caches[0].icache or caches[0].dcache
            object.__setattr__(self, "cache", primary)

    # -- the paper's systems -------------------------------------------------

    @classmethod
    def scratchpad(cls, spm_size: int, timing=None) -> "SystemConfig":
        return cls(name=f"spm{spm_size}", spm_size=spm_size,
                   timing=timing or AccessTiming.table1())

    @classmethod
    def cached(cls, cache: CacheConfig, timing=None) -> "SystemConfig":
        return cls(name=f"cache{cache.size}", cache=cache,
                   timing=timing or AccessTiming.table1())

    @classmethod
    def uncached(cls, timing=None) -> "SystemConfig":
        return cls(name="uncached", timing=timing or AccessTiming.table1())

    # -- deeper pipelines (the future-work shapes) ---------------------------

    @classmethod
    def with_levels(cls, name: str, levels, timing=None) -> "SystemConfig":
        return cls(name=name, levels=tuple(levels),
                   timing=timing or AccessTiming.table1())

    @classmethod
    def hybrid(cls, spm_size: int, cache: CacheConfig,
               timing=None) -> "SystemConfig":
        """Scratchpad in front, a cache behind it for the rest."""
        level = (CacheLevel.unified(cache) if cache.unified
                 else CacheLevel.instruction(cache))
        return cls.with_levels(
            f"spm{spm_size}+cache{cache.size}",
            (SpmLevel(spm_size), level, MainMemoryLevel()), timing)

    @classmethod
    def two_level(cls, l1: CacheConfig, l2: CacheConfig, timing=None,
                  l2_hit_cycles: int = None) -> "SystemConfig":
        """L1 (unified or instruction-only) backed by a unified L2."""
        first = (CacheLevel.unified(l1) if l1.unified
                 else CacheLevel.instruction(l1))
        kwargs = {}
        if l2_hit_cycles is not None:
            kwargs["hit_cycles"] = l2_hit_cycles
        second = CacheLevel.unified(l2, name="L2", **kwargs)
        prefix = "cache" if l1.unified else "icache"
        return cls.with_levels(
            f"{prefix}{l1.size}+l2-{l2.size}",
            (first, second, MainMemoryLevel()), timing)

    @classmethod
    def split_l1(cls, icache: CacheConfig, dcache: CacheConfig,
                 timing=None) -> "SystemConfig":
        """Separate L1 instruction and data caches."""
        return cls.with_levels(
            f"i{icache.size}+d{dcache.size}",
            (CacheLevel.split(icache, dcache), MainMemoryLevel()), timing)

    # -- views ---------------------------------------------------------------

    @property
    def cache_level_specs(self):
        return cache_levels(self.levels)

    @property
    def has_cache(self) -> bool:
        return bool(self.cache_level_specs)

    def fetch_path(self):
        return fetch_path(self.levels)

    def data_path(self):
        return data_path(self.levels)

    def memory_map(self) -> MemoryMap:
        if self.spm_size:
            return MemoryMap.with_spm(self.spm_size)
        return MemoryMap.main_only()

    def describe(self) -> str:
        parts = []
        for level in self.levels:
            if isinstance(level, SpmLevel):
                parts.append(f"{level.size} B scratchpad")
            elif isinstance(level, CacheLevel):
                parts.append(level.describe())
        parts.append("main memory")
        if len(parts) == 1:
            return "main memory only"
        return " + ".join(parts)


class MemoryHierarchy:
    """Stateful cycle model used by the execution engine and replay.

    Each cache level gets its own tag array (one shared array for a
    unified level, two for split I/D).  An access walks its path
    outermost-in until some level hits (or main memory serves it); it
    costs ``serve_costs[depth]`` cycles, from
    :func:`~repro.memory.levels.serve_costs` — the very table the WCET
    cost model prices misses with.
    """

    def __init__(self, config: SystemConfig):
        self.config = config
        self.memory_map = config.memory_map()
        self.timing = config.timing
        self._spm = self.memory_map.spm_region

        # Physical caches: one per unified level, two per split level.
        self.caches = {}  # display name -> Cache
        self._fetch_chain = []  # Cache per level, outermost first
        self._data_chain = []
        for level in config.cache_level_specs:
            labels = iter(level_labels(level))
            if level.shared:
                cache = Cache(level.icache)
                self.caches[next(labels)] = cache
                self._fetch_chain.append(cache)
                self._data_chain.append(cache)
                continue
            if level.icache is not None:
                cache = Cache(level.icache)
                self.caches[next(labels)] = cache
                self._fetch_chain.append(cache)
            if level.dcache is not None:
                cache = Cache(level.dcache)
                self.caches[next(labels)] = cache
                self._data_chain.append(cache)

        # Legacy single-cache view (simulator flags, cache_stats).
        self.cache = next(iter(self.caches.values()), None)

        timing = self.timing
        # Cycles by serving depth along each path (index 0 is an L1
        # hit, the last entry main memory), and SPM/main cost by width.
        self._fetch_costs = serve_costs(
            path_geometry(config.fetch_path(), "i"), timing)
        self._data_costs = serve_costs(
            path_geometry(config.data_path(), "d"), timing)
        self._spm_costs = {width: timing.cycles(RegionKind.SPM, width)
                           for width in (1, 2, 4)}
        self._main_costs = {width: timing.cycles(RegionKind.MAIN, width)
                            for width in (1, 2, 4)}

    # -- fast path -----------------------------------------------------------
    #
    # The factories below compile the machine model into closures that
    # return *plain int* cycle counts from the cost tables above and the
    # flat per-set tag lists, updating each cache's ``fast_counts``
    # instead of its CacheStats (call :meth:`flush_fast_stats` when a run
    # finishes).

    def _spm_end(self) -> int:
        return self._spm.end if self._spm is not None else 0

    def _make_touch(self, cache: Cache, base: int):
        """``touch(block, index) -> hit`` for a fetch or read: a hit
        refreshes the line, a miss allocates and evicts the LRU line;
        *base* indexes the hit counter (miss is ``base + 1``)."""
        sets = cache.sets
        counts = cache.fast_counts
        assoc = cache.config.assoc
        hit_i, miss_i = base, base + 1
        if assoc == 1:
            def touch(block, index):
                ways = sets[index]
                if ways and ways[0] == block:
                    counts[hit_i] += 1
                    return True
                if ways:
                    ways[0] = block
                else:
                    ways.append(block)
                counts[miss_i] += 1
                return False
        else:
            def touch(block, index):
                ways = sets[index]
                if block in ways:
                    if ways[0] != block:
                        ways.remove(block)
                        ways.insert(0, block)
                    counts[hit_i] += 1
                    return True
                if len(ways) == assoc:
                    ways.pop()
                ways.insert(0, block)
                counts[miss_i] += 1
                return False
        return touch

    def _make_write_touch(self, cache: Cache):
        """``touch(block, index)`` for a write (write-through, no
        allocate): refresh a resident line, count the rest."""
        sets = cache.sets
        counts = cache.fast_counts

        def touch(block, index):
            ways = sets[index]
            if block in ways:
                if ways[0] != block:
                    ways.remove(block)
                    ways.insert(0, block)
                counts[4] += 1
            else:
                counts[5] += 1
        return touch

    def fetch_fast_factory(self):
        """``make(addr) -> (() -> cycles)`` for 16-bit fetches at *addr*.

        The per-address factory folds the set index and block tag into
        the closure as constants, so the hot path is one list index and
        one compare for the common direct-mapped hit.
        """
        spm_end = self._spm_end()
        spm_cost = self._spm_costs[2]
        main_cost = self._main_costs[2]
        chain = self._fetch_chain
        costs = self._fetch_costs

        if not chain:
            def make(addr):
                cost = spm_cost if 0 <= addr < spm_end else main_cost

                def fetch():
                    return cost
                return fetch
            return make

        geometry = [(c.config.line_size, c.config.num_sets) for c in chain]

        if len(chain) == 1 and chain[0].config.assoc == 1:
            cache = chain[0]
            sets = cache.sets
            counts = cache.fast_counts
            line, nsets = geometry[0]
            hit_cost, miss_cost = costs[0], costs[1]

            def make(addr):
                if 0 <= addr < spm_end:
                    def fetch():
                        return spm_cost
                    return fetch
                block = addr // line
                index = block % nsets

                def fetch():
                    ways = sets[index]
                    if ways and ways[0] == block:
                        counts[0] += 1
                        return hit_cost
                    if ways:
                        ways[0] = block
                    else:
                        ways.append(block)
                    counts[1] += 1
                    return miss_cost
                return fetch
            return make

        touches = [self._make_touch(cache, 0) for cache in chain]
        miss_cost = costs[len(chain)]

        def make(addr):
            if 0 <= addr < spm_end:
                def fetch():
                    return spm_cost
                return fetch
            pairs = [(addr // line, (addr // line) % nsets)
                     for line, nsets in geometry]
            touch0 = touches[0]
            block0, index0 = pairs[0]
            hit_cost = costs[0]
            deeper = tuple(
                (touches[i], pairs[i][0], pairs[i][1], costs[i])
                for i in range(1, len(touches)))

            def fetch():
                if touch0(block0, index0):
                    return hit_cost
                for touch, block, index, cost in deeper:
                    if touch(block, index):
                        return cost
                return miss_cost
            return fetch
        return make

    def data_fast_ops(self):
        """``(dread(addr, width), dwrite(addr, width))`` plain-int ops."""
        spm_end = self._spm_end()
        # Width-indexed cost tables (widths are 1, 2, 4).
        spm_tab = [None] * 5
        main_tab = [None] * 5
        for width in (1, 2, 4):
            spm_tab[width] = self._spm_costs[width]
            main_tab[width] = self._main_costs[width]
        chain = self._data_chain
        costs = self._data_costs

        if not chain:
            if spm_end:
                def dread(addr, width):
                    return (spm_tab[width] if 0 <= addr < spm_end
                            else main_tab[width])
                dwrite = dread
            else:
                def dread(addr, width):
                    return main_tab[width]
                dwrite = dread
            return dread, dwrite

        write_touches = [self._make_write_touch(cache) for cache in chain]
        wgeometry = [(c.config.line_size, c.config.num_sets) for c in chain]

        if len(chain) == 1 and chain[0].config.assoc == 1:
            cache = chain[0]
            sets = cache.sets
            counts = cache.fast_counts
            line, nsets = wgeometry[0]
            hit_cost, miss_cost = costs[0], costs[1]

            def dread(addr, width):
                if 0 <= addr < spm_end:
                    return spm_tab[width]
                block = addr // line
                ways = sets[block % nsets]
                if ways and ways[0] == block:
                    counts[2] += 1
                    return hit_cost
                if ways:
                    ways[0] = block
                else:
                    ways.append(block)
                counts[3] += 1
                return miss_cost
        else:
            touches = [self._make_touch(cache, 2) for cache in chain]
            geometry = wgeometry
            deep_miss = costs[len(chain)]

            def dread(addr, width):
                if 0 <= addr < spm_end:
                    return spm_tab[width]
                depth = 0
                for touch, (line, nsets) in zip(touches, geometry):
                    block = addr // line
                    if touch(block, block % nsets):
                        return costs[depth]
                    depth += 1
                return deep_miss

        if len(chain) == 1:
            wtouch = write_touches[0]
            wline, wnsets = wgeometry[0]

            def dwrite(addr, width):
                if 0 <= addr < spm_end:
                    return spm_tab[width]
                block = addr // wline
                wtouch(block, block % wnsets)
                return main_tab[width]
        else:
            wpairs = tuple(zip(write_touches, wgeometry))

            def dwrite(addr, width):
                if 0 <= addr < spm_end:
                    return spm_tab[width]
                for touch, (line, nsets) in wpairs:
                    block = addr // line
                    touch(block, block % nsets)
                return main_tab[width]

        return dread, dwrite

    def flush_fast_stats(self):
        """Fold every cache's fast-path counters into its CacheStats."""
        for cache in self.caches.values():
            cache.flush_fast_counts()

    # -- statistics ----------------------------------------------------------

    @property
    def cache_stats(self):
        """Stats of the outermost cache (the paper's single-cache view)."""
        return self.cache.stats if self.cache else None

    @property
    def level_stats(self):
        """Hit/miss counters for every physical cache, by level name."""
        return {name: cache.stats for name, cache in self.caches.items()}
