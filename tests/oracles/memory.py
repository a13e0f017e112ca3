"""Per-access hierarchy and tag model: the reference of the fast path.

:class:`ReferenceCache` is a plain tags-only LRU cache with one lookup
routine for every access kind; :class:`ReferenceHierarchy` walks a
config's level pipeline with it, outermost level first, and returns an
explicit :class:`Access` outcome per query.  The shipped
``repro.memory.hierarchy.MemoryHierarchy`` compiles the same machine
model into per-address closures over flat tag lists; the recording
interpreter (:mod:`.recording`) prices every access through this model
instead, so the two engines only share the level specs and the
``serve_costs`` table.  :func:`walk_replay` prices a recorded trace
through it, the oracle of the shipped numpy replay kernels.
"""

from repro.memory import CacheStats, RegionKind
from repro.memory.levels import level_labels, path_geometry, serve_costs
from repro.sim.simulator import SimResult
from repro.sim.trace import TAG_WIDTH


class Access:
    """Explicit outcome of one memory access.

    ``missed`` is True iff at least one cache level on the access path
    missed; ``served_by`` names the level that supplied the data.
    """

    __slots__ = ("cycles", "missed", "served_by")

    def __init__(self, cycles, missed, served_by):
        self.cycles = cycles
        self.missed = missed
        self.served_by = served_by


class ReferenceCache:
    """Stateful tags-only LRU cache following a ``CacheConfig``.

    Per set, a list of tags, most recently used first.
    """

    def __init__(self, config):
        self.config = config
        self.sets = [[] for _ in range(config.num_sets)]
        self.stats = CacheStats()

    def reset(self):
        self.sets = [[] for _ in range(self.config.num_sets)]
        self.stats = CacheStats()

    def _touch(self, addr, allocate):
        """Look up *addr*; optionally allocate on miss.  Returns hit."""
        config = self.config
        block = config.block_of(addr)
        ways = self.sets[config.set_index(addr)]
        if block in ways:
            ways.remove(block)
            ways.insert(0, block)
            return True
        if allocate:
            ways.insert(0, block)
            del ways[config.assoc:]
        return False

    def _count(self, kind, hit):
        field = f"{kind}_{'hits' if hit else 'misses'}"
        setattr(self.stats, field, getattr(self.stats, field) + 1)
        return hit

    def fetch(self, addr):
        return self._count("fetch", self._touch(addr, allocate=True))

    def read(self, addr):
        return self._count("read", self._touch(addr, allocate=True))

    def write(self, addr):
        """Write-through, no allocate: a miss leaves the tags unchanged."""
        return self._count("write", self._touch(addr, allocate=False))

    def contains(self, addr):
        """Non-mutating lookup."""
        config = self.config
        return config.block_of(addr) in self.sets[config.set_index(addr)]


def _outcomes(path, side, timing):
    """``Access`` per serving depth along one path (last: main)."""
    costs = serve_costs(path_geometry(path, side), timing)
    names = [level.name for level in path] + ["main"]
    return [Access(cost, depth > 0, names[depth])
            for depth, cost in enumerate(costs)]


class ReferenceHierarchy:
    """Per-access cycle model of one ``SystemConfig``.

    Each cache level gets its own :class:`ReferenceCache` (one shared
    array for a unified level, two for split I/D).  An access walks its
    path outermost-in until some level hits, or main memory serves it.
    """

    def __init__(self, config):
        self.config = config
        timing = config.timing
        self._spm = config.memory_map().spm_region
        self.caches = {}
        self._fetch_chain = []
        self._data_chain = []
        for level in config.cache_level_specs:
            labels = iter(level_labels(level))
            if level.shared:
                cache = self.caches[next(labels)] = \
                    ReferenceCache(level.icache)
                self._fetch_chain.append(cache)
                self._data_chain.append(cache)
                continue
            if level.icache is not None:
                cache = self.caches[next(labels)] = \
                    ReferenceCache(level.icache)
                self._fetch_chain.append(cache)
            if level.dcache is not None:
                cache = self.caches[next(labels)] = \
                    ReferenceCache(level.dcache)
                self._data_chain.append(cache)
        self.cache = next(iter(self.caches.values()), None)
        self._fetch_out = _outcomes(config.fetch_path(), "i", timing)
        self._data_out = _outcomes(config.data_path(), "d", timing)
        self._spm_out = {
            width: Access(timing.cycles(RegionKind.SPM, width), False, "spm")
            for width in (1, 2, 4)}
        self._main_out = {
            width: Access(timing.cycles(RegionKind.MAIN, width), False,
                          "main")
            for width in (1, 2, 4)}

    def reset(self):
        for cache in self.caches.values():
            cache.reset()

    def _in_spm(self, addr):
        return self._spm is not None and self._spm.contains(addr)

    def fetch(self, addr):
        """Outcome of a 16-bit instruction fetch at *addr*."""
        if self._in_spm(addr):
            return self._spm_out[2]
        if not self._fetch_chain:
            return self._main_out[2]
        for depth, cache in enumerate(self._fetch_chain):
            if cache.fetch(addr):
                return self._fetch_out[depth]
        return self._fetch_out[-1]

    def read(self, addr, width):
        """Outcome of a data read of *width* bytes at *addr*."""
        if self._in_spm(addr):
            return self._spm_out[width]
        if not self._data_chain:
            return self._main_out[width]
        for depth, cache in enumerate(self._data_chain):
            if cache.read(addr):
                return self._data_out[depth]
        return self._data_out[-1]

    def write(self, addr, width):
        """Outcome of a data write of *width* bytes at *addr*.

        Write-through, no allocate, at every level: the store pays the
        main-memory cost for its width; each level on the data path
        keeps its tags informed so resident lines stay warm.
        """
        if self._in_spm(addr):
            return self._spm_out[width]
        for cache in self._data_chain:
            cache.write(addr)
        return self._main_out[width]

    @property
    def cache_stats(self):
        """Stats of the outermost cache (the paper's single-cache view)."""
        return self.cache.stats if self.cache else None

    @property
    def level_stats(self):
        return {name: cache.stats for name, cache in self.caches.items()}


def walk_replay(trace, config):
    """Re-price a recorded *trace* under *config*, access by access.

    Every entry of the main-memory stream walks a fresh
    :class:`ReferenceHierarchy`; the SPM-resident accesses, which the
    trace keeps only as per-tag counts, pay the scratchpad cost of their
    width.  The result must equal ``repro.sim.replay.replay`` (the numpy
    kernels) in cycles and in every level's statistics.
    """
    hierarchy = ReferenceHierarchy(config)
    cycles = trace.base_cycles
    for tag, count in enumerate(trace.spm_counts):
        cycles += count * config.timing.cycles(RegionKind.SPM,
                                               TAG_WIDTH[tag])
    for value in trace.ops:
        tag = value & 7
        addr = value >> 3
        if tag == 0 or tag == 7:
            cycles += hierarchy.fetch(addr).cycles
        elif tag < 4:
            cycles += hierarchy.read(addr, TAG_WIDTH[tag]).cycles
        else:
            cycles += hierarchy.write(addr, TAG_WIDTH[tag]).cycles
    return SimResult(cycles=cycles, instructions=trace.instructions,
                     exit_code=trace.exit_code, console=list(trace.console),
                     cache_stats=hierarchy.cache_stats,
                     level_stats=hierarchy.level_stats)
