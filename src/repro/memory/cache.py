"""Cache model (timing/tags only) — one instance per pipeline level.

The paper's experimental configuration is a **unified direct-mapped cache
with four 32-bit words per line** in front of 16-bit main memory, as found
in ARM7 family parts.  The model here generalises to set-associative LRU
(used for the paper's "future work" ablation) with direct-mapped as
associativity 1, and serves as the tag array for *any* level of the
composable pipeline in :mod:`repro.memory.levels` (L1, L2, or one side
of a split I/D pair).

LRU is the only replacement policy: it is the one the WCET analyser's
MUST/MAY analysis models, so every cache the simulator can build is one
the analyser bounds soundly.

The cache is *timing-only*: it tracks tags, not data.  With the modelled
write-through / no-write-allocate policy, backing RAM is always current, so
a tags-only model is cycle-exact while keeping the simulator simple.

Policy summary:

* read hit: :data:`~repro.memory.timing.CACHE_HIT_CYCLES` (1 cycle);
* read miss: full line fill (4 words x 4 cycles = 16 cycles, Table 1);
* write: write-through, no allocate — the store pays the main-memory cost
  for its width; a write hit leaves the line resident (RAM is updated, so
  tag contents stay valid), a write miss does not allocate.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(frozen=True)
class CacheConfig:
    """Geometry of an LRU cache.

    ``unified=True`` (the paper's experimental setup) caches instruction
    fetches *and* data; ``unified=False`` models the instruction-only
    cache named in the paper's future work — data bypasses the cache and
    pays main-memory cost directly.
    """

    size: int
    line_size: int = 16
    assoc: int = 1
    unified: bool = True

    def __post_init__(self):
        if self.line_size <= 0 or self.assoc <= 0:
            raise ValueError(
                f"line size {self.line_size} and associativity "
                f"{self.assoc} must be positive")
        if self.size <= 0 or self.size % (self.line_size * self.assoc):
            raise ValueError(
                f"cache size {self.size} not divisible into "
                f"{self.assoc}-way sets of {self.line_size}-byte lines")
        if self.line_size & (self.line_size - 1):
            raise ValueError("line size must be a power of two")

    @property
    def num_sets(self) -> int:
        return self.size // (self.line_size * self.assoc)

    def set_index(self, addr: int) -> int:
        return (addr // self.line_size) % self.num_sets

    def block_of(self, addr: int) -> int:
        """Memory block number (line-granular address) of *addr*."""
        return addr // self.line_size

    def blocks_in_range(self, lo: int, hi: int):
        """All memory blocks overlapping byte range [lo, hi)."""
        if hi <= lo:
            return range(0)
        return range(lo // self.line_size, (hi - 1) // self.line_size + 1)

    def describe(self) -> str:
        ways = "direct mapped" if self.assoc == 1 else f"{self.assoc}-way"
        kind = "unified" if self.unified else "instruction"
        return (f"{self.size} B {kind} {ways} cache, "
                f"{self.line_size} B lines, lru replacement")


@dataclass
class CacheStats:
    """Hit/miss counters split by access source."""

    fetch_hits: int = 0
    fetch_misses: int = 0
    read_hits: int = 0
    read_misses: int = 0
    write_hits: int = 0
    write_misses: int = 0

    @property
    def hits(self) -> int:
        return self.fetch_hits + self.read_hits + self.write_hits

    @property
    def misses(self) -> int:
        return self.fetch_misses + self.read_misses + self.write_misses


class Cache:
    """Tag state of one cache following :class:`CacheConfig`.

    The hierarchy's fast path (:class:`~repro.memory.hierarchy.
    MemoryHierarchy`) compiles the lookups over ``sets`` and counts into
    ``fast_counts``.
    """

    def __init__(self, config: CacheConfig):
        self.config = config
        # Per set: list of tags, most recently used first.
        self.sets = [[] for _ in range(config.num_sets)]
        self.stats = CacheStats()
        # Counters filled by the hierarchy's fast path (hit/miss per
        # access source, in CacheStats field order); folded into
        # ``stats`` by :meth:`flush_fast_counts`.
        self.fast_counts = [0, 0, 0, 0, 0, 0]

    def flush_fast_counts(self):
        """Fold the fast path's plain-int counters into ``stats``."""
        counts = self.fast_counts
        if any(counts):
            stats = self.stats
            stats.fetch_hits += counts[0]
            stats.fetch_misses += counts[1]
            stats.read_hits += counts[2]
            stats.read_misses += counts[3]
            stats.write_hits += counts[4]
            stats.write_misses += counts[5]
            for i in range(6):
                counts[i] = 0
