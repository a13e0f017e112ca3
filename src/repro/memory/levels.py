"""Composable memory-level pipeline shared by simulator and analyser.

The paper's experimental hardware offers exactly two hierarchies —
"SPM + main memory" or "one unified cache + main memory".  Its future-work
section (and Hardy & Puaut's multi-level extension of the MUST analysis)
asks what happens to predictability when the hierarchy deepens.  This
module is the answer's foundation: a :class:`~repro.memory.hierarchy.
SystemConfig` now carries an ordered *level pipeline*

    [optional SPM region] -> [cache levels L1, L2, ...] -> main memory

where each cache level may be unified, instruction-only, or split I/D,
and may sit behind a scratchpad (hybrid configurations).

Two consumers share the declarative specs below:

* :class:`~repro.memory.hierarchy.MemoryHierarchy` builds stateful
  per-level tag arrays for the execution engine and trace replay;
* :class:`~repro.wcet.costmodel.CostModel` walks the same specs to price
  worst-case accesses, using the *same* :func:`serve_costs` table.

Because both sides read one cost table, the simulator and the WCET
analyser cannot disagree about what a hit or a miss at any depth costs —
the single-model property the paper attributes to keeping simulation and
aiT on one machine description.

Fill cost model (write-through, no-allocate at every level, no bursts):

* a hit at level *k* costs that level's ``hit_cycles``;
* a miss at levels ``0..s-1`` served at level *s* refills each missed
  level's line from the level below it: word transfers at the supplier's
  ``hit_cycles`` between caches, and the paper's Table-1 line fill
  (``line_size/4`` word accesses) from main memory.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

from .cache import CacheConfig
from .timing import CACHE_HIT_CYCLES, AccessTiming


@dataclass(frozen=True)
class SpmLevel:
    """A scratchpad region at the bottom of the address space.

    Accesses inside the region complete at SPM speed and never touch the
    cache levels behind it; everything else falls through the pipeline.
    """

    size: int
    name: str = "spm"

    def __post_init__(self):
        if self.size <= 0:
            raise ValueError("scratchpad level needs a positive size")


@dataclass(frozen=True)
class CacheLevel:
    """One cache level: unified, instruction-only, or split I/D.

    ``icache`` serves instruction fetches, ``dcache`` serves data reads
    and writes.  ``shared=True`` means both point at one physical array
    (a unified cache); split I/D levels carry two independent configs.
    ``hit_cycles`` is the per-word latency of this level — L1 keeps the
    paper's 1-cycle hit, a deeper level may be slower.
    """

    name: str
    icache: Optional[CacheConfig] = None
    dcache: Optional[CacheConfig] = None
    shared: bool = False
    hit_cycles: int = CACHE_HIT_CYCLES

    def __post_init__(self):
        if self.icache is None and self.dcache is None:
            raise ValueError(f"cache level {self.name!r} serves nothing")
        if self.shared and self.icache is not self.dcache:
            raise ValueError(
                f"shared cache level {self.name!r} must use one config")
        if self.hit_cycles <= 0:
            raise ValueError("hit_cycles must be positive")

    @classmethod
    def unified(cls, config: CacheConfig, name: str = "L1",
                hit_cycles: int = CACHE_HIT_CYCLES) -> "CacheLevel":
        return cls(name=name, icache=config, dcache=config, shared=True,
                   hit_cycles=hit_cycles)

    @classmethod
    def instruction(cls, config: CacheConfig, name: str = "L1",
                    hit_cycles: int = CACHE_HIT_CYCLES) -> "CacheLevel":
        return cls(name=name, icache=config, hit_cycles=hit_cycles)

    @classmethod
    def split(cls, icache: CacheConfig, dcache: CacheConfig,
              name: str = "L1",
              hit_cycles: int = CACHE_HIT_CYCLES) -> "CacheLevel":
        return cls(name=name, icache=icache, dcache=dcache,
                   hit_cycles=hit_cycles)

    def __repr__(self):
        # A unified level names its factory: its one config must stay one
        # object, so ``eval(repr(level)) == level``.
        if self.shared:
            return (f"CacheLevel.unified({self.icache!r}, name={self.name!r}, "
                    f"hit_cycles={self.hit_cycles!r})")
        return (f"CacheLevel(name={self.name!r}, icache={self.icache!r}, "
                f"dcache={self.dcache!r}, shared=False, "
                f"hit_cycles={self.hit_cycles!r})")

    def describe(self) -> str:
        # The default L1 keeps the paper's phrasing (no level prefix);
        # deeper and split levels name themselves.
        if self.shared or self.dcache is None or self.icache is None:
            config = self.icache if self.icache is not None else self.dcache
            prefix = "" if self.name == "L1" else f"{self.name} "
            return prefix + config.describe()
        return (f"{self.name}I {self.icache.describe()} / "
                f"{self.name}D {self.dcache.describe()}")


@dataclass(frozen=True)
class MainMemoryLevel:
    """The terminal backing store (the paper's 16-bit main memory)."""

    name: str = "main"


def validate_levels(levels: Tuple) -> None:
    """Check that *levels* forms a legal pipeline.

    Rules: exactly one :class:`MainMemoryLevel`, last; at most one
    :class:`SpmLevel`, first; cache levels in between with line sizes
    non-decreasing (and divisible) along each of the fetch and data
    paths, so one lookup in a deeper level always covers a shallower
    level's refill.
    """
    if not levels or not isinstance(levels[-1], MainMemoryLevel):
        raise ValueError("level pipeline must end at main memory")
    body = levels[:-1]
    for level in body:
        if isinstance(level, MainMemoryLevel):
            raise ValueError("main memory must be the last level")
    spms = [lvl for lvl in body if isinstance(lvl, SpmLevel)]
    if len(spms) > 1:
        raise ValueError("at most one scratchpad level")
    if spms and not isinstance(body[0], SpmLevel):
        raise ValueError("the scratchpad must be the outermost level")
    caches = [lvl for lvl in body if isinstance(lvl, CacheLevel)]
    if len(caches) + len(spms) != len(body):
        raise ValueError(f"unknown level kinds in {body!r}")
    labels = [label for lvl in caches for label in level_labels(lvl)]
    if len(labels) != len(set(labels)):
        raise ValueError(f"cache level names must be unique: {labels}")
    for side in ("icache", "dcache"):
        path = [getattr(lvl, side) for lvl in caches
                if getattr(lvl, side) is not None]
        for outer, inner in zip(path, path[1:]):
            if inner.line_size % outer.line_size:
                raise ValueError(
                    "deeper cache lines must be a multiple of the "
                    f"shallower level's ({outer.line_size} -> "
                    f"{inner.line_size})")


def level_labels(level: CacheLevel) -> Tuple[str, ...]:
    """Display labels of a level's physical caches (``L1`` or
    ``L1I``/``L1D`` for a split level) — the keys of
    :attr:`~repro.memory.hierarchy.MemoryHierarchy.level_stats`."""
    if level.shared or level.dcache is None or level.icache is None:
        return (level.name,)
    return (f"{level.name}I", f"{level.name}D")


def cache_levels(levels: Tuple) -> Tuple[CacheLevel, ...]:
    """The cache levels of a pipeline, outermost first."""
    return tuple(lvl for lvl in levels if isinstance(lvl, CacheLevel))


def spm_level(levels: Tuple) -> Optional[SpmLevel]:
    for lvl in levels:
        if isinstance(lvl, SpmLevel):
            return lvl
    return None


def fetch_path(levels: Tuple) -> Tuple[CacheLevel, ...]:
    """Cache levels an instruction fetch traverses, outermost first."""
    return tuple(lvl for lvl in cache_levels(levels)
                 if lvl.icache is not None)


def data_path(levels: Tuple) -> Tuple[CacheLevel, ...]:
    """Cache levels a data access traverses, outermost first."""
    return tuple(lvl for lvl in cache_levels(levels)
                 if lvl.dcache is not None)


def path_geometry(path, side: str):
    """``(line_size, hit_cycles)`` per level of one access path."""
    attr = "icache" if side == "i" else "dcache"
    return tuple((getattr(lvl, attr).line_size, lvl.hit_cycles)
                 for lvl in path)


def serve_costs(geometry, timing: AccessTiming):
    """Cycle cost of an access by the level that ends up serving it.

    *geometry* is a ``(line_size, hit_cycles)`` sequence for the cache
    levels of one path, outermost first.  Returns a list ``costs`` of
    length ``len(geometry) + 1`` where ``costs[s]`` is the total cycles
    when the access misses levels ``0..s-1`` and is served at level *s*
    (``s == len(geometry)`` meaning main memory).  ``costs[0]`` is a
    plain level-0 hit.

    With a single cache this reproduces the paper's numbers exactly:
    ``[1, 16]`` for a 16-byte line over Table-1 main memory.
    """
    n = len(geometry)
    if n == 0:
        return []
    costs = [geometry[0][1]]
    for serving in range(1, n + 1):
        total = 0
        for i in range(serving):
            line_size = geometry[i][0]
            if i + 1 == n and serving == n:
                total += timing.line_fill_cycles(line_size)
            else:
                total += (line_size // 4) * geometry[i + 1][1]
        costs.append(total)
    return costs
