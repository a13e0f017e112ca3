"""Memory system: regions, Table-1 timing, cache models, hierarchies."""

from .regions import (
    MAIN_BASE,
    MAIN_SIZE,
    SPM_BASE,
    STACK_TOP,
    MemoryMap,
    Region,
    RegionKind,
)
from .timing import (
    BRANCH_REFILL_CYCLES,
    CACHE_HIT_CYCLES,
    MAIN_CYCLES,
    SPM_CYCLES,
    AccessTiming,
    instruction_extra_cycles,
)
from .cache import Cache, CacheConfig, CacheStats
from .levels import (
    CacheLevel,
    MainMemoryLevel,
    SpmLevel,
    serve_costs,
    validate_levels,
)
from .hierarchy import MemoryHierarchy, SystemConfig

__all__ = [
    "MAIN_BASE", "MAIN_SIZE", "SPM_BASE", "STACK_TOP",
    "MemoryMap", "Region", "RegionKind",
    "BRANCH_REFILL_CYCLES", "CACHE_HIT_CYCLES", "MAIN_CYCLES", "SPM_CYCLES",
    "AccessTiming", "instruction_extra_cycles",
    "Cache", "CacheConfig", "CacheStats",
    "CacheLevel", "MainMemoryLevel", "SpmLevel",
    "serve_costs", "validate_levels",
    "MemoryHierarchy", "SystemConfig",
]
