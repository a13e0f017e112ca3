"""Memory map, Table-1 timing and hierarchy cycle accounting."""

import pytest

from repro.memory import (
    MAIN_BASE,
    STACK_TOP,
    AccessTiming,
    CacheConfig,
    MemoryMap,
    Region,
    RegionKind,
    SystemConfig,
)

from .oracles import ReferenceHierarchy


class TestRegions:
    def test_spm_map(self):
        memmap = MemoryMap.with_spm(1024)
        assert memmap.spm_region.size == 1024
        assert memmap.kind_at(0) == RegionKind.SPM
        assert memmap.kind_at(MAIN_BASE) == RegionKind.MAIN

    def test_main_only(self):
        memmap = MemoryMap.main_only()
        assert memmap.spm_region is None
        assert memmap.region_at(100) is None

    def test_unmapped_raises(self):
        memmap = MemoryMap.with_spm(64)
        with pytest.raises(ValueError):
            memmap.kind_at(0x8000)

    def test_overlap_rejected(self):
        with pytest.raises(ValueError):
            MemoryMap([
                Region("a", 0, 100, RegionKind.SPM),
                Region("b", 50, 100, RegionKind.MAIN),
            ])

    def test_region_helpers(self):
        region = Region("x", 0x100, 0x10, RegionKind.MAIN)
        assert region.end == 0x110
        assert region.contains(0x100) and region.contains(0x10F)
        assert not region.contains(0x110)


class TestTable1:
    def test_paper_values(self):
        timing = AccessTiming.table1()
        assert timing.cycles(RegionKind.MAIN, 1) == 2
        assert timing.cycles(RegionKind.MAIN, 2) == 2
        assert timing.cycles(RegionKind.MAIN, 4) == 4
        for width in (1, 2, 4):
            assert timing.cycles(RegionKind.SPM, width) == 1

    def test_line_fill_is_12_extra_waitstates(self):
        timing = AccessTiming.table1()
        # 4 word transfers x 4 cycles = 16 = 4 access cycles + 12 waits.
        assert timing.line_fill_cycles(16) == 16

    def test_bad_width(self):
        with pytest.raises(ValueError):
            AccessTiming.table1().cycles(RegionKind.MAIN, 3)
        with pytest.raises(ValueError):
            AccessTiming.table1().line_fill_cycles(10)


class TestSystemConfig:
    def test_exclusive_spm_or_cache(self):
        with pytest.raises(ValueError):
            SystemConfig(name="x", spm_size=64,
                         cache=CacheConfig(size=64))

    def test_factories(self):
        assert SystemConfig.scratchpad(64).spm_size == 64
        assert SystemConfig.cached(CacheConfig(size=64)).cache is not None
        assert SystemConfig.uncached().spm_size == 0

    def test_describe(self):
        assert "scratchpad" in SystemConfig.scratchpad(64).describe()
        assert "main memory only" in SystemConfig.uncached().describe()


class TestHierarchyCycles:
    def test_spm_fetch_vs_main_fetch(self):
        hier = ReferenceHierarchy(SystemConfig.scratchpad(256))
        assert hier.fetch(0).cycles == 1
        assert hier.fetch(MAIN_BASE).cycles == 2

    def test_spm_data_widths(self):
        hier = ReferenceHierarchy(SystemConfig.scratchpad(256))
        assert hier.read(0, 4).cycles == 1
        assert hier.read(MAIN_BASE, 4).cycles == 4
        assert hier.read(MAIN_BASE, 2).cycles == 2
        assert hier.write(0, 2).cycles == 1
        assert hier.write(MAIN_BASE, 1).cycles == 2

    def test_cache_fetch_miss_then_hit(self):
        hier = ReferenceHierarchy(SystemConfig.cached(CacheConfig(size=64)))
        assert hier.fetch(MAIN_BASE).cycles == 16      # line fill
        assert hier.fetch(MAIN_BASE + 2).cycles == 1   # same line

    def test_cache_write_through_cost(self):
        hier = ReferenceHierarchy(SystemConfig.cached(CacheConfig(size=64)))
        assert hier.write(MAIN_BASE, 4).cycles == 4
        assert hier.write(MAIN_BASE, 2).cycles == 2

    def test_icache_data_bypass(self):
        config = SystemConfig.cached(CacheConfig(size=64, unified=False))
        hier = ReferenceHierarchy(config)
        assert hier.read(MAIN_BASE, 4).cycles == 4     # straight to main
        assert hier.read(MAIN_BASE, 4).cycles == 4     # never cached
        assert hier.fetch(MAIN_BASE).cycles == 16      # fetches cached
        assert hier.fetch(MAIN_BASE).cycles == 1

    def test_unified_read_allocates(self):
        hier = ReferenceHierarchy(SystemConfig.cached(CacheConfig(size=64)))
        assert hier.read(MAIN_BASE, 4).cycles == 16
        assert hier.read(MAIN_BASE + 12, 4).cycles == 1

    def test_reset_clears_cache(self):
        hier = ReferenceHierarchy(SystemConfig.cached(CacheConfig(size=64)))
        hier.fetch(MAIN_BASE)
        hier.reset()
        assert hier.fetch(MAIN_BASE).cycles == 16

    def test_stack_top_inside_main(self):
        memmap = MemoryMap.main_only()
        assert memmap.kind_at(STACK_TOP - 4) == RegionKind.MAIN
