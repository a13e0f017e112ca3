"""Level pipeline: specs, validation, chain costs, hierarchy outcomes."""

import pytest

from repro.memory import (
    MAIN_BASE,
    AccessTiming,
    CacheConfig,
    CacheLevel,
    MainMemoryLevel,
    SpmLevel,
    SystemConfig,
    serve_costs,
    validate_levels,
)
from repro.memory.levels import path_geometry

from .oracles import ReferenceHierarchy


class TestLevelSpecs:
    def test_cache_level_needs_a_side(self):
        with pytest.raises(ValueError):
            CacheLevel(name="L1")

    def test_shared_needs_one_config(self):
        with pytest.raises(ValueError):
            CacheLevel(name="L1", icache=CacheConfig(size=64),
                       dcache=CacheConfig(size=64), shared=True)

    @pytest.mark.parametrize("config", [
        SystemConfig.cached(CacheConfig(size=256)),
        SystemConfig.two_level(CacheConfig(size=256),
                               CacheConfig(size=1024, assoc=4)),
        SystemConfig.split_l1(CacheConfig(size=128, unified=False),
                              CacheConfig(size=256)),
        SystemConfig.hybrid(256, CacheConfig(size=512)),
    ], ids=["unified", "l1+l2", "split", "hybrid"])
    def test_repr_round_trips(self, config):
        # A unified level's repr names its factory, so the one config
        # stays one object when the repr is evaluated.
        namespace = {
            "AccessTiming": AccessTiming, "CacheConfig": CacheConfig,
            "CacheLevel": CacheLevel, "MainMemoryLevel": MainMemoryLevel,
            "SpmLevel": SpmLevel, "SystemConfig": SystemConfig}
        assert eval(repr(config), namespace) == config

    def test_spm_positive(self):
        with pytest.raises(ValueError):
            SpmLevel(0)

    def test_factories(self):
        cfg = CacheConfig(size=64)
        unified = CacheLevel.unified(cfg)
        assert unified.shared and unified.icache is unified.dcache
        instr = CacheLevel.instruction(cfg)
        assert instr.icache is cfg and instr.dcache is None
        split = CacheLevel.split(cfg, CacheConfig(size=128))
        assert split.icache is cfg and split.dcache.size == 128


class TestValidation:
    def test_must_end_at_main(self):
        with pytest.raises(ValueError):
            validate_levels((SpmLevel(64),))

    def test_spm_must_be_first(self):
        with pytest.raises(ValueError):
            validate_levels((CacheLevel.unified(CacheConfig(size=64)),
                             SpmLevel(64), MainMemoryLevel()))

    def test_one_spm_only(self):
        with pytest.raises(ValueError):
            validate_levels((SpmLevel(64), SpmLevel(64),
                             MainMemoryLevel()))

    def test_line_sizes_must_nest(self):
        l1 = CacheLevel.unified(CacheConfig(size=64, line_size=32))
        l2 = CacheLevel.unified(CacheConfig(size=256, line_size=16),
                                name="L2")
        with pytest.raises(ValueError):
            validate_levels((l1, l2, MainMemoryLevel()))

    def test_good_pipelines(self):
        validate_levels((MainMemoryLevel(),))
        validate_levels((SpmLevel(64),
                         CacheLevel.unified(CacheConfig(size=64)),
                         CacheLevel.unified(CacheConfig(size=512),
                                            name="L2"),
                         MainMemoryLevel()))


class TestServeCosts:
    def test_single_level_matches_table1(self):
        timing = AccessTiming.table1()
        geometry = ((16, 1),)
        # Hit = 1 cycle, miss = the paper's 16-cycle line fill.
        assert serve_costs(geometry, timing) == [1, 16]

    def test_two_level(self):
        timing = AccessTiming.table1()
        geometry = ((16, 1), (16, 1))
        # L1 hit 1; L2 hit = 4 word transfers at L2 speed; main =
        # L2 line fill (16) plus the L1 refill from L2 (4).
        assert serve_costs(geometry, timing) == [1, 4, 20]

    def test_slow_l2(self):
        timing = AccessTiming.table1()
        geometry = ((16, 1), (32, 2))
        assert serve_costs(geometry, timing) == [1, 8, 8 + 32]

    def test_path_geometry(self):
        l1 = CacheLevel.split(CacheConfig(size=64, line_size=16),
                              CacheConfig(size=128, line_size=32))
        assert path_geometry((l1,), "i") == ((16, 1),)
        assert path_geometry((l1,), "d") == ((32, 1),)


class TestSystemConfigPipelines:
    def test_legacy_shapes_derive_levels(self):
        spm = SystemConfig.scratchpad(256)
        assert isinstance(spm.levels[0], SpmLevel)
        assert isinstance(spm.levels[-1], MainMemoryLevel)
        cached = SystemConfig.cached(CacheConfig(size=64))
        assert cached.levels[0].shared
        assert SystemConfig.uncached().levels == (MainMemoryLevel(),)

    def test_legacy_mirrors_from_levels(self):
        config = SystemConfig.hybrid(128, CacheConfig(size=64))
        assert config.spm_size == 128
        assert config.cache.size == 64
        two = SystemConfig.two_level(CacheConfig(size=64),
                                     CacheConfig(size=512))
        assert two.cache.size == 64
        assert len(two.cache_level_specs) == 2

    def test_split_paths(self):
        config = SystemConfig.split_l1(
            CacheConfig(size=64, unified=False), CacheConfig(size=128))
        assert [lvl.icache.size for lvl in config.fetch_path()] == [64]
        assert [lvl.dcache.size for lvl in config.data_path()] == [128]

    def test_icache_l2_paths(self):
        config = SystemConfig.two_level(
            CacheConfig(size=64, unified=False), CacheConfig(size=512))
        assert len(config.fetch_path()) == 2
        assert len(config.data_path()) == 1  # only the unified L2

    def test_describe_names_levels(self):
        config = SystemConfig.two_level(CacheConfig(size=64),
                                        CacheConfig(size=512))
        assert "L2" in config.describe()
        assert "main memory" in config.describe()


class TestHierarchyOutcomes:
    def test_outcome_fields(self):
        hier = ReferenceHierarchy(SystemConfig.cached(CacheConfig(size=64)))
        out = hier.fetch(MAIN_BASE)
        assert (out.cycles, out.missed, out.served_by) == (16, True, "main")
        out = hier.fetch(MAIN_BASE)
        assert (out.cycles, out.missed, out.served_by) == (1, False, "L1")

    def test_two_level_fetch_costs(self):
        config = SystemConfig.two_level(CacheConfig(size=64),
                                        CacheConfig(size=1024))
        hier = ReferenceHierarchy(config)
        assert hier.fetch(MAIN_BASE).cycles == 20        # both cold
        # Evict the L1 line (64 B cache: +64 conflicts), keep L2 warm.
        hier.fetch(MAIN_BASE + 64)
        out = hier.fetch(MAIN_BASE)
        assert (out.cycles, out.served_by) == (4, "L2")
        assert out.missed

    def test_split_paths_are_independent(self):
        config = SystemConfig.split_l1(
            CacheConfig(size=64, unified=False), CacheConfig(size=64))
        hier = ReferenceHierarchy(config)
        hier.fetch(MAIN_BASE)
        # A data read of the same line still misses: separate arrays.
        assert hier.read(MAIN_BASE, 4).missed
        assert not hier.read(MAIN_BASE + 4, 4).missed
        assert set(hier.level_stats) == {"L1I", "L1D"}

    def test_hybrid_spm_bypasses_cache(self):
        config = SystemConfig.hybrid(256, CacheConfig(size=64))
        hier = ReferenceHierarchy(config)
        out = hier.fetch(0)
        assert (out.cycles, out.missed, out.served_by) == (1, False, "spm")
        assert hier.cache.stats.fetch_misses == 0   # never consulted
        assert hier.fetch(MAIN_BASE).cycles == 16   # cache path intact

    def test_write_through_touches_every_level(self):
        config = SystemConfig.two_level(CacheConfig(size=64),
                                        CacheConfig(size=1024))
        hier = ReferenceHierarchy(config)
        hier.read(MAIN_BASE, 4)                      # both levels warm
        assert hier.write(MAIN_BASE, 4).cycles == 4  # main cost
        stats = hier.level_stats
        assert stats["L1"].write_hits == 1
        assert stats["L2"].write_hits == 1

    def test_legacy_exclusive_error_mentions_hybrid(self):
        with pytest.raises(ValueError, match="hybrid"):
            SystemConfig(name="x", spm_size=64, cache=CacheConfig(size=64))
