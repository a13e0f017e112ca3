"""Cache MUST analysis: abstract domain, classification, soundness."""

import pytest

from repro.link import link
from repro.memory import CacheConfig, SystemConfig
from repro.minic import compile_source
from repro.wcet import AH, FM, NC, CacheAnalysis, build_all_cfgs
from repro.wcet.analyzer import analyze_wcet
from repro.wcet.cacheanalysis import analyze_hierarchy
from repro.wcet.stackdepth import stack_region

from .oracles import MayCache, MustCache, record


class TestMustCacheDomain:
    def config(self, assoc=1):
        return CacheConfig(size=64 * assoc, assoc=assoc)

    def test_access_then_contains(self):
        state = MustCache(self.config())
        state.access_block(5)
        assert state.contains(5)

    def test_direct_mapped_conflict_evicts(self):
        state = MustCache(self.config())
        state.access_block(0)
        state.access_block(4)   # 4 sets: block 4 maps to set 0
        assert not state.contains(0)
        assert state.contains(4)

    def test_lru_ages(self):
        state = MustCache(self.config(assoc=2))
        state.access_block(0)
        state.access_block(4)
        assert state.contains(0) and state.contains(4)
        state.access_block(8)   # evicts 0 (age 1)
        assert not state.contains(0)
        assert state.contains(4) and state.contains(8)

    def test_refresh_resets_age(self):
        state = MustCache(self.config(assoc=2))
        state.access_block(0)
        state.access_block(4)
        state.access_block(0)   # refresh
        state.access_block(8)   # evicts 4 now
        assert state.contains(0)
        assert not state.contains(4)

    def test_join_is_intersection_with_max_age(self):
        config = self.config(assoc=2)
        left = MustCache(config)
        left.access_block(0)
        left.access_block(4)    # ages: 4->0, 0->1
        right = MustCache(config)
        right.access_block(4)
        right.access_block(0)   # ages: 0->0, 4->1
        changed = left.join_with(right)
        assert changed
        # Both blocks present in both, but at max age 1 each.
        assert left.sets[0][0] == 1
        assert left.sets[0][4] == 1

    def test_join_drops_one_sided_blocks(self):
        config = self.config()
        left = MustCache(config)
        left.access_block(0)
        right = MustCache(config)
        changed = left.join_with(right)
        assert changed
        assert not left.contains(0)

    def test_age_set_unknown_access(self):
        config = self.config(assoc=2)
        state = MustCache(config)
        state.access_block(0)
        state.age_set(0)
        assert state.contains(0)     # aged to 1, still resident
        state.age_set(0)
        assert not state.contains(0)  # aged out

    def test_write_no_evict(self):
        config = self.config()
        state = MustCache(config)
        state.access_block(0)
        state.age_set(0, evict=False)  # unknown write
        assert state.contains(0)       # capped at assoc-1, not evicted

    def test_copy_is_independent(self):
        state = MustCache(self.config())
        state.access_block(1)
        clone = state.copy()
        clone.access_block(5)
        assert state.contains(1) and not state.contains(5)


def analyze_program(source, cache, persistence=False):
    image = link(compile_source(source).program)
    cfgs = build_all_cfgs(image)
    entry_by_addr = {c.entry: n for n, c in cfgs.items()}
    rng = stack_region(cfgs, "_start", entry_by_addr)
    analysis = CacheAnalysis(image, cfgs, cache, rng, "_start",
                             persistence=persistence)
    return image, cfgs, analysis.run()


LOOP_SOURCE = """
int total;
int main(void) {
    int i;
    total = 0;
    for (i = 0; i < 100; i++) { total += i; }
    return total & 255;
}
"""


class TestClassification:
    def test_straightline_second_fetch_hits(self):
        source = "int main(void) { return 7; }"
        image, cfgs, result = analyze_program(source, CacheConfig(size=256))
        # The very first fetch of the program is cold (NC); within the
        # same 16-byte line, later fetches are guaranteed hits (AH).
        assert result.fetch_class(image.entry) == NC
        second = sorted(result.classes)[1]
        assert result.fetch_class(second) == AH
        classes = [e.fetch for e in result.classes.values()]
        assert classes.count(AH) > classes.count(NC)

    def test_must_only_loop_body_stays_nc_at_header(self):
        # Without persistence the header join (cold path vs warm path)
        # discards the warm information: no AH at the loop header line
        # beyond what straight-line prefetch provides.
        image, cfgs, result = analyze_program(LOOP_SOURCE,
                                              CacheConfig(size=1024))
        assert result.count(FM) == 0

    def test_persistence_upgrades_loop_fetches(self):
        image, cfgs, result = analyze_program(
            LOOP_SOURCE, CacheConfig(size=1024), persistence=True)
        assert result.count(FM) > 0

    def test_icache_ignores_data(self):
        image, cfgs, result = analyze_program(
            LOOP_SOURCE, CacheConfig(size=1024, unified=False),
            persistence=True)
        # Data never clobbers: with persistence every loop fetch line
        # is first-miss or always-hit.
        assert result.count(FM) > 0


def _bench_frontend(key):
    from repro.benchmarks import get
    image = link(compile_source(get(key).source()).program)
    cfgs = build_all_cfgs(image)
    entry_by_addr = {c.entry: n for n, c in cfgs.items()}
    return image, cfgs, stack_region(cfgs, "_start", entry_by_addr)


#: Two-level shapes for the always-miss check: direct-mapped, wider,
#: set-associative, and an instruction-only L1 over a unified L2.
AM_SHAPES = {
    "dm64+l2-1k": lambda: SystemConfig.two_level(
        CacheConfig(size=64), CacheConfig(size=1024)),
    "dm256+l2-2k": lambda: SystemConfig.two_level(
        CacheConfig(size=256), CacheConfig(size=2048)),
    "2way128+4way-l2-2k": lambda: SystemConfig.two_level(
        CacheConfig(size=128, assoc=2), CacheConfig(size=2048, assoc=4)),
    "i64+l2-1k": lambda: SystemConfig.two_level(
        CacheConfig(size=64, unified=False), CacheConfig(size=1024)),
}


class TestSoundness:
    """The cornerstone property: AH-classified accesses never miss, and
    AM-classified accesses never hit."""

    @pytest.mark.parametrize("size", [64, 256, 1024])
    @pytest.mark.parametrize("key", ["adpcm", "multisort"])
    def test_always_hit_fetches_never_miss(self, key, size):
        image, cfgs, rng = _bench_frontend(key)
        cache = CacheConfig(size=size)
        result = CacheAnalysis(image, cfgs, cache, rng, "_start").run()

        sim = record(image, SystemConfig.cached(cache))
        for addr, entry in result.classes.items():
            if entry.fetch == AH:
                assert sim.fetch_misses.get(addr, 0) == 0, hex(addr)
            if entry.data == AH:
                assert sim.read_misses.get(addr, 0) == 0, hex(addr)

    @pytest.mark.parametrize("shape", sorted(AM_SHAPES))
    @pytest.mark.parametrize("key", ["adpcm", "crc", "matmult", "sort_wc"])
    def test_always_miss_accesses_never_hit(self, key, shape):
        """Every L1 access classified always-miss misses the L1 on every
        execution: its miss count equals its execution count."""
        image, cfgs, rng = _bench_frontend(key)
        config = AM_SHAPES[shape]()
        result = analyze_hierarchy(image, cfgs, config, rng, "_start",
                                   reuse=False)
        sim = record(image, config)
        l1 = result.levels[0]
        facts = 0
        for addr, entry in (l1.iresult.classes.items()
                            if l1.iresult is not None else ()):
            if entry.fetch_always_miss:
                facts += 1
                assert sim.fetch_misses.get(addr, 0) == \
                    sim.fetch_counts.get(addr, 0), hex(addr)
        for addr, entry in (l1.dresult.classes.items()
                            if l1.dresult is not None else ()):
            if entry.data_always_miss:
                facts += 1
                assert sim.read_misses.get(addr, 0) == \
                    sim.fetch_counts.get(addr, 0), hex(addr)
        assert facts  # the property must not hold vacuously


class TestMayCacheDomain:
    def config(self):
        return CacheConfig(size=64)

    def test_absent_block_is_guaranteed_miss(self):
        state = MayCache(self.config())
        assert not state.may_contain(5)
        state.add_block(5)
        assert state.may_contain(5)

    def test_never_evicts(self):
        state = MayCache(self.config())
        state.add_block(0)
        for block in range(4, 64, 4):  # many conflicting inserts
            state.add_block(block)
        assert state.may_contain(0)

    def test_top_absorbs(self):
        state = MayCache(self.config())
        state.mark_top(0)
        assert state.may_contain(0) and state.may_contain(4)
        assert not state.may_contain(1)   # other set untouched

    def test_join_is_union(self):
        left = MayCache(self.config())
        left.add_block(0)
        right = MayCache(self.config())
        right.add_block(4)
        assert left.join_with(right)
        assert left.may_contain(0) and left.may_contain(4)
        assert not left.join_with(right)  # already absorbed


class TestMultiLevelChaining:
    SOURCE = """
    int total;
    int main(void) {
        int i;
        total = 0;
        for (i = 0; i < 50; i++) { total += i; }
        return total & 255;
    }
    """

    def hierarchy_result(self, config):
        image = link(compile_source(self.SOURCE).program)
        cfgs = build_all_cfgs(image)
        entry_by_addr = {c.entry: n for n, c in cfgs.items()}
        rng = stack_region(cfgs, "_start", entry_by_addr)
        return image, analyze_hierarchy(image, cfgs, config, rng, "_start")

    def test_primary_matches_single_level_analysis(self):
        l1 = CacheConfig(size=256)
        config = SystemConfig.two_level(l1, CacheConfig(size=1024))
        image, result = self.hierarchy_result(config)
        cfgs = build_all_cfgs(image)
        entry_by_addr = {c.entry: n for n, c in cfgs.items()}
        rng = stack_region(cfgs, "_start", entry_by_addr)
        single = CacheAnalysis(image, cfgs, l1, rng, "_start").run()
        primary = result.primary
        for addr, entry in single.classes.items():
            assert primary.fetch_class(addr) == entry.fetch
            assert primary.data_class(addr) == entry.data

    def test_always_miss_facts_feed_the_l2(self):
        config = SystemConfig.two_level(CacheConfig(size=64),
                                        CacheConfig(size=2048))
        _image, result = self.hierarchy_result(config)
        primary = result.primary
        am = [addr for addr, entry in primary.classes.items()
              if entry.fetch_always_miss]
        # At least the program's first fetch can never hit a cold L1.
        assert am
        # Always-miss and always-hit are mutually exclusive.
        for addr in am:
            assert primary.fetch_class(addr) != AH

    def test_l2_soundness_always_hit_never_served_by_main(self):
        config = SystemConfig.two_level(CacheConfig(size=64),
                                        CacheConfig(size=2048))
        image, result = self.hierarchy_result(config)
        _level, l2res = result.fetch_results()[1]
        sim = record(image, config)
        # An L2-AH fetch may miss L1 but is guaranteed present in L2:
        # the observed access must never fall through to main memory.
        l2_ah = [addr for addr, entry in l2res.classes.items()
                 if entry.fetch == AH]
        assert l2_ah  # the property must not hold vacuously
        for addr in l2_ah:
            assert sim.fetch_main_misses.get(addr, 0) == 0, hex(addr)
        wcet = analyze_wcet(image, config)
        assert wcet.wcet >= sim.cycles


class TestConfigPointKeys:
    def test_level_tuples_distinguish_geometry(self):
        a = SystemConfig.two_level(CacheConfig(size=256),
                                   CacheConfig(size=2048, assoc=1))
        b = SystemConfig.two_level(CacheConfig(size=256),
                                   CacheConfig(size=2048, assoc=4))
        assert a.name == b.name          # names collide by design...
        assert a.levels != b.levels      # ...but the cache keys cannot
        assert hash(a.levels) != hash(b.levels) or a.levels == b.levels
