"""Packed bitset abstract-cache domain vs. the dict-based oracle.

The shipped analysis (``repro.wcet.cacheanalysis``: the packed MUST
kernels, the MAY step programs and the fixpoints built on them) must be
observationally identical to the dict ``MustCache`` / ``MayCache``
semantics in ``tests/oracles``.  Three layers of evidence:

* randomized-trace differential tests: the same operation stream
  (definite/uncertain accesses, no-allocate writes, set and whole-cache
  aging, joins, MAY_TOP) applied to the shipped kernels and to the dict
  domain yields the same decoded state after *every* step;
* whole-analysis differential tests: ``CacheAnalysis`` and the oracle's
  ``DictCacheAnalysis`` produce instruction-identical classifications
  on real benchmarks, single-level and CAC-chained multi-level, at
  several line sizes, behind a scratchpad and with split I/D, and a
  sweep sharing one access layout classifies as each size alone;
* interning and reuse-cache invariants: hash-consed states are shared
  objects, and the content-addressed reuse cache (memory and disk
  layers) returns results equal to a fresh analysis.
"""

import random

import pytest

from repro.link import link
from repro.memory import CacheConfig, SystemConfig
from repro.minic import compile_source
from repro.wcet import CacheAnalysis, PackedCacheDomain, build_all_cfgs
from repro.wcet import cacheanalysis
from repro.wcet.cacheanalysis import (
    _intern,
    _must_access,
    _must_age,
    _must_uncertain,
    _must_write,
    analyze_hierarchy,
)
from repro.wcet.stackdepth import stack_region

from .oracles import (
    DictCacheAnalysis,
    MayCache,
    MustCache,
    may_decode,
    must_decode,
)

CONFIGS = [
    CacheConfig(size=64),                 # direct mapped, 4 sets
    CacheConfig(size=128, assoc=2),       # 2-way, 4 sets
    CacheConfig(size=64, assoc=4),        # 4-way, 1 set
    CacheConfig(size=256, assoc=2),       # 2-way, 8 sets
]


def _random_trace(rng, config, universe, length):
    """A stream of abstract-domain operations over *universe* blocks."""
    ops = []
    for _ in range(length):
        kind = rng.randrange(8)
        if kind <= 2:
            ops.append(("access", rng.choice(universe)))
        elif kind == 3:
            ops.append(("uncertain", rng.choice(universe)))
        elif kind == 4:
            ops.append(("write", rng.choice(universe)))
        elif kind == 5:
            indices = rng.sample(range(config.num_sets),
                                 rng.randrange(1, config.num_sets + 1))
            ops.append(("age_sets", tuple(indices), rng.random() < 0.5))
        elif kind == 6:
            ops.append(("age_all", rng.random() < 0.5))
        else:
            ops.append(("join",))
    return ops


def _age_mask(domain, indices):
    mask = 0
    for index in indices:
        mask |= domain.set_mask[index]
    return mask


class TestMustDifferential:
    """Random traces: the shipped MUST kernels decode to the dict oracle."""

    def _apply_dict(self, state, other, op):
        if op[0] == "access":
            state.access_block(op[1])
        elif op[0] == "uncertain":
            state.access_block_uncertain(op[1])
        elif op[0] == "write":
            state.access_block(op[1], allocate=state.contains(op[1]))
        elif op[0] == "age_sets":
            for index in op[1]:
                state.age_set(index, evict=op[2])
        elif op[0] == "age_all":
            for index in list(state.sets):
                state.age_set(index, evict=op[1])
        else:
            state.join_with(other)

    def _apply_packed(self, domain, words, other, op):
        """Drive the kernel *op* names on *words* (in place)."""
        assoc = domain.config.assoc
        if op[0] in ("access", "uncertain", "write"):
            kernel = {"access": _must_access, "uncertain": _must_uncertain,
                      "write": _must_write}[op[0]]
            block = op[1]
            kernel(words, assoc, domain.bit[block],
                   domain.set_mask[block % domain.config.num_sets])
        elif op[0] == "age_sets":
            _must_age(words, assoc, _age_mask(domain, op[1]), op[2])
        elif op[0] == "age_all":
            _must_age(words, assoc, domain.universe_mask, op[1])
        else:
            words[:] = [x & y for x, y in zip(words, other)]

    @pytest.mark.parametrize("config", CONFIGS)
    @pytest.mark.parametrize("seed", range(6))
    def test_random_traces(self, config, seed):
        rng = random.Random(seed * 1000 + config.size + config.assoc)
        universe = list(range(0, 24))
        domain = PackedCacheDomain(config, universe)

        # A second, independently evolved state feeds the joins.
        dict_state, dict_other = MustCache(config), MustCache(config)
        words = [0] * config.assoc
        other = [0] * config.assoc
        for block in rng.sample(universe, 8):
            dict_other.access_block(block)
            self._apply_packed(domain, other, None, ("access", block))

        for step, op in enumerate(_random_trace(rng, config, universe, 160)):
            self._apply_dict(dict_state, dict_other, op)
            self._apply_packed(domain, words, other, op)
            decoded = must_decode(domain, words)
            assert decoded.fingerprint() == dict_state.fingerprint(), \
                f"seed {seed} {config} diverged at step {step}: {op}"
            for block in universe:
                assert bool(words[-1] & domain.bit[block]) == \
                    dict_state.contains(block)


class TestMayDifferential:
    """Random traces: the shipped MAY step programs decode to the dict
    oracle (``(0, bits)`` inserts, ``(1, top, blocks)`` marks TOP)."""

    @pytest.mark.parametrize("config", CONFIGS)
    @pytest.mark.parametrize("seed", range(6))
    def test_random_traces(self, config, seed):
        rng = random.Random(seed * 77 + config.num_sets)
        universe = list(range(0, 24))
        domain = PackedCacheDomain(config, universe)
        run = CacheAnalysis._run_may_packed

        def mark_top(index):
            return (1, 1 << index, domain.set_mask[index])

        dict_state, dict_other = MayCache(config), MayCache(config)
        state = other = (0, 0)
        for block in rng.sample(universe, 6):
            dict_other.add_block(block)
            other = run(other, ((0, domain.bit[block]),))
        dict_other.mark_top(0)
        other = run(other, (mark_top(0),))

        for step in range(160):
            kind = rng.randrange(6)
            if kind <= 2:
                block = rng.choice(universe)
                dict_state.add_block(block)
                state = run(state, ((0, domain.bit[block]),))
            elif kind == 3:
                index = rng.randrange(config.num_sets)
                dict_state.mark_top(index)
                state = run(state, (mark_top(index),))
            elif kind == 4 and rng.random() < 0.2:
                dict_state.mark_all_top()
                state = run(state, ((1, domain.all_top_mask,
                                     domain.universe_mask),))
            else:
                dict_state.join_with(dict_other)
                state = (state[0] | other[0], state[1] | other[1])
            decoded = may_decode(domain, *state)
            assert decoded.fingerprint() == dict_state.fingerprint(), \
                f"seed {seed} {config} diverged at step {step}"
            for block in universe:
                possible = bool(state[1] >> (block % config.num_sets) & 1
                                or state[0] & domain.bit[block])
                assert possible == dict_state.may_contain(block)


# -- whole-analysis differential --------------------------------------------

LOOPY_SOURCE = """
int data[32];
int total;
int main(void) {
    int i;
    int j;
    total = 0;
    for (i = 0; i < 8; i++) {
        #pragma loopbound 32
        for (j = 0; j < 32; j++) { data[j] = data[j] + i; }
        total += data[i];
    }
    return total & 255;
}
"""


def _frontend(source):
    image = link(compile_source(source).program)
    cfgs = build_all_cfgs(image)
    entry_by_addr = {cfg.entry: name for name, cfg in cfgs.items()}
    rng = stack_region(cfgs, "_start", entry_by_addr)
    return image, cfgs, rng


def _classes_equal(a, b):
    assert set(a.classes) == set(b.classes)
    for addr, entry in a.classes.items():
        assert vars(entry) == vars(b.classes[addr]), hex(addr)


def _bench_frontend(key):
    from repro.benchmarks import get
    return _frontend(get(key).source())


class TestAnalysisDifferential:
    @pytest.mark.parametrize("key", ["crc", "fir"])
    @pytest.mark.parametrize("cache", [
        CacheConfig(size=64),
        CacheConfig(size=256, assoc=2),
        CacheConfig(size=512, assoc=4),
        CacheConfig(size=256, unified=False),
    ])
    def test_single_level(self, key, cache):
        image, cfgs, rng = _bench_frontend(key)
        for persistence in (False, True):
            results = [
                analysis(image, cfgs, cache, rng, "_start",
                         persistence=persistence, always_miss=True).run()
                for analysis in (DictCacheAnalysis, CacheAnalysis)
            ]
            _classes_equal(*results)

    @pytest.mark.parametrize("config", [
        SystemConfig.two_level(CacheConfig(size=64),
                               CacheConfig(size=1024)),
        SystemConfig.two_level(CacheConfig(size=128, assoc=2),
                               CacheConfig(size=2048, assoc=4)),
        SystemConfig.split_l1(CacheConfig(size=128, unified=False),
                              CacheConfig(size=128)),
        SystemConfig.hybrid(256, CacheConfig(size=128)),
    ])
    def test_hierarchy(self, config, monkeypatch):
        image, cfgs, rng = _frontend(LOOPY_SOURCE)
        packed = analyze_hierarchy(image, cfgs, config, rng, "_start",
                                   reuse=False)
        monkeypatch.setattr(cacheanalysis, "CacheAnalysis",
                            DictCacheAnalysis)
        plain = analyze_hierarchy(image, cfgs, config, rng, "_start",
                                  reuse=False)
        results = (plain, packed)
        for level_dict, level_packed in zip(results[0].levels,
                                            results[1].levels):
            for a, b in ((level_dict.iresult, level_packed.iresult),
                         (level_dict.dresult, level_packed.dresult)):
                assert (a is None) == (b is None)
                if a is not None:
                    _classes_equal(a, b)


    @pytest.mark.parametrize("key", ["adpcm", "g721"])
    @pytest.mark.parametrize("config", [
        SystemConfig.cached(CacheConfig(size=256, line_size=8)),
        SystemConfig.cached(CacheConfig(size=1024, line_size=32, assoc=2)),
        SystemConfig.hybrid(512, CacheConfig(size=256, line_size=8,
                                             assoc=2)),
        SystemConfig.split_l1(
            CacheConfig(size=256, line_size=32, unified=False),
            CacheConfig(size=128, line_size=8, assoc=2)),
        SystemConfig.two_level(CacheConfig(size=128, line_size=8),
                               CacheConfig(size=2048, line_size=32,
                                           assoc=4)),
    ], ids=["line8", "line32-2way", "hybrid-clipped", "split",
            "l1+l2"])
    def test_suite_hierarchies(self, key, config, monkeypatch):
        """Every level's whole classification equals the oracle's, with
        and without persistence: line sizes 8 and 32, a scratchpad that
        clips accesses, split I/D and always-miss chaining to an L2."""
        from repro.benchmarks import get
        from repro.workflow import Workflow
        image, _ = Workflow(get(key).source()).image_for(config)
        cfgs = build_all_cfgs(image)
        entry_by_addr = {cfg.entry: name for name, cfg in cfgs.items()}
        rng = stack_region(cfgs, "_start", entry_by_addr)
        for persistence in (False, True):
            packed = analyze_hierarchy(image, cfgs, config, rng, "_start",
                                       persistence=persistence,
                                       reuse=False)
            with monkeypatch.context() as patch:
                patch.setattr(cacheanalysis, "CacheAnalysis",
                              DictCacheAnalysis)
                plain = analyze_hierarchy(image, cfgs, config, rng,
                                          "_start", persistence=persistence,
                                          reuse=False)
            for level_dict, level_packed in zip(plain.levels,
                                                packed.levels):
                for a, b in ((level_dict.iresult, level_packed.iresult),
                             (level_dict.dresult, level_packed.dresult)):
                    assert (a is None) == (b is None)
                    if a is not None:
                        _classes_equal(a, b)


class TestAccessLayout:
    def test_sweep_shares_one_layout(self):
        """An 8-size sweep builds one access layout and reuses it; every
        size classifies exactly as when analysed alone from scratch."""
        from repro.workflow import PAPER_SIZES
        image, cfgs, rng = _bench_frontend("adpcm")
        configs = [SystemConfig.cached(CacheConfig(size=size))
                   for size in PAPER_SIZES]
        cacheanalysis.clear_analysis_caches()
        before = dict(cacheanalysis.COUNTERS)
        shared = [analyze_hierarchy(image, cfgs, config, rng, "_start")
                  for config in configs]
        after = cacheanalysis.COUNTERS
        assert after["layout_builds"] - before["layout_builds"] == 1
        assert after["layout_reuses"] - before["layout_reuses"] == 7
        for config, result in zip(configs, shared):
            cacheanalysis.clear_analysis_caches()
            alone = analyze_hierarchy(image, cfgs, config, rng, "_start",
                                      reuse=False)
            _classes_equal(result.primary, alone.primary)


# -- interning and the reuse cache ------------------------------------------

class TestInterning:
    def test_intern_returns_canonical_object(self):
        table = {}
        first = (1, 2, 3)
        assert _intern(table, first) is first
        assert _intern(table, (1, 2, 3)) is first  # distinct but equal
        assert _intern(table, 7) == 7

    def test_analysis_interns_states(self):
        image, cfgs, rng = _frontend(LOOPY_SOURCE)
        before = dict(cacheanalysis.COUNTERS)
        result = CacheAnalysis(image, cfgs, CacheConfig(size=128), rng,
                               "_start").run()
        after = cacheanalysis.COUNTERS
        # A fixpoint revisits nodes whose out-state stabilised: most
        # transfers reproduce an already-interned state.
        assert after["intern_hits"] > before["intern_hits"]
        assert after["intern_misses"] > before["intern_misses"]
        again = CacheAnalysis(image, cfgs, CacheConfig(size=128), rng,
                              "_start").run()
        _classes_equal(result, again)

    def test_shared_tables_share_states_across_analyses(self):
        image, cfgs, rng = _frontend(LOOPY_SOURCE)
        tables = ({}, {})
        for _ in range(2):
            CacheAnalysis(image, cfgs, CacheConfig(size=128), rng,
                          "_start", intern_tables=tables).run()
        must_table = tables[0]
        assert must_table
        for state, canonical in must_table.items():
            assert state is canonical


class TestReuseCache:
    def _hierarchy(self, image, cfgs, rng, config):
        return analyze_hierarchy(image, cfgs, config, rng, "_start")

    def test_memory_layer_hits(self):
        image, cfgs, rng = _frontend(LOOPY_SOURCE)
        config = SystemConfig.two_level(CacheConfig(size=64),
                                        CacheConfig(size=1024))
        cacheanalysis.clear_analysis_caches()
        before = dict(cacheanalysis.COUNTERS)
        first = self._hierarchy(image, cfgs, rng, config)
        mid = dict(cacheanalysis.COUNTERS)
        assert mid["reuse_misses"] - before["reuse_misses"] == 2  # L1 + L2
        second = self._hierarchy(image, cfgs, rng, config)
        after = cacheanalysis.COUNTERS
        assert after["reuse_hits"] - mid["reuse_hits"] == 2
        # Cache hits return the very same result objects.
        assert second.levels[0].iresult is first.levels[0].iresult
        assert second.levels[1].iresult is first.levels[1].iresult

    def test_l1_reused_across_l2_sweep(self):
        image, cfgs, rng = _frontend(LOOPY_SOURCE)
        cacheanalysis.clear_analysis_caches()
        l1 = CacheConfig(size=64)
        results = [
            self._hierarchy(image, cfgs, rng,
                            SystemConfig.two_level(l1, CacheConfig(size=size)))
            for size in (512, 1024, 2048)
        ]
        # The outermost (L1) analysis is one shared object everywhere:
        # only the L2 fixpoints ran per sweep point.
        assert results[1].levels[0].iresult is results[0].levels[0].iresult
        assert results[2].levels[0].iresult is results[0].levels[0].iresult

    def test_disk_layer_round_trip(self, tmp_path):
        image, cfgs, rng = _frontend(LOOPY_SOURCE)
        config = SystemConfig.cached(CacheConfig(size=128))
        cacheanalysis.set_analysis_cache_dir(tmp_path)
        try:
            cacheanalysis.clear_analysis_caches()
            first = self._hierarchy(image, cfgs, rng, config)
            assert list(tmp_path.rglob("*.pkl"))  # sharded store layout
            # A "new process": empty memory layer, same directory.
            cacheanalysis.clear_analysis_caches()
            before = dict(cacheanalysis.COUNTERS)
            second = self._hierarchy(image, cfgs, rng, config)
            after = cacheanalysis.COUNTERS
            assert after["reuse_disk_hits"] > before["reuse_disk_hits"]
            _classes_equal(first.primary, second.primary)
        finally:
            cacheanalysis.set_analysis_cache_dir(None)

    def test_content_key_tracks_image_content(self):
        image_a, _, _ = _frontend(LOOPY_SOURCE)
        image_b, _, _ = _frontend(LOOPY_SOURCE)
        image_c, _, _ = _frontend(LOOPY_SOURCE.replace("i < 8", "i < 7"))
        assert image_a.content_key() == image_b.content_key()
        assert image_a.content_key() != image_c.content_key()
