"""Cache model: geometry, LRU replacement, write policy, stats.

The per-access tag model is the oracle's :class:`ReferenceCache`; the
shipped fast path is held to it by ``test_sim_fastpath.py``.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.memory import CacheConfig

from .oracles import ReferenceCache


class TestConfig:
    def test_geometry(self):
        config = CacheConfig(size=256, line_size=16, assoc=1)
        assert config.num_sets == 16
        assert config.set_index(0) == 0
        assert config.set_index(16) == 1
        assert config.set_index(256) == 0  # wraps

    def test_block_of(self):
        config = CacheConfig(size=64)
        assert config.block_of(0) == 0
        assert config.block_of(15) == 0
        assert config.block_of(16) == 1

    def test_blocks_in_range(self):
        config = CacheConfig(size=64)
        assert list(config.blocks_in_range(0, 16)) == [0]
        assert list(config.blocks_in_range(0, 17)) == [0, 1]
        assert list(config.blocks_in_range(15, 17)) == [0, 1]
        assert list(config.blocks_in_range(8, 8)) == []

    def test_invalid_geometry(self):
        with pytest.raises(ValueError):
            CacheConfig(size=100)       # not divisible into lines
        with pytest.raises(ValueError):
            CacheConfig(size=0)
        with pytest.raises(ValueError):
            CacheConfig(size=64, line_size=12)  # not a power of two
        for bad in (dict(assoc=0), dict(assoc=-2), dict(line_size=0)):
            with pytest.raises(ValueError):
                CacheConfig(size=512, **bad)

    def test_describe(self):
        assert "direct mapped" in CacheConfig(size=64).describe()
        assert "2-way" in CacheConfig(size=64, assoc=2).describe()
        assert "instruction" in CacheConfig(size=64,
                                            unified=False).describe()


class TestDirectMapped:
    def test_miss_then_hit(self):
        cache = ReferenceCache(CacheConfig(size=64))
        assert not cache.read(0)
        assert cache.read(0)
        assert cache.read(4)            # same line
        assert cache.stats.read_hits == 2
        assert cache.stats.read_misses == 1

    def test_conflict_eviction(self):
        cache = ReferenceCache(CacheConfig(size=64))  # 4 sets
        assert not cache.read(0)
        assert not cache.read(64)        # same set, evicts block 0
        assert not cache.read(0)         # miss again

    def test_fetch_counters_separate(self):
        cache = ReferenceCache(CacheConfig(size=64))
        cache.fetch(0)
        cache.fetch(0)
        assert cache.stats.fetch_misses == 1
        assert cache.stats.fetch_hits == 1
        assert cache.stats.read_hits == 0

    def test_write_through_no_allocate(self):
        cache = ReferenceCache(CacheConfig(size=64))
        assert not cache.write(0)        # write miss
        assert not cache.contains(0)     # ...does not allocate
        cache.read(0)
        assert cache.write(0)            # write hit
        assert cache.contains(0)         # ...line stays resident

    def test_reset(self):
        cache = ReferenceCache(CacheConfig(size=64))
        cache.read(0)
        cache.reset()
        assert not cache.contains(0)
        assert cache.stats.misses == 0


class TestSetAssociative:
    def test_two_way_no_conflict(self):
        # 4 sets, 2 ways
        cache = ReferenceCache(CacheConfig(size=128, assoc=2))
        cache.read(0)
        cache.read(64)                  # same set, second way
        assert cache.contains(0) and cache.contains(64)

    def test_lru_eviction_order(self):
        cache = ReferenceCache(CacheConfig(size=128, assoc=2))
        cache.read(0)
        cache.read(64)
        cache.read(0)                   # refresh block 0
        cache.read(128)                 # evicts 64 (LRU), not 0
        assert cache.contains(0)
        assert not cache.contains(64)
        assert cache.contains(128)


# -- reference-model cross-check ------------------------------------------------

class _ReferenceLRU:
    """Straightforward LRU model used as an oracle."""

    def __init__(self, num_sets, assoc, line_size):
        self.num_sets = num_sets
        self.assoc = assoc
        self.line_size = line_size
        self.sets = [[] for _ in range(num_sets)]

    def access(self, addr, write=False):
        block = addr // self.line_size
        ways = self.sets[block % self.num_sets]
        hit = block in ways
        if hit:
            ways.remove(block)
            ways.insert(0, block)
        elif not write:
            ways.insert(0, block)
            del ways[self.assoc:]
        return hit


@settings(max_examples=200, deadline=None)
@given(
    assoc=st.sampled_from([1, 2, 4]),
    ops=st.lists(
        st.tuples(st.booleans(), st.integers(0, 255)), max_size=120),
)
def test_cache_matches_reference_lru(assoc, ops):
    config = CacheConfig(size=64 * assoc, assoc=assoc)
    cache = ReferenceCache(config)
    reference = _ReferenceLRU(config.num_sets, assoc, config.line_size)
    for is_write, addr4 in ops:
        addr = addr4 * 4
        if is_write:
            assert cache.write(addr) == reference.access(addr, write=True)
        else:
            assert cache.read(addr) == reference.access(addr)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.integers(0, 1023), max_size=200))
def test_contents_subset_of_accessed(addrs):
    cache = ReferenceCache(CacheConfig(size=128))
    accessed_blocks = set()
    for addr in addrs:
        cache.read(addr)
        accessed_blocks.add(cache.config.block_of(addr))
    for ways in cache.sets:
        assert set(ways) <= accessed_blocks
        assert len(ways) <= cache.config.assoc
