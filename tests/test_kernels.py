"""Pins for the vectorised replay kernels and the trace RLE form.

Five layers, the first four against one oracle: ``walk_replay``, the
per-access walk through the reference hierarchy in ``tests/oracles``
(the recording interpreter's cache model, which the kernels share no
code with):

* **shape differential** — every committed hierarchy shape replayed
  by the kernels must equal the walk on the full result; the
  set-associative shapes include a 4-way L2 behind an L1, 2-way split
  sides and a set count that is not a power of two;
* **set-associative kernel property** — the numpy LRU kernel must equal
  the walk on write-heavy synthetic streams at associativity 2, 3, 4
  and 8, per config and in grids whose points share a set count;
* **geometry-grid property** — one :func:`replay_grid` pass over a
  (size × associativity) grid must equal per-point replays and the walk
  on adversarial synthetic streams (hypothesis-driven, write-heavy
  included) and equal the engine on generated (``gen:<seed>``)
  programs;
* **grid cascade and the unrolled walks** — grids over a chain of set
  counts, which carry settled probes to the finer set counts, must
  equal the walk on run-heavy write streams (a quarter or more of the
  probes settled), and hand-built one-set traces pin write hits at
  each way, write misses and write-led runs at 2 and 4 ways;
* **run-length encoding** — compress/expand round trips (strided,
  constant and unencodable streams), the pickle fast path in both its
  ``"runs"`` and ``"flat"`` branches, and :meth:`Trace.compact`.
"""

import pickle
import random
from array import array

import pytest
from hypothesis import given, settings, strategies as st

from repro.benchmarks import get
from repro.link import link
from repro.memory import CacheConfig, SystemConfig
from repro.memory.regions import MAIN_BASE
from repro.minic import compile_source
from repro.sim import Simulator
from repro.sim import kernels
from repro.sim.replay import replay, replay_grid
from repro.sim.trace import (COUNTERS, READ_TAGS, WRITE_TAGS, Trace,
                             record_trace)

from .oracles import compress_ops, walk_replay

SPM_SIZE = 512

SHAPES = {
    "uncached": lambda: SystemConfig.uncached(),
    "spm": lambda: SystemConfig.scratchpad(SPM_SIZE),
    "l1": lambda: SystemConfig.cached(CacheConfig(size=512)),
    "l1-2way": lambda: SystemConfig.cached(CacheConfig(size=512, assoc=2)),
    "icache": lambda: SystemConfig.cached(
        CacheConfig(size=512, unified=False)),
    "hybrid": lambda: SystemConfig.hybrid(SPM_SIZE, CacheConfig(size=256)),
    "l1+l2": lambda: SystemConfig.two_level(
        CacheConfig(size=256), CacheConfig(size=1024)),
    "split-i/d": lambda: SystemConfig.split_l1(
        CacheConfig(size=256, unified=False), CacheConfig(size=256)),
    "l1-4way": lambda: SystemConfig.cached(CacheConfig(size=512, assoc=4)),
    "l1+l2-4way": lambda: SystemConfig.two_level(
        CacheConfig(size=256), CacheConfig(size=2048, assoc=4)),
    "split-i/d-2way": lambda: SystemConfig.split_l1(
        CacheConfig(size=256, assoc=2, unified=False),
        CacheConfig(size=256, assoc=2)),
    "l1-2way-15sets": lambda: SystemConfig.cached(
        CacheConfig(size=480, assoc=2)),
}

_IMAGES = {}
_TRACES = {}


def _image(spm: bool):
    if spm not in _IMAGES:
        program = compile_source(get("crc").source()).program
        if not spm:
            _IMAGES[spm] = link(program)
        else:
            chosen, used = [], 0
            for name, _kind, size in sorted(program.memory_objects(),
                                            key=lambda o: (o[2], o[0])):
                aligned = (size + 3) & ~3
                if used + aligned <= SPM_SIZE:
                    chosen.append(name)
                    used += aligned
            _IMAGES[spm] = link(program, spm_size=SPM_SIZE,
                                spm_objects=chosen)
    return _IMAGES[spm]


def _trace(spm: bool):
    if spm not in _TRACES:
        _TRACES[spm] = record_trace(_image(spm), SPM_SIZE if spm else 0)
    return _TRACES[spm]


def _stats_tuple(stats):
    if stats is None:
        return None
    return (stats.fetch_hits, stats.fetch_misses, stats.read_hits,
            stats.read_misses, stats.write_hits, stats.write_misses)


def _assert_same(got, want, context):
    assert got.cycles == want.cycles, context
    assert got.instructions == want.instructions, context
    assert _stats_tuple(got.cache_stats) == \
        _stats_tuple(want.cache_stats), context
    assert set(got.level_stats) == set(want.level_stats), context
    for level in want.level_stats:
        assert _stats_tuple(got.level_stats[level]) == \
            _stats_tuple(want.level_stats[level]), (context, level)


# -- kernels == walk over every committed shape -------------------------------

@pytest.mark.parametrize("shape", SHAPES)
def test_numpy_matches_scalar_every_shape(shape):
    spm = shape in ("spm", "hybrid")
    trace = _trace(spm)
    config = SHAPES[shape]()
    _assert_same(replay(trace, config), walk_replay(trace, config), shape)


def test_every_cached_shape_takes_the_kernels():
    """LRU is the one replacement policy, so no cached pipeline falls
    back to a per-access walk: each replay is served by the kernels."""
    with pytest.raises(TypeError):
        CacheConfig(size=256, assoc=2, replacement="fifo")
    for shape, make in SHAPES.items():
        config = make()
        if not config.has_cache:
            continue
        before = dict(COUNTERS)
        replay(_trace(bool(config.spm_size)), config)
        assert COUNTERS["replay_numpy"] == before["replay_numpy"] + 1, shape
        assert COUNTERS["replay_scalar"] == before["replay_scalar"], shape


# -- geometry grid: one pass == per-point == engine --------------------------

def _synthetic_trace(rng, accesses=2500, blocks=80, write_frac=0.15):
    """A conflict-heavy main-memory stream with a tunable write share."""
    line = 16
    ops = array("Q")
    op_counts = [0] * 8
    for _ in range(accesses):
        addr = MAIN_BASE + rng.randrange(blocks) * line + \
            rng.randrange(line // 4) * 4
        roll = rng.random()
        if roll < 0.55:
            tag = 0
        elif roll < 1.0 - write_frac:
            tag = READ_TAGS[rng.choice((1, 2, 4))]
        else:
            tag = WRITE_TAGS[rng.choice((1, 2, 4))]
        if tag in (1, 4):
            addr += rng.randrange(4)
        elif tag in (2, 5):
            addr += rng.choice((0, 2))
        ops.append((addr << 3) | tag)
        op_counts[tag] += 1
    return Trace(ops=ops, op_counts=tuple(op_counts),
                 spm_counts=(0,) * 8, base_cycles=rng.randrange(1000),
                 instructions=accesses, exit_code=0, console=(),
                 spm_size=0)


def _grid_configs(unified, sizes=(128, 512), assocs=(1, 2, 4, 8)):
    return [SystemConfig.cached(CacheConfig(size=size, assoc=assoc,
                                            unified=unified))
            for size in sizes for assoc in assocs if size >= 16 * assoc]


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(0, 1 << 20),
       write_frac=st.sampled_from((0.15, 0.45)))
def test_grid_property_matches_per_point(seed, write_frac):
    trace = _synthetic_trace(random.Random(seed), write_frac=write_frac)
    for unified in (True, False):
        configs = _grid_configs(unified)
        for config, priced in zip(configs, replay_grid(trace, configs)):
            _assert_same(priced, replay(trace, config), (seed, config.name))
            _assert_same(priced, walk_replay(trace, config),
                         ("walk", seed, config.name))


#: Set-associative geometries for the kernel property, in pairs and
#: triples that share a set count (8 sets at 2/3/4/8 ways, 5 at 3 ways
#: beside 5 at 2) so grids exercise one grouping and walk per set count.
_ASSOC_GEOMETRIES = ((256, 2), (384, 3), (512, 4), (1024, 8),
                     (160, 2), (240, 3), (128, 2), (512, 8))


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(0, 1 << 20),
       write_frac=st.sampled_from((0.3, 0.6)),
       blocks=st.sampled_from((24, 80)))
def test_lru_kernel_matches_generic_walk(seed, write_frac, blocks):
    """The set-associative kernel equals ``walk_replay`` on write-heavy
    streams: per config through ``replay`` (single levels and an L1 + L2
    chain) and per grid through ``replay_grid``."""
    trace = _synthetic_trace(random.Random(seed), blocks=blocks,
                             write_frac=write_frac)
    configs = [SystemConfig.cached(CacheConfig(size=size, assoc=assoc,
                                               unified=unified))
               for size, assoc in _ASSOC_GEOMETRIES
               for unified in (True, False)]
    configs.append(SystemConfig.two_level(
        CacheConfig(size=128, assoc=2), CacheConfig(size=384, assoc=3)))
    configs.append(SystemConfig.split_l1(
        CacheConfig(size=128, assoc=4, unified=False),
        CacheConfig(size=240, assoc=3)))
    want = [walk_replay(trace, config) for config in configs]
    for config, expected in zip(configs, want):
        _assert_same(replay(trace, config), expected, (seed, config))
    for unified in (True, False):
        grid = [k for k, config in enumerate(configs[:-2])
                if config.cache_level_specs[0].shared == unified]
        priced = replay_grid(trace, [configs[k] for k in grid])
        for k, result in zip(grid, priced):
            _assert_same(result, want[k], ("grid", seed, configs[k]))


def _run_heavy_trace(rng, runs=160, code_lines=40, data_lines=48):
    """A stream of the runs the grid cascade settles: fetch runs of 4-8
    halfwords through one 16-byte line, reads and writes interleaved,
    and writes to recently used lines that are resident but not MRU."""
    ops = array("Q")
    op_counts = [0] * 8
    recent = []

    def emit(addr, tag):
        ops.append((addr << 3) | tag)
        op_counts[tag] += 1

    for _ in range(runs):
        line = MAIN_BASE + rng.randrange(code_lines) * 16
        count = rng.randint(4, 8)
        first = rng.randrange(9 - count)
        for k in range(count):
            emit(line + 2 * (first + k), 0)
        for _ in range(rng.randrange(4)):
            roll = rng.random()
            if roll < 0.3 and recent:
                # a recently used line: resident, often not its set's MRU
                emit(rng.choice(recent) + 4 * rng.randrange(4),
                     WRITE_TAGS[4])
                continue
            data = MAIN_BASE + 0x4000 + rng.randrange(data_lines) * 16
            for _ in range(rng.randint(1, 3)):
                tag = (WRITE_TAGS[rng.choice((1, 2, 4))]
                       if rng.random() < 0.4
                       else READ_TAGS[rng.choice((1, 2, 4))])
                emit(data + 4 * rng.randrange(4), tag)
            recent = (recent + [data])[-6:]
        recent.append(line)
    return Trace(ops=ops, op_counts=tuple(op_counts), spm_counts=(0,) * 8,
                 base_cycles=0, instructions=len(ops), exit_code=0,
                 console=(), spm_size=0)


def _chain_grid(unified, nsets_chain, assocs=(2, 3, 4)):
    return [SystemConfig.cached(CacheConfig(size=16 * assoc * nsets,
                                            assoc=assoc, unified=unified))
            for nsets in nsets_chain for assoc in assocs]


@settings(max_examples=8, deadline=None)
@given(seed=st.integers(0, 1 << 20))
def test_grid_cascade_matches_walk_on_run_heavy_streams(seed):
    """Chain grids carry settled probes to finer set counts; every point
    still equals the per-access walk, unified and instruction-only, on
    power-of-two and non-power-of-two chains."""
    trace = _run_heavy_trace(random.Random(seed))
    # Two set counts, so the counter is exactly the probes settled at
    # the smaller one: the stream must exercise the cascade.
    before = COUNTERS["grid_settled"]
    replay_grid(trace, _chain_grid(True, (2, 4)))
    assert COUNTERS["grid_settled"] - before >= len(trace.ops) / 4
    for unified in (True, False):
        for chain in ((2, 4, 8, 16), (3, 6, 12)):
            configs = _chain_grid(unified, chain)
            before = COUNTERS["grid_settled"]
            priced = replay_grid(trace, configs)
            assert COUNTERS["grid_settled"] > before, (unified, chain)
            for config, result in zip(configs, priced):
                _assert_same(result, walk_replay(trace, config),
                             (seed, config.name))


def _one_set_trace(accesses, assoc):
    """*accesses* of ``(kind, block)``, all in one set of a 2-set cache
    with 16-byte lines: ``f`` fetch, ``r`` word read, ``w`` word write."""
    tags = {"f": 0, "r": READ_TAGS[4], "w": WRITE_TAGS[4]}
    ops = [((MAIN_BASE + 32 * block) << 3) | tags[kind]
           for kind, block in accesses]
    return _raw_trace(ops), SystemConfig.cached(
        CacheConfig(size=32 * assoc, assoc=assoc))


@pytest.mark.parametrize("assoc", (2, 4))
def test_write_hit_on_the_lru_way_then_an_allocating_miss(assoc):
    """The write refreshes the LRU way, so the miss evicts the next one."""
    fill = [("r", block) for block in range(assoc)]
    trace, config = _one_set_trace(
        fill + [("w", 0), ("r", assoc), ("r", 0), ("r", 1)], assoc)
    got = replay(trace, config)
    _assert_same(got, walk_replay(trace, config), assoc)
    # block 0 survived the miss, block 1 did not
    assert got.cache_stats.read_hits == 1


@pytest.mark.parametrize("assoc", (2, 4))
def test_write_hit_at_each_way_then_an_allocating_miss(assoc):
    for way in range(assoc):
        fill = [("r", block) for block in range(assoc)]
        target = assoc - 1 - way  # the block at LRU position *way*
        probe = [("r", block) for block in range(assoc + 1)]
        trace, config = _one_set_trace(
            fill + [("w", target), ("f", assoc)] + probe, assoc)
        _assert_same(replay(trace, config), walk_replay(trace, config),
                     (assoc, way))


@pytest.mark.parametrize("assoc", (2, 4))
def test_write_miss_allocates_nothing(assoc):
    trace, config = _one_set_trace(
        [("r", 0), ("w", 1), ("w", 1), ("r", 1), ("r", 0)], assoc)
    got = replay(trace, config)
    _assert_same(got, walk_replay(trace, config), assoc)
    assert (got.cache_stats.write_hits, got.cache_stats.read_hits) == (0, 1)


@pytest.mark.parametrize("assoc", (2, 4))
def test_write_led_run_whose_allocation_repeats_the_head(assoc):
    """Writes lead a run; its first allocating probe repeats the head
    block, resident (a write hit) or not (a write miss)."""
    fill = [("r", block) for block in range(assoc)]
    run = [("w", 0), ("w", 0), ("r", 0), ("f", 0), ("w", 0)]
    cold = [("w", 9), ("w", 9), ("r", 9), ("r", 9)]
    probe = [("r", block) for block in (*range(assoc), 9)]
    trace, config = _one_set_trace(fill + run + cold + probe, assoc)
    _assert_same(replay(trace, config), walk_replay(trace, config), assoc)
    grid = [SystemConfig.cached(CacheConfig(size=16 * assoc * nsets,
                                            assoc=assoc))
            for nsets in (1, 2, 4)]
    for config, result in zip(grid, replay_grid(trace, grid)):
        _assert_same(result, walk_replay(trace, config), config.name)


@pytest.mark.parametrize("seed", (101, 4242))
def test_grid_matches_engine_on_generated_programs(seed):
    from repro.gen.progen import generate
    generated = generate(seed, "small")
    image = link(compile_source(generated.source).program)
    trace = record_trace(image, 0)
    for unified in (True, False):
        configs = _grid_configs(unified, sizes=(256, 1024))
        for config, priced in zip(configs, replay_grid(trace, configs)):
            executed = Simulator(image, config).run()
            _assert_same(priced, executed, (seed, config.name))
            assert priced.exit_code == executed.exit_code
            assert priced.console == executed.console


def test_sweep_counts_non_chain_and_shuffled_orders():
    trace = _synthetic_trace(random.Random(7))
    values = kernels.ops_view(trace.ops)
    for unified in (True, False):
        kind = "unified" if unified else "fetch"
        for nsets_list in ((4, 6, 8, 12),      # no divisibility chain
                           (32, 4, 8, 8, 64)):  # shuffled + duplicates
            expect = [kernels.prep_counts(
                kernels.stream_prep(values, 16, kind), nsets)[0]
                for nsets in nsets_list]
            got = kernels.dm_sweep_counts(values, 16, unified, nsets_list)
            assert got == expect, (unified, nsets_list)


# -- run-length encoding ------------------------------------------------------

def _raw_trace(ops):
    counts = [0] * 8
    for value in ops:
        counts[value & 7] += 1
    return Trace(ops=array("Q", ops), op_counts=tuple(counts),
                 spm_counts=(0,) * 8, base_cycles=0, instructions=1,
                 exit_code=0, console=(), spm_size=0)


def test_rle_round_trip_strided_and_constant():
    # A strided fetch run (addr += 2 -> packed += 16), a constant run
    # (repeated reads of one word) and a lone op.
    ops = [((0x8000 + 2 * i) << 3) for i in range(10)]
    ops += [((0x9000 << 3) | 2)] * 5
    ops += [((0x7000 << 3) | 5)]
    trace = _raw_trace(ops)
    runs = trace.runs()
    assert runs is not None
    assert len(runs[2]) < len(ops)  # actually compressed
    assert list(kernels.expand_runs(*runs)) == ops
    flat = [value
            for first, count, stride in trace.iter_runs()
            for value in (range(first, first + 16 * count, 16) if stride
                          else [first] * count)]
    assert flat == ops


def test_rle_refuses_foreign_overflow():
    # A backwards delta beyond int32 keeps the trace flat (the on-disk
    # and pickle forms fall back rather than mis-encode).
    ops = [((1 << 60) << 3), (0x1000 << 3), ((1 << 60) << 3) | 2]
    trace = _raw_trace(ops)
    assert trace.runs() is None
    assert [count for _f, count, _s in trace.iter_runs()] == [1, 1, 1]
    assert trace.compact() is trace  # keeps its ops
    assert list(trace.ops) == ops


def test_pickle_runs_and_flat_branches():
    compressible = _raw_trace(
        [((0x8000 + 2 * i) << 3) for i in range(20)])
    foreign = _raw_trace([((1 << 60) << 3), (0x1000 << 3)])
    for trace in (compressible, foreign):
        clone = pickle.loads(pickle.dumps(trace))
        assert list(clone.ops) == list(trace.ops)
        assert clone.op_counts == trace.op_counts
        assert clone.base_cycles == trace.base_cycles
        assert clone.spm_size == trace.spm_size
    # The compressible pickle must be the RLE form: smaller than flat.
    assert len(pickle.dumps(compressible)) < \
        len(pickle.dumps(foreign)) + 18 * 8


def test_compact_drops_flat_ops_and_reexpands():
    ops = [((0x8000 + 2 * i) << 3) for i in range(32)]
    trace = _raw_trace(ops)
    assert trace.compact() is trace
    assert trace._ops is None
    assert list(trace.ops) == ops  # re-expanded on demand
    clone = pickle.loads(pickle.dumps(trace))
    assert list(clone.ops) == ops


#: Stream pieces: ``(kind, length)`` after a start value.  ``stride``
#: runs add 16 per op (the next halfword), ``alternate`` flips between
#: repeating and striding every op, ``jump`` moves far enough that the
#: next run's int32 head overflows.
_PIECES = st.lists(st.tuples(
    st.sampled_from(["repeat", "stride", "alternate", "random", "jump"]),
    st.integers(1, 12)), max_size=12)


def _stream(start, pieces, rng):
    ops = []
    value = start
    for kind, length in pieces:
        for i in range(length):
            if kind == "stride" or (kind == "alternate" and i % 2):
                value += 16
            elif kind == "random":
                value = rng.randrange(1 << 20) << 3 | rng.randrange(8)
            elif kind == "jump" and i == 0:
                value = (value + (1 << 34)) % (1 << 64)
            ops.append(value)
    return ops


@settings(max_examples=300, deadline=None)
@given(start=st.integers(0, (1 << 20) << 3), pieces=_PIECES,
       seed=st.integers(0, 1 << 16), block=st.sampled_from([2, 3, 7, None]))
def test_encoder_emits_the_loop_runs(start, pieces, seed, block):
    """The block-wise numpy encoder emits the loop oracle's runs: the
    same ``(base, heads, packed)``, or None when a head overflows, on
    any stream, in blocks as small as two ops."""
    ops = array("Q", _stream(start, pieces, random.Random(seed)))
    saved = kernels._RUN_BLOCK
    kernels._RUN_BLOCK = block or saved
    try:
        got = kernels.encode_runs(ops)
    finally:
        kernels._RUN_BLOCK = saved
    want = compress_ops(ops)
    if want is None:
        assert got is None
    else:
        assert got is not None
        assert (got[0], list(got[1]), list(got[2])) == \
            (want[0], list(want[1]), list(want[2]))


def test_encoder_edge_streams():
    for ops in ([], [5 << 3], [7, 7], [0, 16, 32, 32, 48],
                [(1 << 64) - 1, (1 << 64) - 1, 5]):
        stream = array("Q", ops)
        assert kernels.encode_runs(stream) == compress_ops(stream)


def test_recorded_trace_rle_round_trips():
    trace = _trace(False)
    raw = len(trace.ops) * 8
    payload = pickle.dumps(trace)
    assert len(payload) < raw  # the RLE satellite: strictly smaller
    clone = pickle.loads(payload)
    assert array("Q", clone.ops) == array("Q", trace.ops)
    config = SystemConfig.cached(CacheConfig(size=512))
    _assert_same(replay(clone, config), replay(trace, config), "rle clone")
