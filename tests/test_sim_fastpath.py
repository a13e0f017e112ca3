"""Differential tests: the fast engine vs. the recording oracle.

The simulator runs every program on the compiled step-closure engine
(:mod:`repro.sim.engine`); the recording interpreter in
``tests/oracles`` is a plain instruction dispatch over the same machine
model that prices every access through its own per-access tag model.
These tests run **every registered benchmark** through **every hierarchy
shape** (uncached, scratchpad, L1, hybrid SPM+L1, L1+L2, split I/D, plus
a set-associative and an instruction-only L1) on both and assert the
observable results are identical: cycles,
instruction counts, exit codes, console output, and per-level hit/miss
statistics.
"""

import pytest

from repro.benchmarks import BENCHMARKS, get
from repro.isa.opcodes import Cond
from repro.link import link
from repro.memory import CacheConfig, SystemConfig
from repro.minic import compile_source
from repro.sim import Simulator
from repro.sim.engine import _cond_test

from .oracles import record
from .oracles.recording import _COND_DISPATCH

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
}

#: The shapes ``record_trace`` records under: no cache, and the
#: scratchpad split.
RECORDING_SHAPES = ("uncached", "spm")

_PROGRAMS = {}
_IMAGES = {}
_RECORDED = {}


def _program(bench):
    if bench not in _PROGRAMS:
        _PROGRAMS[bench] = compile_source(get(bench).source()).program
    return _PROGRAMS[bench]


def _image(bench, spm: bool):
    """Linked image; with *spm*, smallest objects fill the scratchpad."""
    key = (bench, spm)
    if key not in _IMAGES:
        program = _program(bench)
        if not spm:
            _IMAGES[key] = link(program)
        else:
            chosen, used = [], 0
            for name, _kind, size in sorted(program.memory_objects(),
                                            key=lambda o: (o[2], o[0])):
                aligned = (size + 3) & ~3
                if used + aligned <= SPM_SIZE:
                    chosen.append(name)
                    used += aligned
            _IMAGES[key] = link(program, spm_size=SPM_SIZE,
                                spm_objects=chosen)
    return _IMAGES[key]


def oracle_run(bench, shape):
    """The recording oracle's run of *bench* on *shape*.

    Runs under a recording shape are kept until taken once more, so the
    block recorder's differential (``tests/test_trace_recorder.py``)
    reuses the oracle runs made here instead of repeating them.
    """
    key = (bench, shape)
    if key in _RECORDED:
        return _RECORDED.pop(key)
    config = SHAPES[shape]()
    recorded = record(_image(bench, spm=bool(config.spm_size)), config)
    if shape in RECORDING_SHAPES:
        _RECORDED[key] = recorded
    return recorded


def _stats_tuple(stats):
    return (stats.fetch_hits, stats.fetch_misses, stats.read_hits,
            stats.read_misses, stats.write_hits, stats.write_misses)


@pytest.mark.parametrize("shape", sorted(SHAPES))
@pytest.mark.parametrize("bench", sorted(BENCHMARKS))
def test_engines_agree(bench, shape):
    config = SHAPES[shape]()
    image = _image(bench, spm=bool(config.spm_size))

    fast = Simulator(image, config).run()
    recorded = oracle_run(bench, shape)

    assert fast.cycles == recorded.cycles
    assert fast.instructions == recorded.instructions
    assert fast.exit_code == recorded.exit_code
    assert fast.console == recorded.console
    assert set(fast.level_stats) == set(recorded.level_stats)
    for level in fast.level_stats:
        assert _stats_tuple(fast.level_stats[level]) == \
            _stats_tuple(recorded.level_stats[level]), level


def test_flags_visible_after_fast_run():
    # The engine keeps flags in its own encoding; the simulator must
    # translate them back to the documented 0/1 attributes.
    image = _image("crc", spm=False)
    sim = Simulator(image, SystemConfig.uncached())
    sim.run()
    assert all(flag in (0, 1) for flag in (sim.n, sim.z, sim.c, sim.v))


class TestCondDispatch:
    """Both condition tables must match the ARM if-chain: the oracle's
    Cond -> predicate table and the engine's tests over its own flag
    encoding (N and V hold the sign bit)."""

    @staticmethod
    def _reference(cond, n, z, c, v):
        if cond == Cond.EQ:
            return z == 1
        if cond == Cond.NE:
            return z == 0
        if cond == Cond.HS:
            return c == 1
        if cond == Cond.LO:
            return c == 0
        if cond == Cond.MI:
            return n == 1
        if cond == Cond.PL:
            return n == 0
        if cond == Cond.VS:
            return v == 1
        if cond == Cond.VC:
            return v == 0
        if cond == Cond.HI:
            return c == 1 and z == 0
        if cond == Cond.LS:
            return c == 0 or z == 1
        if cond == Cond.GE:
            return n == v
        if cond == Cond.LT:
            return n != v
        if cond == Cond.GT:
            return z == 0 and n == v
        if cond == Cond.LE:
            return z == 1 or n != v
        return True

    def test_all_conditions_all_flag_states(self):
        for cond in Cond:
            for bits in range(16):
                n, z, c, v = (bits >> 3) & 1, (bits >> 2) & 1, \
                    (bits >> 1) & 1, bits & 1
                expected = self._reference(cond, n, z, c, v)
                assert _COND_DISPATCH[cond](n, z, c, v) == expected, \
                    (cond, n, z, c, v)
                test = _cond_test(cond, [n << 31, z, c, v << 31])
                engine = True if test is None else bool(test())
                assert engine == expected, (cond, n, z, c, v)
