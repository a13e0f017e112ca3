"""Soundness fuzzing: random structured programs, WCET >= simulation.

Hypothesis generates random (but always-terminating) mini-C programs —
the strategies live in ``tests/strategies.py``, shared with the rest of
the fuzzing stack — and for each program and each memory system
the analysed WCET bound must dominate the simulated cycle count.  This
hunts for disagreements between the simulator's and the analyser's view
of the machine — the class of bug that silently breaks the paper's
entire methodology.

This is the shrinking tier: small example budgets, minimal
counterexamples.  The bulk sweep over thousands of seeded programs is
the ``fuzz``-marked tier (``tests/test_fuzz_generated.py``).
"""

from hypothesis import given, settings, strategies as st

from repro.link import link
from repro.memory import CacheConfig, SystemConfig
from repro.minic import compile_source
from repro.sim import simulate
from repro.wcet import analyze_wcet

from .strategies import random_program


CONFIGS = [
    SystemConfig.uncached(),
    SystemConfig.cached(CacheConfig(size=64)),
    SystemConfig.cached(CacheConfig(size=256, assoc=2)),
]


@settings(max_examples=50, deadline=None)
@given(random_program())
def test_wcet_dominates_simulation(source):
    image = link(compile_source(source).program)
    results = []
    for config in CONFIGS:
        sim = simulate(image, config)
        wcet = analyze_wcet(image, config)
        assert wcet.wcet >= sim.cycles, (config.name, source)
        results.append(sim)
    # Memory systems must never change computed values.
    for sim in results[1:]:
        assert sim.exit_code == results[0].exit_code


@settings(max_examples=25, deadline=None)
@given(random_program(), st.integers(64, 512))
def test_spm_placement_sound_and_value_preserving(source, spm_size):
    compiled = compile_source(source)
    baseline = link(compiled.program)
    reference = simulate(baseline, SystemConfig.uncached())
    # Place everything that fits, greedily by size.
    objects = sorted(compiled.program.memory_objects(), key=lambda o: o[2])
    chosen = []
    used = 0
    for name, _kind, size in objects:
        aligned = (size + 3) & ~3
        if used + aligned <= spm_size:
            chosen.append(name)
            used += aligned
    image = link(compiled.program, spm_size=spm_size, spm_objects=chosen)
    config = SystemConfig.scratchpad(spm_size)
    sim = simulate(image, config)
    wcet = analyze_wcet(image, config)
    assert sim.exit_code == reference.exit_code
    assert wcet.wcet >= sim.cycles
    assert sim.cycles <= reference.cycles  # SPM can only help
