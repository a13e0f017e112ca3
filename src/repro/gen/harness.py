"""Soundness harness: one generated program through the whole stack.

This is the machinery behind the fuzzing tiers (``pytest -m fuzz`` and
``repro-gen --check``).  For a generated program it checks, in order of
increasing depth:

1. **self-check** — the program compiles, links, runs on the execution
   engine and reaches its own embedded checksum comparison: exit code
   42 and the console the reference evaluator predicted.  Catches
   codegen/linker/engine semantic breaks;
2. **replay differential** — trace replay reproduces direct execution
   bit for bit (cycles, instructions, exit, console, per-level stats)
   on every hierarchy shape;
3. **WCET soundness** — the static bound dominates the simulated cycle
   count on every shape (the paper's core invariant).

:func:`check_spm_placement` adds a greedy scratchpad placement run.  The
differentials against the test oracles (the recording interpreter's
per-pc misses, the dict abstract domain's classifications) live in
``tests/oracles`` and reuse these checks.

Failures raise :class:`SoundnessFailure` whose message embeds the
``repro-gen`` command line that regenerates the exact program, so a
failing nightly seed reproduces locally from its number alone.
"""

from __future__ import annotations

from ..link import link, symbol_deltas
from ..memory import CacheConfig, SystemConfig
from ..minic import compile_source
from ..sim import simulate
from ..sim.placement import place_trace
from ..sim.replay import replay
from ..sim.trace import record_trace
from ..wcet import analyze_wcet
from .progen import GeneratedProgram, generate

#: The default hierarchy shapes every fuzzed program is priced under —
#: small and low-associativity on purpose, so generated working sets
#: actually conflict.  (The SPM shape runs separately: it needs its own
#: placement and trace, see :func:`check_spm_placement`.)
DEFAULT_SHAPES = (
    ("uncached", lambda: SystemConfig.uncached()),
    ("l1-64", lambda: SystemConfig.cached(CacheConfig(size=64))),
    ("l1-128-2way", lambda: SystemConfig.cached(
        CacheConfig(size=128, assoc=2))),
    ("icache-64", lambda: SystemConfig.cached(
        CacheConfig(size=64, unified=False))),
    ("l1+l2", lambda: SystemConfig.two_level(
        CacheConfig(size=64), CacheConfig(size=256))),
)


class SoundnessFailure(AssertionError):
    """A generated program broke a cross-layer invariant."""


def _repro_hint(program: GeneratedProgram) -> str:
    return (f"seed={program.seed} size={program.size}; reproduce with: "
            f"repro-gen --seed {program.seed} --size {program.size}")


def _expect(condition, message):
    if not condition:
        raise SoundnessFailure(message)


def _stats_tuple(stats):
    if stats is None:
        return None
    return (stats.fetch_hits, stats.fetch_misses, stats.read_hits,
            stats.read_misses, stats.write_hits, stats.write_misses)


def _same_result(replayed, executed, context):
    _expect(replayed.cycles == executed.cycles,
            f"replay cycles {replayed.cycles} != engine "
            f"{executed.cycles} [{context}]")
    _expect(replayed.instructions == executed.instructions,
            f"replay instruction count diverged [{context}]")
    _expect(replayed.exit_code == executed.exit_code,
            f"replay exit code diverged [{context}]")
    _expect(replayed.console == executed.console,
            f"replay console diverged [{context}]")
    _expect(set(replayed.level_stats) == set(executed.level_stats),
            f"replay level names diverged [{context}]")
    for name in executed.level_stats:
        _expect(_stats_tuple(replayed.level_stats[name]) ==
                _stats_tuple(executed.level_stats[name]),
                f"replay {name} stats diverged [{context}]")


def check_program(program: GeneratedProgram,
                  shapes=DEFAULT_SHAPES) -> dict:
    """Run *program* through the tiers; returns a small summary dict."""
    hint = _repro_hint(program)
    compiled = compile_source(program.source)
    image = link(compiled.program)
    trace = record_trace(image, 0)
    _expect(trace.exit_code == program.expected_exit,
            f"self-check failed: exit {trace.exit_code}, console tail "
            f"{list(trace.console)[-3:]} [{hint}]")
    _expect(tuple(trace.console) == program.expected_console,
            f"console diverged from the reference evaluator [{hint}]")
    cycles = {}
    for name, factory in shapes:
        config = factory()
        context = f"shape={name} {hint}"
        executed = simulate(image, config)
        _expect(executed.exit_code == program.expected_exit,
                f"memory system changed computed values [{context}]")
        replayed = replay(trace, config)
        _same_result(replayed, executed, context)
        bound = analyze_wcet(image, config)
        _expect(bound.wcet >= executed.cycles,
                f"UNSOUND: WCET {bound.wcet} < simulated "
                f"{executed.cycles} [{context}]")
        cycles[name] = executed.cycles
    return {"seed": program.seed, "size": program.size,
            "exit": program.expected_exit, "cycles": cycles}


def check_seed(seed: int, size: str = "small",
               shapes=DEFAULT_SHAPES) -> dict:
    """Generate-and-check in one call (the fuzz tier's inner loop)."""
    return check_program(generate(seed, size), shapes)


#: The hybrid shape the SPM slice also prices its placement under.
SPM_HYBRID_CACHE = CacheConfig(size=128)


def check_spm_placement(program: GeneratedProgram,
                        spm_size: int = 256) -> dict:
    """Greedy SPM placement: values preserved, never slower, bounded.

    The placement is also priced from the baseline trace
    (:func:`repro.sim.placement.place_trace`), which must reproduce
    execution under pure SPM and under SPM with a cache behind it, and
    its bound on the baseline's frontend must be the placed image's own.
    Generated programs keep every pointer and index in bounds and set
    every value before reading it, so pricing must accept them.
    """
    hint = _repro_hint(program)
    compiled = compile_source(program.source)
    baseline = link(compiled.program)
    reference = simulate(baseline, SystemConfig.uncached())
    chosen, used = [], 0
    for name, _kind, size in sorted(compiled.program.memory_objects(),
                                    key=lambda o: (o[2], o[0])):
        aligned = (size + 3) & ~3
        if used + aligned <= spm_size:
            chosen.append(name)
            used += aligned
    image = link(compiled.program, spm_size=spm_size, spm_objects=chosen)
    config = SystemConfig.scratchpad(spm_size)
    placed = simulate(image, config)
    context = f"spm={spm_size} {hint}"
    _expect(placed.exit_code == program.expected_exit,
            f"SPM placement changed computed values [{context}]")
    _expect(placed.console == reference.console,
            f"SPM placement changed console output [{context}]")
    _expect(placed.cycles <= reference.cycles,
            f"SPM made the program slower ({placed.cycles} > "
            f"{reference.cycles}) [{context}]")
    bound = analyze_wcet(image, config)
    _expect(bound.wcet >= placed.cycles,
            f"UNSOUND: WCET {bound.wcet} < simulated {placed.cycles} "
            f"[{context}]")
    relocated = analyze_wcet(image, config, baseline=baseline)
    moved = symbol_deltas(baseline, image)
    _expect((relocated.wcet, relocated.per_function, relocated.stack_range,
             {name: {addr + moved[name]: count
                     for addr, count in counts.items()}
              for name, counts in relocated.block_counts.items()}) ==
            (bound.wcet, bound.per_function, bound.stack_range,
             bound.block_counts),
            f"bound priced on the baseline's frontend ({relocated.wcet}) "
            f"differs from the placed image's ({bound.wcet}) [{context}]")
    trace = record_trace(image, spm_size)
    _same_result(replay(trace, config), placed, context)
    priced = place_trace(record_trace(baseline, 0), baseline, image,
                         spm_size)
    _expect(priced is not None and not compiled.analyzer.observes_placement,
            f"placement pricing declined a generated program [{context}]")
    _same_result(replay(priced, config), placed, f"priced {context}")
    hybrid = SystemConfig.hybrid(spm_size, SPM_HYBRID_CACHE)
    _same_result(replay(priced, hybrid), simulate(image, hybrid),
                 f"priced hybrid {context}")
    return {"seed": program.seed, "spm": spm_size,
            "cycles": placed.cycles, "baseline": reference.cycles}
