"""Workload generation: seeded mini-C programs and fuzzing harnesses.

Grows the benchmark suite beyond the paper's seven hand-ported programs:

* :mod:`repro.gen.progen` — deterministic seeded generator with an
  exact reference evaluator (self-checking programs, byte-identical
  per seed);
* :mod:`repro.gen.harness` — the tiered soundness checks the fuzz
  suites and ``repro-gen --check`` run.

The Hypothesis strategies the shrinking tier draws from are test code
(``tests/strategies.py``): the package never imports ``hypothesis``.
"""

from .progen import (
    GeneratedProgram,
    GenError,
    SIZE_PROFILES,
    generate,
    wrap32,
    write_corpus,
)
from .harness import (
    DEFAULT_SHAPES,
    SoundnessFailure,
    check_program,
    check_seed,
    check_spm_placement,
)

__all__ = [
    "GeneratedProgram", "GenError", "SIZE_PROFILES", "generate",
    "wrap32", "write_corpus",
    "DEFAULT_SHAPES", "SoundnessFailure", "check_program", "check_seed",
    "check_spm_placement",
]
