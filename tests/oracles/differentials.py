"""Oracle differentials on generated programs (the fuzz tier's slices).

Each helper takes one :class:`repro.gen.GeneratedProgram` through the
harness's default hierarchy shapes and raises
:class:`repro.gen.SoundnessFailure`, naming the ``repro-gen`` command
that regenerates the program, when the shipped path and an oracle
disagree:

* :func:`check_misses` — the recording interpreter's cycles match the
  execution engine's, and its per-pc fetch misses match
  ``replay_misses`` served from the program's trace;
* :func:`check_domains` — the packed cache analysis classifies every
  instruction exactly as the dict domain does, at every level.
"""

import pytest

from repro.gen.harness import DEFAULT_SHAPES, _expect, _repro_hint
from repro.link import link
from repro.minic import compile_source
from repro.sim import record_trace, replay_misses, simulate
from repro.wcet import build_all_cfgs, cacheanalysis
from repro.wcet.stackdepth import stack_region

from .domain import DictCacheAnalysis
from .recording import record


def _image(program):
    return link(compile_source(program.source).program)


def check_misses(program, shapes=DEFAULT_SHAPES):
    """Recording oracle vs execution engine and ``replay_misses``."""
    hint = _repro_hint(program)
    image = _image(program)
    trace = record_trace(image, 0)
    for name, factory in shapes:
        config = factory()
        context = f"shape={name} {hint}"
        recorded = record(image, config)
        _expect(recorded.cycles == simulate(image, config).cycles,
                f"recording oracle cycles diverged [{context}]")
        fetch, main = replay_misses(trace, config)
        _expect(fetch == dict(recorded.fetch_misses),
                f"replay-served fetch_misses diverged [{context}]")
        _expect(main == dict(recorded.fetch_main_misses),
                f"replay-served fetch_main_misses diverged [{context}]")


def _classes(result):
    if result is None:
        return None
    return {addr: vars(entry) for addr, entry in result.classes.items()}


def check_domains(program, shapes=DEFAULT_SHAPES):
    """Packed vs dict abstract domains: identical classes per level."""
    hint = _repro_hint(program)
    image = _image(program)
    cfgs = build_all_cfgs(image)
    entry_by_addr = {cfg.entry: name for name, cfg in cfgs.items()}
    rng = stack_region(cfgs, "_start", entry_by_addr)
    for name, factory in shapes:
        config = factory()
        if not config.has_cache:
            continue
        context = f"shape={name} {hint}"
        packed = cacheanalysis.analyze_hierarchy(
            image, cfgs, config, rng, "_start", reuse=False)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(cacheanalysis, "CacheAnalysis", DictCacheAnalysis)
            plain = cacheanalysis.analyze_hierarchy(
                image, cfgs, config, rng, "_start", reuse=False)
        for level_packed, level_dict in zip(packed.levels, plain.levels):
            for side in ("iresult", "dresult"):
                _expect(_classes(getattr(level_packed, side)) ==
                        _classes(getattr(level_dict, side)),
                        f"packed vs dict domain diverged at "
                        f"{level_packed.level.name} {side} [{context}]")
