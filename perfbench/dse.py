"""The ``cache-dse`` workload: a seeded cache design-space exploration.

Inputs: the seven suite programs plus seeded ``repro.gen`` programs of
the ``medium`` and ``large`` profiles, whose data working sets differ
relative to the caches.  Every program gets the same number of
``Workflow.config_point`` evaluations per hierarchy shape — a unified
L1, an instruction-only L1, L1+L2 and split I/D — and one
``Workflow.cache_sims`` geometry grid.  The shapes are fixed; the seed
draws the geometries, stratified so that every program sees each of
three sizes, line sizes and associativities exactly once per shape: the
seed pairs them up.  That keeps the amount of work nearly independent
of the seed while the seed still changes the configurations.
"""

from __future__ import annotations

import random
import time
from contextlib import nullcontext
from dataclasses import dataclass, field

SHAPES = ("l1", "l1_ionly", "l1_l2", "split_id")
SIZES = (256, 1024, 4096)
LINES = (8, 16, 32)
ASSOCS = (1, 2, 4)
GRID_SIZES = (256, 512, 1024, 2048)
GRID_ASSOCS = (1, 2, 4)
GRID_LINE = 16
#: ``(profile, count, statement cap)`` for the generated programs.  The
#: generator's dynamic length is heavy-tailed (a few seeds run millions
#: of statements), so programs whose reference evaluation runs more than
#: the cap are redrawn: the seed changes the programs, and their data
#: working sets, far more than the amount of work.
GENERATED = (("medium", 3, 2_000), ("large", 3, 4_000))


@dataclass
class Program:
    name: str
    source: str
    #: (console lines, exit code) the program must produce
    expected: tuple
    #: [(SystemConfig, persistence)]
    points: list = field(default_factory=list)
    #: CacheConfigs of the geometry grid
    grid: list = field(default_factory=list)


def _generate(seed, profile, fuel):
    """The program for *seed*, or ``None`` if its reference evaluation
    runs out of *fuel* statements (the generator raises when it does)."""
    from repro.gen import progen
    saved = progen._Machine.FUEL
    progen._Machine.FUEL = fuel
    try:
        return progen.generate(seed, profile)
    except progen.GenError:
        return None
    finally:
        progen._Machine.FUEL = saved


def _generate_capped(rng, profile, cap):
    for _ in range(10_000):
        program = _generate(rng.randrange(1 << 30), profile, cap)
        if program is not None:
            return program
    raise RuntimeError(f"no {profile} program runs within {cap} statements")


def _shape_config(shape, size, line, assoc):
    from repro.memory.cache import CacheConfig
    from repro.memory.hierarchy import SystemConfig
    if shape == "l1":
        return SystemConfig.cached(CacheConfig(size, line, assoc))
    if shape == "l1_ionly":
        return SystemConfig.cached(
            CacheConfig(size, line, assoc, unified=False))
    if shape == "l1_l2":
        return SystemConfig.two_level(
            CacheConfig(size, line, assoc),
            CacheConfig(size * 8, max(16, line), 4))
    return SystemConfig.split_l1(
        CacheConfig(size, line, assoc, unified=False),
        CacheConfig(size, line, assoc))


def make_inputs(seed: int, suite=None, generated=GENERATED) -> list:
    """The seeded programs and their evaluation points."""
    from repro.benchmarks import BENCHMARKS
    from repro.memory.cache import CacheConfig
    rng = random.Random(seed)
    programs = [Program(name, bench.source(), bench.expected())
                for name, bench in BENCHMARKS.items()
                if suite is None or name in suite]
    for profile, count, cap in generated:
        for _ in range(count):
            program = _generate_capped(rng, profile, cap)
            programs.append(Program(
                program.name, program.source,
                (list(program.expected_console), program.expected_exit)))
    for program in programs:
        for shape in SHAPES:
            lines = rng.sample(LINES, len(LINES))
            assocs = rng.sample(ASSOCS, len(ASSOCS))
            for k, (size, line, assoc) in enumerate(
                    zip(SIZES, lines, assocs)):
                program.points.append(
                    (_shape_config(shape, size, line, assoc), k == 1))
        program.grid = [CacheConfig(size, GRID_LINE, assoc)
                        for size in GRID_SIZES for assoc in GRID_ASSOCS]
    return programs


def run_pass(programs, tracer=None) -> dict:
    """Evaluate every point; returns timings plus what the gates need.

    ``spans`` holds the ``[start, end]`` times of each program's set-up
    (compile) and of each of its operations (a config point or the
    grid), in order; ``op_segments`` lists which spans are operations.
    ``problems`` holds ``(operation id, message)`` pairs; an operation
    id is ``<program>#<point index>`` or ``<program>#grid``.
    """
    from repro.workflow import Workflow

    spans, ops, problems, evaluated = [], [], [], []

    def timed(layer, call, op_id=None):
        """Run one segment; ``None`` (and a problem) if it raised."""
        began = time.perf_counter()
        try:
            with (tracer.span(layer) if tracer is not None
                  else nullcontext()):
                return call()
        except Exception as error:  # the op fails, the pass goes on
            problems.append((op_id, repr(error)))
            return None
        finally:
            spans.append([began, time.perf_counter()])
            if op_id is not None:
                ops.append(len(spans) - 1)

    for program in programs:
        workflow = timed("workflow.init",
                         lambda: Workflow(program.source))
        if workflow is None:
            problems[-1:] = [
                (f"{program.name}#{k}", f"compile: {problems[-1][1]}")
                for k in [*range(len(program.points)), "grid"]]
            continue
        points = [timed("workflow.config_point",
                        lambda: workflow.config_point(
                            config, persistence=persistence),
                        f"{program.name}#{k}")
                  for k, (config, persistence) in enumerate(program.points)]
        grid = timed("workflow.cache_sims",
                     lambda: workflow.cache_sims(program.grid),
                     f"{program.name}#grid")
        evaluated.append((program, workflow, points, grid))
    return {"spans": spans, "op_segments": ops, "problems": problems,
            "evaluated": evaluated}


def _same_run(replayed, executed) -> bool:
    return (replayed.cycles == executed.cycles
            and replayed.instructions == executed.instructions
            and replayed.exit_code == executed.exit_code
            and list(replayed.console) == list(executed.console)
            and replayed.level_stats == executed.level_stats)


def check(evaluated) -> list:
    """Correctness gates, run after the timed pass.

    * every point's WCET bound covers its simulated cycles;
    * every point's console and exit code match the program's reference
      (``Benchmark.expected()`` or the generator's self-check);
    * one point per program, rotating over the shapes, replays
      bit-identically to executing the program on the engine;
    * the grid priced every requested geometry.
    """
    from repro.sim.simulator import simulate
    problems = []
    for index, (program, workflow, points, grid) in enumerate(evaluated):
        console, exit_code = program.expected
        for k, point in enumerate(points):
            if point is None:
                continue
            where = f"{program.name}#{k}"
            if point.wcet.wcet < point.sim.cycles:
                problems.append((where, f"wcet {point.wcet.wcet} < sim "
                                        f"{point.sim.cycles}"))
            if (list(point.sim.console) != list(console)
                    or point.sim.exit_code != exit_code):
                problems.append((where, "console/exit differ from the "
                                        "reference"))
        k = (index % len(SHAPES)) * len(SIZES)
        if points[k] is not None:
            executed = simulate(workflow.baseline_image(), points[k].config,
                                max_steps=workflow.max_steps)
            if not _same_run(points[k].sim, executed):
                problems.append((f"{program.name}#{k}",
                                 "replay != simulate"))
        if grid is not None and set(grid) != set(program.grid):
            problems.append((f"{program.name}#grid",
                             "grid missed geometries"))
    return problems


def op_count(programs) -> int:
    """Timed operations per pass: config points plus one grid each."""
    return sum(len(program.points) + 1 for program in programs)
