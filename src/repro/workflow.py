"""The paper's Figure-1 workflow, one entry point for every configuration.

A :class:`~repro.memory.hierarchy.SystemConfig` describes a point as
one level pipeline (:mod:`repro.memory.levels`), and
:meth:`Workflow.config_point` evaluates any of them:

* without a scratchpad (the paper's right branch, the uncached
  baseline, L1+L2, split I/D) the pipeline runs the baseline
  executable: a cache is software-transparent, so one executable
  serves every cache configuration;
* with a scratchpad (the left branch, or a scratchpad with caches
  behind it) the workflow allocates (the energy knapsack over the
  typical-input profile, or the WCET-driven knapsack over the levels
  behind the scratchpad), links that placement and prices it.

Either way the point's WCET comes from the analyser under the same
pipeline, handed the baseline executable too: a scratchpad with no
cache behind it is analysed on the baseline's frontend, every block at
its placed addresses, so a placement costs no CFG reconstruction, stack
analysis or access resolution of its own
(:func:`~repro.wcet.analyzer.analyze_wcet`).
:meth:`Workflow.config_points` is the batch form.

A :class:`Workflow` caches the compile and profile steps so a size sweep
only repeats the placement/simulation/analysis work, like the paper's
experimental setup.  Simulation itself is trace-driven: the baseline
image's dynamic access stream is recorded once (:mod:`repro.sim.trace`)
and re-priced per configuration by the replay kernels
(:mod:`repro.sim.replay`), with same-geometry cache size sweeps served
by a single Mattson-style pass.  The same trace yields the
typical-input profile and, through
:func:`~repro.sim.placement.place_trace`, the trace of every scratchpad
placement.  Results are bit-identical to executing every point: the
engine remains the recorder and the ground truth, and a placement the
pricing checks cannot vouch for (a program that can see an address, an
access outside its instruction's ranges, a pointer overrun into an
array the placement moves apart) is executed instead.
"""

from __future__ import annotations

from dataclasses import dataclass

from .energy.model import EnergyModel
from .link.linker import link
from .memory.hierarchy import SystemConfig
from .memory.levels import SpmLevel
from .minic.frontend import compile_source
from .sim.placement import place_trace, trace_profile
from .sim.profile import ProgramProfile
from .sim.replay import (
    grid_geometry,
    replay,
    replay_grid,
    replay_sweep,
    sweep_geometry,
)
from .sim.simulator import SimResult, simulate
from .sim.trace import trace_for
from .spm.allocator import Allocation, allocate_energy_optimal
from .spm.wcet_driven import allocate_wcet_driven
from .wcet.analyzer import WCETResult, analyze_wcet

#: The paper's size sweep: 64 bytes to 8 kilobytes.
PAPER_SIZES = (64, 128, 256, 512, 1024, 2048, 4096, 8192)


@dataclass
class EvaluationPoint:
    """One (system configuration, executable) measurement."""

    config: SystemConfig
    image: object
    sim: SimResult
    wcet: WCETResult
    allocation: Allocation = None

    @property
    def ratio(self) -> float:
        """WCET overestimation vs. the typical-input simulation."""
        return self.wcet.wcet / self.sim.cycles

    def row(self) -> dict:
        """Flat record for tables/reports."""
        return {
            "config": self.config.name,
            "sim_cycles": self.sim.cycles,
            "wcet_cycles": self.wcet.wcet,
            "ratio": round(self.ratio, 3),
        }


def _run_key(config: SystemConfig, method: str) -> tuple:
    """What one simulation depends on: the levels (frozen, hashable,
    the full geometry), plus the allocation method behind a scratchpad."""
    return (config.levels, method) if config.spm_size else (config.levels,)


class Workflow:
    """Compile once; evaluate any number of memory configurations."""

    def __init__(self, source: str, entry: str = "main",
                 max_steps: int = 200_000_000,
                 energy_model: EnergyModel = None):
        self.compiled = compile_source(source, entry=entry)
        self.max_steps = max_steps
        self.energy_model = energy_model or EnergyModel()
        self._profile = None
        self._baseline_image = None
        self._runs = {}    # run key -> (image, allocation, sim)
        self._points = {}  # (run key, persistence) -> EvaluationPoint

    @property
    def program(self):
        return self.compiled.program

    # -- shared steps -----------------------------------------------------------

    def baseline_image(self):
        """All-objects-in-main-memory executable (also the cache binary)."""
        if self._baseline_image is None:
            self._baseline_image = link(self.program, spm_size=0)
        return self._baseline_image

    def baseline_trace(self):
        """The baseline executable's recorded access trace."""
        return trace_for(self.baseline_image(), 0, max_steps=self.max_steps)

    def profile(self) -> ProgramProfile:
        """Typical-input access profile (drives the energy knapsack),
        folded from the baseline trace."""
        if self._profile is None:
            self._profile = trace_profile(self.baseline_trace(),
                                          self.baseline_image())
        return self._profile

    def warm(self, profile: bool = False) -> "Workflow":
        """Precompute the shared steps every evaluation point needs.

        Links the baseline executable (and, for scratchpad sweeps,
        records its trace and folds the profile) so sweep workers — or
        a process about to fork them — pay the one-off costs exactly
        once instead of once per task.
        """
        self.baseline_image()
        if profile:
            self.profile()
        return self

    # -- allocate and link --------------------------------------------------------

    def allocate(self, config: SystemConfig,
                 method: str = "energy") -> Allocation:
        """Choose the contents of *config*'s scratchpad.

        ``"energy"`` is the paper's knapsack over the typical-input
        profile; ``"wcet"`` prices objects on the critical path of the
        all-in-main-memory layout, analysed under the levels behind the
        scratchpad.
        """
        if method == "energy":
            return allocate_energy_optimal(
                self.program, self.profile(), config.spm_size,
                model=self.energy_model)
        if method == "wcet":
            behind = SystemConfig.with_levels(
                config.name,
                [level for level in config.levels
                 if not isinstance(level, SpmLevel)],
                config.timing)
            return allocate_wcet_driven(self.program, config.spm_size,
                                        baseline_config=behind,
                                        baseline_image=self.baseline_image())
        raise ValueError(f"unknown allocation method {method!r}")

    def image_for(self, config: SystemConfig, method: str = "energy"):
        """``(image, allocation)``: the executable *config* runs.

        The baseline executable (and no allocation) without a
        scratchpad; otherwise the placement *method* allocates, linked.
        """
        if not config.spm_size:
            return self.baseline_image(), None
        allocation = self.allocate(config, method)
        image = link(self.program, spm_size=config.spm_size,
                     spm_objects=allocation.objects)
        return image, allocation

    # -- trace-driven simulation -------------------------------------------------

    def _placed_sim(self, image, config: SystemConfig):
        """Price a scratchpad placement from the baseline trace.

        None when placement could change what the program computes (it
        can see an address, an access leaves its instruction's ranges,
        or a pointer overruns into an array the placement moves apart);
        the caller executes the placed image then.
        """
        if self.compiled.analyzer.observes_placement:
            return None
        placed = place_trace(self.baseline_trace(), self.baseline_image(),
                             image, config.spm_size)
        if placed is None:
            return None
        return replay(placed, config, max_steps=self.max_steps)

    def _baseline_sims(self, configs) -> list:
        """One :class:`SimResult` per cache-only config, in order.

        Same-geometry LRU groups are served from a single pass over the
        baseline trace — a stack-distance size sweep when the whole
        group is direct-mapped (the paper's size sweeps), the per-set
        Mattson geometry-grid kernel when associativities mix; anything
        else replays per config.  All of it reuses the one recorded
        trace of the shared executable.
        """
        if not configs:
            return []
        trace = self.baseline_trace()
        groups = {}
        singles = []
        for index, config in enumerate(configs):
            key = grid_geometry(config)
            if key is None:
                singles.append(index)
            else:
                groups.setdefault(key, []).append(index)
        sims = [None] * len(configs)
        for indices in groups.values():
            if len(indices) == 1:
                singles.extend(indices)
                continue
            group = [configs[index] for index in indices]
            if all(sweep_geometry(config) is not None for config in group):
                results = replay_sweep(trace, group,
                                       max_steps=self.max_steps)
            else:
                results = replay_grid(trace, group,
                                      max_steps=self.max_steps)
            for index, sim in zip(indices, results):
                sims[index] = sim
        for index in singles:
            sims[index] = replay(trace, configs[index],
                                 max_steps=self.max_steps)
        return sims

    def _measure(self, runs: dict):
        """Simulate the ``{run key: (config, method)}`` not yet memoised.

        Cache-only pipelines replay the baseline trace together
        (:meth:`_baseline_sims`).  A scratchpad pipeline is allocated,
        linked and priced from the baseline trace, or executed when
        pricing declines.
        """
        pending = {key: run for key, run in runs.items()
                   if key not in self._runs}
        cached = {key: config for key, (config, _) in pending.items()
                  if not config.spm_size}
        sims = self._baseline_sims(list(cached.values()))
        for key, sim in zip(cached, sims):
            self._runs[key] = (self.baseline_image(), None, sim)
        for key, (config, method) in pending.items():
            if key in cached:
                continue
            image, allocation = self.image_for(config, method)
            sim = self._placed_sim(image, config)
            if sim is None:
                sim = simulate(image, config, max_steps=self.max_steps)
            self._runs[key] = (image, allocation, sim)

    def cache_sims(self, caches) -> dict:
        """Trace-replayed :class:`SimResult` per cache config, no WCET.

        The geometry-grid entry point: hand any mix of single-level
        cache configs (sizes × associativities) and compatible groups
        collapse into single sweep/grid passes over the one recorded
        trace.  Returns ``{cache_config: SimResult}``.
        """
        caches = list(dict.fromkeys(caches))
        return dict(zip(caches, self._baseline_sims(
            [SystemConfig.cached(cache) for cache in caches])))

    def sim_for(self, config: SystemConfig,
                method: str = "energy") -> SimResult:
        """Simulation of *config*'s executable, no WCET.

        Any pipeline: the shared executable replays its trace, and a
        scratchpad is allocated by *method* (as in :meth:`config_point`),
        linked and priced.  The serving daemon's ``simulate`` op is
        answered from here.
        """
        key = _run_key(config, method)
        self._measure({key: (config, method)})
        return self._runs[key][2]

    # -- evaluation points ----------------------------------------------------------

    def config_point(self, config: SystemConfig, persistence: bool = False,
                     method: str = "energy") -> EvaluationPoint:
        """Evaluate one level pipeline: simulation plus WCET bound.

        *method* allocates a scratchpad (``"energy"`` or ``"wcet"``);
        *persistence* adds first-miss classification to the cache
        analysis.
        """
        return self.config_points([(config, persistence, method)])[0]

    def config_points(self, specs) -> list:
        """Evaluate ``(config, persistence, method)`` specs, in order.

        Points are memoised.  So are simulations, keyed by the levels
        (plus the method when there is a scratchpad): persistence only
        changes the WCET side, so its variants share one simulation.
        Cache-only pipelines not yet simulated replay together, with
        same-geometry groups in single sweep/grid passes, and WCET
        analysis runs once per distinct spec.
        """
        specs = [(config, bool(persistence), method)
                 for config, persistence, method in specs]
        keys = [(_run_key(config, method), persistence)
                for config, persistence, method in specs]
        pending = {key: spec for key, spec in zip(keys, specs)
                   if key not in self._points}
        self._measure({key: (config, method)
                       for (key, _), (config, _, method) in pending.items()})
        for (key, persistence), (config, _, _) in pending.items():
            image, allocation, sim = self._runs[key]
            wcet = analyze_wcet(image, config, persistence=persistence,
                                baseline=self.baseline_image())
            self._points[(key, persistence)] = EvaluationPoint(
                config=config, image=image, sim=sim, wcet=wcet,
                allocation=allocation)
        return [self._points[key] for key in keys]
