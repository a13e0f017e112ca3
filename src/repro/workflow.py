"""The paper's Figure-1 workflow, as two one-call pipelines.

Left branch (scratchpad):
  compile -> profile (typical input, ARMulator role) -> energy knapsack
  -> link with SPM placement -> simulate -> WCET analysis (region
  annotations only).

Right branch (cache):
  compile -> link (cache is software-transparent: one executable serves
  all cache sizes) -> simulate with the cache model -> WCET analysis with
  the MUST cache analysis.

A :class:`Workflow` caches the compile and profile steps so a size sweep
only repeats the placement/simulation/analysis work, like the paper's
experimental setup.  Simulation itself is trace-driven: the baseline
image's dynamic access stream is recorded once (:mod:`repro.sim.trace`)
and re-priced per configuration by the replay kernels
(:mod:`repro.sim.replay`), with same-geometry cache size sweeps served
by a single Mattson-style pass (:meth:`Workflow.cache_points`).  The
same trace yields the typical-input profile and, through
:func:`~repro.sim.placement.place_trace`, the trace of every scratchpad
placement, so SPM and hybrid points re-price it too instead of running
the placed image.  Results are bit-identical to executing every point:
the engine remains the recorder and the ground truth, and a placement
the pricing checks cannot vouch for (a program that can see an address,
an access outside its instruction's ranges, a pointer overrun into an
array the placement moves apart) is executed instead.

Beyond the paper's two branches, the deeper pipelines of
:mod:`repro.memory.levels` get evaluation points too:
:meth:`Workflow.hybrid_point` (SPM with a cache behind it),
:meth:`Workflow.multilevel_point` (L1+L2) and
:meth:`Workflow.split_point` (split I/D caches).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .energy.model import EnergyModel
from .link.linker import link
from .memory.cache import CacheConfig
from .memory.hierarchy import SystemConfig
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
        self._points = {}  # (kind, parameters) -> EvaluationPoint

    @property
    def program(self):
        return self.compiled.program

    # -- shared steps -----------------------------------------------------------

    def baseline_image(self):
        """All-objects-in-main-memory executable (also the cache binary)."""
        if self._baseline_image is None:
            self._baseline_image = link(self.program, spm_size=0,
                                        config_name="baseline")
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

        Links the baseline executable (and, for scratchpad/hybrid
        sweeps, records its trace and folds the profile) so sweep
        workers — or a process about to fork them — pay the one-off
        costs exactly once instead of once per task.
        """
        self.baseline_image()
        if profile:
            self.profile()
        return self

    # -- left branch: scratchpad ---------------------------------------------------

    def allocate(self, spm_size: int, method: str = "energy",
                 backing_cache: CacheConfig = None) -> Allocation:
        """*backing_cache* tells the WCET-driven allocator what sits
        behind the scratchpad in a hybrid pipeline."""
        if method == "energy":
            return allocate_energy_optimal(
                self.program, self.profile(), spm_size,
                model=self.energy_model)
        if method == "wcet":
            baseline = (SystemConfig.cached(backing_cache)
                        if backing_cache is not None else None)
            return allocate_wcet_driven(self.program, spm_size,
                                        baseline_config=baseline)
        raise ValueError(f"unknown allocation method {method!r}")

    def spm_point(self, spm_size: int,
                  method: str = "energy") -> EvaluationPoint:
        """Evaluate one scratchpad capacity (allocate, link, sim, WCET)."""
        key = ("spm", spm_size, method)
        if key in self._points:
            return self._points[key]
        allocation = self.allocate(spm_size, method)
        image = link(self.program, spm_size=spm_size,
                     spm_objects=allocation.objects,
                     config_name=f"spm{spm_size}")
        config = SystemConfig.scratchpad(spm_size)
        sim = self._placed_sim(image, config)
        if sim is None:
            sim = simulate(image, config, max_steps=self.max_steps)
        wcet = analyze_wcet(image, config)
        point = EvaluationPoint(config=config, image=image, sim=sim,
                                wcet=wcet, allocation=allocation)
        self._points[key] = point
        return point

    def spm_sweep(self, sizes=PAPER_SIZES, method: str = "energy"):
        return [self.spm_point(size, method) for size in sizes]

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

    def _traced_sim(self, image, config: SystemConfig,
                    spm_size: int = 0) -> SimResult:
        """Simulate via the recorded trace (recording it on first use)."""
        trace = trace_for(image, spm_size, max_steps=self.max_steps)
        return replay(trace, config, max_steps=self.max_steps)

    def _cache_sims(self, caches) -> dict:
        """One :class:`SimResult` per cache config, trace-replayed.

        Same-geometry LRU groups are served from a single pass over the
        baseline trace — a stack-distance size sweep when the whole
        group is direct-mapped (the paper's size sweeps), the per-set
        Mattson geometry-grid kernel when associativities mix; anything
        else replays per config.  All of it reuses the one recorded
        trace of the shared executable.
        """
        trace = self.baseline_trace()
        groups = {}
        singles = []
        for cache in dict.fromkeys(caches):
            config = SystemConfig.cached(cache)
            key = grid_geometry(config)
            if key is None:
                singles.append((cache, config))
            else:
                groups.setdefault(key, []).append((cache, config))
        sims = {}
        for items in groups.values():
            if len(items) == 1:
                singles.extend(items)
                continue
            configs = [config for _, config in items]
            if all(sweep_geometry(config) is not None
                   for config in configs):
                results = replay_sweep(trace, configs,
                                       max_steps=self.max_steps)
            else:
                results = replay_grid(trace, configs,
                                      max_steps=self.max_steps)
            for (cache, _), sim in zip(items, results):
                sims[cache] = sim
        for cache, config in singles:
            sims[cache] = replay(trace, config, max_steps=self.max_steps)
        return sims

    def cache_sims(self, caches) -> dict:
        """Trace-replayed :class:`SimResult` per cache config, no WCET.

        The geometry-grid entry point: hand any mix of single-level
        cache configs (sizes × associativities) and compatible groups
        collapse into single sweep/grid passes over the one recorded
        trace.  Returns ``{cache_config: SimResult}``.
        """
        return self._cache_sims(list(dict.fromkeys(caches)))

    def sim_for(self, config: SystemConfig) -> SimResult:
        """Trace-replayed simulation of the shared executable, no WCET.

        Accepts any non-scratchpad level pipeline (placement would make
        the executable config-dependent — use :meth:`spm_point` /
        :meth:`hybrid_point` for those).  The serving daemon's
        ``simulate`` op is answered from here.
        """
        if config.spm_size:
            raise ValueError("use hybrid_point/spm_point for SPM pipelines")
        return self._traced_sim(self.baseline_image(), config)

    # -- right branch: cache ----------------------------------------------------------

    def cache_point(self, cache: CacheConfig,
                    persistence: bool = False) -> EvaluationPoint:
        """Evaluate one cache configuration on the shared executable."""
        return self.cache_points([(cache, persistence)])[0]

    def cache_points(self, specs):
        """Evaluate ``(cache, persistence)`` specs, batching the sims.

        The sweep-aware planner: every spec's simulation comes from the
        shared executable's recorded trace, with compatible-geometry
        size sweeps collapsed into one single-pass replay, and WCET
        analysis runs once per distinct spec.  Returns points in spec
        order (memoized like :meth:`cache_point` always was).
        """
        specs = [(cache, bool(persistence)) for cache, persistence in specs]
        pending = [
            spec for spec in dict.fromkeys(specs)
            if ("cache",) + spec not in self._points]
        if pending:
            image = self.baseline_image()
            # Persistence only changes the WCET side; a point already
            # evaluated under the other persistence setting donates its
            # simulation instead of replaying again.
            sims = {}
            for cache, persistence in pending:
                other = self._points.get(("cache", cache, not persistence))
                if other is not None:
                    sims[cache] = other.sim
            fresh = [cache for cache, _ in pending if cache not in sims]
            if fresh:
                sims.update(self._cache_sims(fresh))
            for cache, persistence in pending:
                config = SystemConfig.cached(cache)
                wcet = analyze_wcet(image, config,
                                    persistence=persistence)
                self._points[("cache", cache, persistence)] = \
                    EvaluationPoint(config=config, image=image,
                                    sim=sims[cache], wcet=wcet)
        return [self._points[("cache",) + spec] for spec in specs]

    def cache_sweep(self, sizes=PAPER_SIZES, line_size: int = 16,
                    assoc: int = 1, unified: bool = True,
                    persistence: bool = False):
        return self.cache_points([
            (CacheConfig(size=size, line_size=line_size, assoc=assoc,
                         unified=unified), persistence)
            for size in sizes])

    # -- deeper pipelines (the future-work shapes) ------------------------------

    def multilevel_point(self, l1: CacheConfig, l2: CacheConfig,
                         persistence: bool = False) -> EvaluationPoint:
        """Evaluate an L1+L2 pipeline on the shared executable."""
        config = SystemConfig.two_level(l1, l2)
        return self.config_point(config, persistence=persistence)

    def split_point(self, icache: CacheConfig, dcache: CacheConfig,
                    persistence: bool = False) -> EvaluationPoint:
        """Evaluate split L1 instruction/data caches."""
        config = SystemConfig.split_l1(icache, dcache)
        return self.config_point(config, persistence=persistence)

    def hybrid_point(self, spm_size: int, cache: CacheConfig,
                     method: str = "energy",
                     persistence: bool = False) -> EvaluationPoint:
        """Scratchpad allocation with a cache behind it for the rest."""
        key = ("hybrid", spm_size, cache, method, persistence)
        if key in self._points:
            return self._points[key]
        allocation = self.allocate(spm_size, method, backing_cache=cache)
        image = link(self.program, spm_size=spm_size,
                     spm_objects=allocation.objects,
                     config_name=f"spm{spm_size}+cache{cache.size}")
        config = SystemConfig.hybrid(spm_size, cache)
        sim = self._placed_sim(image, config)
        if sim is None:
            sim = self._traced_sim(image, config, spm_size=spm_size)
        wcet = analyze_wcet(image, config, persistence=persistence)
        point = EvaluationPoint(config=config, image=image, sim=sim,
                                wcet=wcet, allocation=allocation)
        self._points[key] = point
        return point

    def config_point(self, config: SystemConfig,
                     persistence: bool = False) -> EvaluationPoint:
        """Evaluate an arbitrary level pipeline on the shared executable.

        The pipeline must not contain an SPM level (placement would be
        needed) — use :meth:`hybrid_point` / :meth:`spm_point` for those.
        """
        if config.spm_size:
            raise ValueError("use hybrid_point/spm_point for SPM pipelines")
        # Levels are frozen/hashable and capture the full geometry (names
        # alone would collide across e.g. associativity sweeps).
        key = ("config", config.levels, persistence)
        if key in self._points:
            return self._points[key]
        image = self.baseline_image()
        sim = self._traced_sim(image, config)
        wcet = analyze_wcet(image, config, persistence=persistence)
        point = EvaluationPoint(config=config, image=image, sim=sim,
                                wcet=wcet)
        self._points[key] = point
        return point

    # -- baseline -----------------------------------------------------------------------

    def uncached_point(self) -> EvaluationPoint:
        key = ("uncached",)
        if key in self._points:
            return self._points[key]
        image = self.baseline_image()
        config = SystemConfig.uncached()
        sim = self._traced_sim(image, config)
        wcet = analyze_wcet(image, config)
        point = EvaluationPoint(config=config, image=image, sim=sim,
                                wcet=wcet)
        self._points[key] = point
        return point
