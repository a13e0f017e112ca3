"""The WCET analyser driver (the aiT role in the paper's Figure 1).

Pipeline, mirroring the separated cache/path architecture the paper cites
(Ferdinand et al.):

1. CFG reconstruction from the linked binary;
2. stack-depth analysis (bounds sp-relative accesses);
3. for cached systems: interprocedural MUST cache analysis
   (+ optional persistence); for scratchpad systems **nothing** — region
   timing suffices, which is the paper's central observation;
4. bottom-up per-function IPET (callee WCETs fold into call sites;
   recursion is rejected);
5. the program WCET is the entry function's bound.

All repeated work is content-addressed (see ``docs/performance.md``):
the *frontend* (CFG reconstruction, stack analysis, access resolution,
each instruction's static cost row and, on first use, each function's
bounded loops) is memoized per image content hash, the
cache analysis shares one access layout per image and line size and
each cache level's fixpoints go through
:mod:`~repro.wcet.cacheanalysis`'s reuse cache, and per-function IPET
solutions are memoized on their exact inputs (costs, edge extras, scope
penalties).  A configuration then pays for its fixpoints, one
:meth:`~repro.wcet.costmodel.CostModel.block_cost` call per block and
its IPET solves, not for re-deriving the image.

A scratchpad placement with no cache level costs no frontend of its
own: the linker moves whole objects, so it is analysed on its baseline
link's frontend with every address moved by its object's change of base
(:meth:`_Frontend.relocated`), and it shares that frontend's IPET memo.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..isa.opcodes import SP_RELATIVE_OPS, Op
from ..link.image import Image, symbol_deltas
from ..memory.hierarchy import SystemConfig
from ..store import LRUCache
from . import cacheanalysis
from .accesses import DataAccess, resolve_all
from .cacheanalysis import FM, analyze_hierarchy
from .cfg import build_all_cfgs
from .costmodel import CostModel, cost_table
from .ipet import solve_function_ipet
from .loops import resolve_bounds
from .stackdepth import stack_region


class WCETError(Exception):
    pass


#: (image content key, entry) -> :class:`_Frontend`, bounded like the
#: trace table; each frontend holds its image's IPET memo.
_FRONTEND_CACHE = LRUCache(64)

COUNTERS = {
    "frontend_hits": 0,
    "frontend_misses": 0,
    "ipet_hits": 0,
    "ipet_misses": 0,
}


def clear_analysis_caches():
    """Drop every in-memory analysis cache (frontend, IPET, and the
    cache-analysis reuse layer) — cold-start measurement helper."""
    _FRONTEND_CACHE.clear()
    cacheanalysis.clear_analysis_caches()


def analysis_counters() -> dict:
    """Merged cache/interning counters (``repro-cc wcet --profile``).

    Includes the on-disk reuse store's resilience counters
    (``reuse_store_corrupt`` and friends), so silently-impossible
    corruption handling stays observable.
    """
    merged = cacheanalysis.reuse_counters()
    merged.update(COUNTERS)
    return merged


#: Per-function IPET solutions one frontend keeps (least recently used
#: go first); a paper sweep's largest memo holds 396.
IPET_MEMO_SIZE = 512


class _Frontend:
    """Everything one image yields before any memory configuration.

    CFGs, the stack range, every instruction's resolved data access and
    static cost rows (:func:`~repro.wcet.costmodel.cost_table`) are
    built once; each function's bounded loops are resolved on first
    use, so an unbounded loop in a function the entry never calls
    raises nothing.  Per-function IPET solutions are memoized here too
    (:meth:`ipet`).
    """

    def __init__(self, image: Image, entry: str):
        self.notes = image.access_notes
        self.flow_facts = (image.loop_bounds, image.loop_totals)
        self.cfgs = build_all_cfgs(image)
        self.entry_by_addr = {cfg.entry: name
                              for name, cfg in self.cfgs.items()}
        if entry not in self.cfgs:
            raise WCETError(f"no function named {entry!r} in the image")
        self.stack_range = stack_region(self.cfgs, entry,
                                        self.entry_by_addr)
        self.accesses = resolve_all(image, self.cfgs, self.stack_range)
        self.costs = cost_table(self.cfgs)
        self._loops = {}
        self._ipet = LRUCache(IPET_MEMO_SIZE)
        self._movers = None

    def relocated(self, deltas: dict):
        """``(costs, accesses)`` of the image relinked with each symbol
        moved by ``deltas[symbol]`` (:func:`~repro.link.image.
        symbol_deltas`): what the placed image's own frontend resolves.

        *costs* keeps the block keys of :attr:`costs` and moves each
        row's fetch addresses by its function's delta; *accesses* is
        keyed by the moved instruction addresses.  A literal-pool load
        moves with its function and a noted access's ranges with the
        objects its note names; stack and unknown accesses stay.
        """
        if not any(deltas.values()):
            return self.costs, self.accesses
        if self._movers is None:
            self._movers = self._range_owners()
        costs = {}
        for name, cfg in self.cfgs.items():
            shift = deltas[name]
            for baddr in cfg.blocks:
                fixed, taken, narrow, wide = row = self.costs[baddr]
                costs[baddr] = (row if not shift else (
                    fixed, taken, tuple(addr + shift for addr in narrow),
                    tuple(addr + shift for addr in wide)))
        accesses = {}
        for addr, function, access, owners in self._movers:
            shifts = [deltas[owner] if owner else 0 for owner in owners]
            if any(shifts):
                access = DataAccess(
                    access.width, access.is_write,
                    tuple((lo + shift, hi + shift) for (lo, hi), shift
                          in zip(access.ranges, shifts)),
                    access.exact, access.count)
            accesses[addr + deltas[function]] = access
        return costs, accesses

    def _range_owners(self):
        """``(addr, function, access, owners)`` per data access: the
        symbol each of its ranges moves with, None for one that stays."""
        notes = self.notes
        movers = []
        for name, cfg in self.cfgs.items():
            for block in cfg.blocks.values():
                for addr, instr in block.instrs:
                    access = self.accesses[addr]
                    if access is None:
                        continue
                    if access.unknown:
                        owners = ()
                    elif instr.op is Op.LDRPC:
                        owners = (name,)
                    elif instr.op in SP_RELATIVE_OPS or notes[addr].stack:
                        owners = (None,)
                    else:
                        owners = tuple(symbol for symbol, _lo, _hi
                                       in notes[addr].targets)
                    movers.append((addr, name, access, owners))
        return movers

    def loops(self, name):
        loops = self._loops.get(name)
        if loops is None:
            loops = self._loops[name] = resolve_bounds(
                self.cfgs[name], *self.flow_facts)
        return loops

    def ipet(self, name, block_costs, edge_extras, scope_penalties):
        """Memoized per-function IPET: the image pins the CFG and loop
        bounds, so the exact (costs, extras, penalties) triple
        determines the IPET problem and therefore its solution."""
        key = (name,
               tuple(sorted(block_costs.items())),
               tuple(sorted(edge_extras.items())),
               tuple(sorted(scope_penalties.items())))
        result = self._ipet.get(key)
        if result is not None:
            COUNTERS["ipet_hits"] += 1
            return result
        COUNTERS["ipet_misses"] += 1
        result = self._ipet[key] = solve_function_ipet(
            self.cfgs[name], block_costs, edge_extras, self.loops(name),
            scope_penalties)
        return result


def _frontend(image: Image, entry: str) -> _Frontend:
    """Memoized CFG + stack + access resolution for one image."""
    key = (image.content_key(), entry)
    front = _FRONTEND_CACHE.get(key)
    if front is not None:
        COUNTERS["frontend_hits"] += 1
        return front
    COUNTERS["frontend_misses"] += 1
    front = _FRONTEND_CACHE[key] = _Frontend(image, entry)
    return front


@dataclass
class WCETResult:
    """Outcome of a whole-program WCET analysis.

    A scratchpad placement priced on its baseline's frontend
    (:func:`analyze_wcet` given *baseline*) reports the baseline's
    ``cfgs`` and ``block_counts``, keyed by the baseline's block
    addresses.  The two agree with each other; each function's keys
    differ from the placed image's by that function's change of base.
    Nothing in ``repro`` reads them for a scratchpad point.
    """

    wcet: int
    config: SystemConfig
    per_function: dict = field(default_factory=dict)
    stack_range: tuple = (0, 0)
    #: outermost cache level's classification (the paper's single-cache
    #: view); see ``hierarchy_result`` for the full level pipeline
    cache_result: object = None
    #: per-level classifications (HierarchyCacheResult) for cached configs
    hierarchy_result: object = None
    #: entry function analysed (usually ``_start``)
    entry: str = "_start"
    #: function -> {block addr -> executions per function invocation on
    #: the critical path} (consumed by the WCET-driven allocator)
    block_counts: dict = field(default_factory=dict)
    #: reconstructed CFGs (function name -> FunctionCFG)
    cfgs: dict = field(default_factory=dict)

    def report(self) -> str:
        lines = [f"WCET({self.entry}) = {self.wcet} cycles "
                 f"[{self.config.describe()}]"]
        for name, wcet in sorted(self.per_function.items(),
                                 key=lambda kv: -kv[1]):
            lines.append(f"  {name:24} {wcet:>12}")
        return "\n".join(lines)


def _call_order(cfgs, entry_by_addr, entry: str):
    """Bottom-up (callees first) topological order of the call graph."""
    order = []
    seen = set()

    def visit(name, stack):
        if name in seen:
            return
        if name in stack:
            raise WCETError(f"recursive call chain through {name!r}")
        stack.add(name)
        for callee_addr in cfgs[name].calls:
            callee = entry_by_addr.get(callee_addr)
            if callee is None:
                raise WCETError(
                    f"{name!r} calls unknown address {callee_addr:#x}")
            visit(callee, stack)
        stack.discard(name)
        seen.add(name)
        order.append(name)

    visit(entry, set())
    return order


def analyze_wcet(image: Image, config: SystemConfig, entry: str = "_start",
                 persistence: bool = False,
                 baseline: Image = None) -> WCETResult:
    """Compute a safe WCET bound for *image* under *config*.

    *persistence* enables the optional first-miss cache analysis
    (the paper's "full aiT" ablation); it has no effect on scratchpad or
    uncached systems.  *baseline* is the same program linked without a
    scratchpad (ValueError if it links another program); when *config*
    has no cache level, *image* is analysed on the baseline's memoized
    frontend, relocated, and the bound is the one *image*'s own frontend
    gives.  A cached config analyses *image* itself: the cache maps sets
    from its addresses.
    """
    # Memoized frontend: CFGs, stack range and every instruction's
    # resolved data access and static cost, shared by all levels and
    # the cost model.
    if baseline is None or config.has_cache:
        front = _frontend(image, entry)
        rows, accesses = front.costs, front.accesses
    else:
        front = _frontend(baseline, entry)
        rows, accesses = front.relocated(symbol_deltas(baseline, image))
    cfgs = front.cfgs

    hierarchy_result = None
    cache_result = None
    if config.has_cache:
        hierarchy_result = analyze_hierarchy(
            image, cfgs, config, front.stack_range, entry,
            persistence=persistence, resolved_accesses=accesses)
        cache_result = hierarchy_result.primary

    costs = CostModel(config, accesses, hierarchy_result)
    # First-miss fetches exist only under persistence.
    fm_classes = (cache_result.classes
                  if persistence and cache_result is not None else None)

    per_function = {}
    block_counts = {}
    for name in _call_order(cfgs, front.entry_by_addr, entry):
        cfg = cfgs[name]
        block_costs = {}
        edge_extras = {}
        fm_lines = {}  # scope header -> set of first-miss lines
        for baddr, block in cfg.blocks.items():
            total, taken_extra = costs.block_cost(rows[baddr])
            if taken_extra:
                if len(block.succs) >= 2:
                    edge_extras[(baddr, block.succs[0])] = taken_extra
                else:
                    total += taken_extra  # degenerate bcc
            if fm_classes is not None:
                for addr, _instr in block.instrs:
                    entry_class = fm_classes.get(addr)
                    if entry_class is not None and entry_class.fetch == FM:
                        fm_lines.setdefault(
                            entry_class.fetch_scope, set()).add(
                            config.cache.block_of(addr))
            if block.call_target is not None:
                callee = front.entry_by_addr[block.call_target]
                total += per_function[callee]
            block_costs[baddr] = total

        scope_penalties = {
            header: len(lines) * costs.fetch_miss_penalty(0)
            for header, lines in fm_lines.items()
        }
        result = front.ipet(name, block_costs, edge_extras,
                            scope_penalties)
        per_function[name] = result.wcet
        block_counts[name] = result.block_counts

    return WCETResult(
        wcet=per_function[entry],
        config=config,
        per_function=per_function,
        stack_range=front.stack_range,
        cache_result=cache_result,
        hierarchy_result=hierarchy_result,
        entry=entry,
        block_counts=block_counts,
        cfgs=cfgs,
    )
