"""WCET-driven scratchpad allocation (the paper's future-work proposal).

Section 5 of the paper proposes replacing the *energy* cost function with
one that places objects "that lie on the critical path" onto the fast
memory, to optimise the WCET bound directly.  This module implements that
idea as a one-shot analysis:

1. analyse the all-in-main-memory layout to get worst-case execution
   counts of every basic block (IPET's critical-path solution);
2. price each memory object by the *cycles* the worst-case path would save
   if the object moved to the scratchpad (fetches: Table-1 main vs. SPM at
   16 bit; literal-pool loads and data accesses at their widths);
3. solve the same knapsack, but with cycle benefits.

Because moving objects can shift the critical path, the result is a
heuristic (the benefit is an upper estimate priced on the *old* critical
path) — but each step is exact, and re-analysis after placement always
yields a safe bound; the experiment (ablation A2) compares it against the
energy-driven allocation of the main flow.
"""

from __future__ import annotations

import weakref

from ..isa.opcodes import LOAD_WIDTH, STORE_WIDTH, Op
from ..link.linker import link
from ..link.objects import Program
from ..memory.hierarchy import SystemConfig
from ..memory.regions import RegionKind
from ..memory.timing import AccessTiming
from ..wcet.analyzer import analyze_wcet
from .allocator import Allocation
from .knapsack import Item, solve_knapsack


def _worst_case_invocations(result):
    """Function -> worst-case number of invocations, from IPET counts."""
    invocations = {result.entry: 1}
    entry_by_addr = {c.entry: n for n, c in result.cfgs.items()}
    # Top-down: callers before callees.
    order = []
    seen = set()

    def visit(name):
        if name in seen:
            return
        seen.add(name)
        order.append(name)
        cfg = result.cfgs[name]
        for block in cfg.blocks.values():
            if block.call_target is not None:
                visit(entry_by_addr[block.call_target])

    visit(result.entry)
    for name in order:
        cfg = result.cfgs[name]
        count_self = invocations.get(name, 0)
        for baddr, block in cfg.blocks.items():
            if block.call_target is None:
                continue
            callee = entry_by_addr[block.call_target]
            executions = result.block_counts[name].get(baddr, 0)
            invocations[callee] = invocations.get(callee, 0) + \
                count_self * executions
    return invocations


def wcet_cycle_benefits(image, result, timing: AccessTiming = None):
    """Cycle-saving estimate per object if moved to the scratchpad."""
    timing = timing or AccessTiming.table1()
    fetch_delta = timing.cycles(RegionKind.MAIN, 2) - \
        timing.cycles(RegionKind.SPM, 2)
    width_delta = {w: timing.cycles(RegionKind.MAIN, w) -
                   timing.cycles(RegionKind.SPM, w) for w in (1, 2, 4)}

    invocations = _worst_case_invocations(result)
    benefits = {}

    def add(name, cycles):
        benefits[name] = benefits.get(name, 0) + cycles

    for fname, cfg in result.cfgs.items():
        scale = invocations.get(fname, 0)
        if scale == 0:
            continue
        counts = result.block_counts[fname]
        for baddr, block in cfg.blocks.items():
            executions = counts.get(baddr, 0) * scale
            if executions == 0:
                continue
            for addr, instr in block.instrs:
                add(fname, executions * fetch_delta * (instr.size // 2))
                if instr.op is Op.LDRPC:
                    # Literal pool access: moves with the function object.
                    add(fname, executions * width_delta[4])
                    continue
                width = LOAD_WIDTH.get(instr.op) or STORE_WIDTH.get(
                    instr.op)
                if width is None:
                    continue
                note = image.access_notes.get(addr)
                if note is None or note.stack or len(note.targets) != 1:
                    continue  # stack or ambiguous: no attributable gain
                symbol, _lo, _hi = note.targets[0]
                add(symbol, executions * width_delta[width])
    return benefits


#: baseline image -> ``{(levels, timing, entry): knapsack items}``.
#: Only the knapsack's capacity depends on the scratchpad size, so a
#: sweep analyses each pair of program and levels behind the scratchpad
#: once; the entries leave with their image.
_ITEMS = weakref.WeakKeyDictionary()


def _wcet_items(program: Program, baseline_image, baseline_config,
                entry: str) -> list:
    """The knapsack items of *program*: objects with a cycle benefit."""
    timing = baseline_config.timing
    key = (baseline_config.levels, tuple(sorted(timing.main.items())),
           tuple(sorted(timing.spm.items())), entry)
    memo = _ITEMS.setdefault(baseline_image, {})
    items = memo.get(key)
    if items is None:
        baseline = analyze_wcet(baseline_image, baseline_config,
                                entry=entry)
        benefits = wcet_cycle_benefits(baseline_image, baseline)
        items = memo[key] = [
            Item(name=name, size=(size + 3) & ~3, benefit=benefits[name])
            for name, _kind, size in program.memory_objects()
            if benefits.get(name, 0) > 0]
    return items


def allocate_wcet_driven(program: Program, spm_size: int,
                         entry: str = "_start",
                         baseline_config: SystemConfig = None,
                         baseline_image=None) -> Allocation:
    """Pick SPM contents to minimise the WCET bound (one-shot heuristic).

    *baseline_config* is the memory system the all-in-main layout is
    analysed under; it defaults to plain main memory.  Pass the cached
    system when a cache sits behind the scratchpad (a hybrid pipeline)
    so the critical-path block counts reflect that hierarchy — the
    cycle pricing itself stays the Table-1 main-vs-SPM delta, an upper
    estimate either way.  *baseline_image* is that layout, *program*
    linked without a scratchpad; it is linked here when not given.  The
    analysis and the items are memoised per baseline image, so a size
    sweep handed one image analyses it once per *baseline_config*.
    """
    if spm_size <= 0:
        return Allocation(spm_size=spm_size, method="wcet")
    if baseline_image is None:
        baseline_image = link(program, spm_size=0)
    items = _wcet_items(program, baseline_image,
                        baseline_config or SystemConfig.uncached(), entry)
    chosen, benefit = solve_knapsack(items, spm_size)
    used = sum(it.size for it in items if it.name in chosen)
    return Allocation(spm_size=spm_size, objects=chosen, benefit=benefit,
                      used_bytes=used, method="wcet")
