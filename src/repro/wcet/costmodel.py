"""Worst-case cycle cost of individual instructions.

Uses the *same* level pipeline and :func:`~repro.memory.levels.serve_costs`
table as the simulator (:mod:`repro.memory.levels`); the only difference
is that concrete addresses/cache states are replaced by static
classifications:

* scratchpad/uncached systems: every address range maps to its region
  statically, so costs are exact — the paper's point that a scratchpad
  needs *no* analysis beyond region annotation;
* cached systems: an access classified always-hit at the outermost cache
  costs that level's hit; anything else is priced by walking the level
  chain — it pays the miss fills down to the first level whose MUST
  analysis guarantees a hit (Hardy & Puaut), or all the way to main
  memory; writes are write-through and cost main-memory time in both
  worlds.

What does not depend on the configuration — fetched halfwords, execute
extras, refills, the taken-edge refill — is one :func:`cost_table` per
image; :meth:`CostModel.block_cost` adds the part a configuration
decides, with each instruction's resolved access, block by block.
"""

from __future__ import annotations

from ..isa.opcodes import Op
from ..memory.hierarchy import SystemConfig
from ..memory.levels import path_geometry, serve_costs
from ..memory.timing import (
    BRANCH_REFILL_CYCLES,
    instruction_extra_cycles,
)
from .accesses import DataAccess
from .cacheanalysis import (
    AH,
    FM,
    CacheAnalysisResult,
    HierarchyCacheResult,
    LevelClassification,
)


def _wrap_single_level(config: SystemConfig, result: CacheAnalysisResult):
    """Adapt a bare single-level analysis result to the hierarchy shape."""
    level = config.cache_level_specs[0]
    wrapped = HierarchyCacheResult()
    wrapped.levels.append(LevelClassification(
        level=level,
        iresult=result if level.icache is not None else None,
        dresult=result if level.dcache is not None else None))
    return wrapped


def static_costs(instrs) -> tuple:
    """The configuration-independent part of a block's *instrs*.

    ``(fixed, taken, narrow, wide)``: the cycles charged whatever the
    memory (execute extras plus the refills of unconditional branches
    and returns), the refill a conditional branch adds on its taken
    edge, and the addresses of the 16-bit and of the 32-bit
    instructions (one fetched halfword or two).
    """
    fixed = taken = 0
    narrow, wide = [], []
    for addr, instr in instrs:
        op = instr.op
        fixed += instruction_extra_cycles(op)
        if op in (Op.B, Op.BL, Op.BX) or (op is Op.POP and instr.with_link):
            fixed += BRANCH_REFILL_CYCLES
        elif op is Op.BCC:
            taken += BRANCH_REFILL_CYCLES
        (wide if instr.size == 4 else narrow).append(addr)
    return fixed, taken, tuple(narrow), tuple(wide)


def cost_table(cfgs: dict) -> dict:
    """``block start -> static_costs`` of every block of one image,
    computed once per image; :meth:`CostModel.block_cost` adds the part
    a configuration decides."""
    return {baddr: static_costs(block.instrs)
            for cfg in cfgs.values()
            for baddr, block in cfg.blocks.items()}


class CostModel:
    """Static per-instruction worst-case costs for one system config."""

    def __init__(self, config: SystemConfig, data_accesses: dict,
                 cache_result=None):
        self.config = config
        self.timing = config.timing
        self.spm_size = config.spm_size
        self.cache = config.cache
        self._data = data_accesses

        fetch_levels = config.fetch_path()
        data_levels = config.data_path()
        if (fetch_levels or data_levels) and cache_result is None:
            raise ValueError("cached config needs a cache analysis result")
        if isinstance(cache_result, CacheAnalysisResult):
            cache_result = _wrap_single_level(config, cache_result)
        self.cache_result = cache_result

        #: [(CacheLevel, CacheAnalysisResult)] along each access path.
        self._fetch = (cache_result.fetch_results()
                       if fetch_levels else [])
        self._data_levels = (cache_result.data_results()
                             if data_levels else [])
        # Raw per-level classification dicts: the per-instruction cost
        # loop probes these thousands of times, so skip the accessor
        # methods and their AccessClass default handling.
        self._fetch_classes = [result.classes
                               for _level, result in self._fetch]
        self._data_classes = [result.classes
                              for _level, result in self._data_levels]
        self._fetch_serve = serve_costs(
            path_geometry(fetch_levels, "i"), self.timing)
        self._data_serve = serve_costs(
            path_geometry(data_levels, "d"), self.timing)
        # Region timing per access width.
        self._spm_cycles = self.timing.spm
        self._main_cycles = self.timing.main

    # -- chain walking -------------------------------------------------------

    def _fetch_miss_cost(self, addr: int) -> int:
        """Cycles of an outer-level fetch miss: fills down to the first
        level whose MUST analysis guarantees the line, else main."""
        for idx in range(1, len(self._fetch_classes)):
            entry = self._fetch_classes[idx].get(addr)
            if entry is not None and entry.fetch == AH:
                return self._fetch_serve[idx]
        return self._fetch_serve[len(self._fetch_classes)]

    def _data_miss_cost(self, addr: int) -> int:
        for idx in range(1, len(self._data_classes)):
            entry = self._data_classes[idx].get(addr)
            if entry is not None and entry.data == AH:
                return self._data_serve[idx]
        return self._data_serve[len(self._data_classes)]

    # -- fetch ---------------------------------------------------------------

    def fetch_cost(self, addr: int, instr) -> int:
        return self._fetch_cycles(addr, instr.size // 2)

    def _fetch_cycles(self, addr: int, halves: int) -> int:
        if addr < self.spm_size:
            return halves * self._spm_cycles[2]
        if not self._fetch:
            return halves * self._main_cycles[2]
        level, _result = self._fetch[0]
        entry = self._fetch_classes[0].get(addr)
        fetch_class = entry.fetch if entry is not None else None
        if fetch_class in (AH, FM):
            # FM is charged as a hit here; the per-scope penalty is added
            # by the IPET builder on the loop's entry edges.
            return halves * level.hit_cycles
        miss = self._fetch_miss_cost(addr)
        if halves == 1:
            return miss
        line = level.icache.line_size
        same_line = addr // line == (addr + 2) // line
        if same_line:
            return miss + level.hit_cycles
        # The outer level's classification covers both halves, so a
        # deeper guaranteed hit (if any) covers both of them too.
        return 2 * miss

    def fetch_miss_penalty(self, addr: int) -> int:
        """Extra cycles of the one FM miss vs. the charged hit."""
        if not self._fetch:
            return 0
        return (self._fetch_serve[len(self._fetch)]
                - self._fetch[0][0].hit_cycles)

    # -- data ----------------------------------------------------------------

    def data_cost(self, addr: int) -> int:
        access = self._data.get(addr)
        return 0 if access is None else self._data_cycles(addr, access)

    def _data_cycles(self, addr: int, access: DataAccess) -> int:
        spm = self.spm_size
        width = access.width
        count = access.count
        ranges = access.ranges
        in_spm = not access.unknown and bool(ranges)
        for _lo, hi in ranges:
            if hi > spm:
                in_spm = False
                break
        if self._data_levels and not in_spm:
            # Behind a cache: write-through, no allocate, so a store
            # pays main memory; a read pays what its classification
            # guarantees.
            if access.is_write:
                return self._main_cycles[width] * count
            if count == 1:
                entry = self._data_classes[0].get(addr)
                if entry is not None and entry.data == AH:
                    return self._data_levels[0][0].hit_cycles
            return self._data_miss_cost(addr) * count
        # No cache on this access's path: region timing is exact, the
        # worst region any of its ranges can touch.
        if access.unknown:
            return self._main_cycles[width] * count
        worst = 0
        for lo, hi in ranges or ((0, 0),):
            if lo < spm:
                worst = max(worst, self._spm_cycles[width])
            if max(lo, hi - 1) >= spm:
                worst = max(worst, self._main_cycles[width])
        return worst * count

    # -- whole instructions and blocks ---------------------------------------

    def instr_cost(self, addr: int, instr):
        """Return ``(base_cycles, taken_edge_extra)`` for one instruction.

        *base_cycles* is charged whenever the instruction executes;
        *taken_edge_extra* (non-zero only for conditional branches) is
        charged on the taken edge by the IPET builder.
        """
        return self.block_cost(static_costs(((addr, instr),)))

    def block_cost(self, static):
        """``(cycles, taken_edge_extra)`` of a block from its
        :func:`static_costs`: the fixed cycles plus what this
        configuration's fetch and data pricing charge each instruction
        (its data access is the resolved one)."""
        fixed, taken, narrow, wide = static
        fetch = self._fetch_cycles
        price = self._data_cycles
        accesses = self._data
        cycles = fixed
        for halves, addrs in ((1, narrow), (2, wide)):
            for addr in addrs:
                cycles += fetch(addr, halves)
                access = accesses.get(addr)
                if access is not None:
                    cycles += price(addr, access)
        return cycles, taken
