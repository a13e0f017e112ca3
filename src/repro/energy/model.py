"""Instruction-level energy model (Steinke et al. style).

The paper's allocation objective is *energy*: memory objects go to the
scratchpad to maximise saved energy per access, using the instruction-level
model of Steinke et al. (PATMOS 2001) with the memory energies of the
scratchpad-vs-cache comparison (Banakar et al., CODES 2002).

Absolute calibration is irrelevant to the reproduction (only benefit
*ratios* steer the knapsack), so the constants below are representative
values in nanojoules with the relationships those papers report:

* a main-memory access costs an order of magnitude more energy than a
  scratchpad access of the same width;
* 32-bit main-memory accesses cost more than 16-bit ones (two bus cycles);
* cache accesses cost more than scratchpad accesses of the same capacity
  (tag store + comparators), growing with cache size.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from ..memory.cache import CacheConfig

#: Base CPU energy per executed instruction (nJ).
CPU_INSTR_NJ = 1.0

#: Main-memory access energy by width in bytes (nJ).
MAIN_ACCESS_NJ = {1: 15.5, 2: 15.5, 4: 31.0}

#: Scratchpad access energy by width in bytes (nJ) — roughly an order of
#: magnitude below main memory (Banakar et al.).
SPM_ACCESS_NJ = {1: 1.2, 2: 1.2, 4: 1.6}


def cache_access_energy_nj(config: CacheConfig) -> float:
    """Energy per cache access (hit path) for a given geometry (nJ).

    CACTI-flavoured scaling: tag + data array energy grows with log2 of
    the capacity and with associativity (parallel ways).
    """
    size_term = 0.35 * math.log2(max(config.size, 64) / 64 + 1)
    way_term = 0.45 * config.assoc
    return 1.1 + size_term + way_term


@dataclass(frozen=True)
class EnergyModel:
    """Access/instruction energies used by allocator and reports."""

    cpu_instr: float = CPU_INSTR_NJ
    main: dict = field(default_factory=lambda: dict(MAIN_ACCESS_NJ))
    spm: dict = field(default_factory=lambda: dict(SPM_ACCESS_NJ))

    def spm_benefit_per_access(self, width: int) -> float:
        """Energy saved by serving one access from SPM instead of main."""
        return self.main[width] - self.spm[width]

    def object_benefit(self, kind: str, accesses: int,
                       element_width: int) -> float:
        """Knapsack benefit of placing one object in the scratchpad.

        Code objects are fetched 16 bits at a time; data objects are
        accessed at their element width.
        """
        width = 2 if kind == "code" else element_width
        return accesses * self.spm_benefit_per_access(width)
