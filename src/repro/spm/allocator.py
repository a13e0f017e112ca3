"""Static energy-optimal scratchpad allocation (Steinke et al., DATE'02).

The paper's left branch (Figure 1): given a profile of a typical run, each
memory object (function or global) gets a *benefit* — the energy saved if
all its accesses were served by the scratchpad — and the object subset is
chosen by a knapsack under the SPM capacity (:mod:`repro.spm.knapsack`
solves the paper's ILP exactly).  Placement is then fixed at link time,
which is what makes every access statically predictable.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..energy.model import EnergyModel
from ..link.objects import Program
from ..sim.profile import ProgramProfile
from .knapsack import Item, solve_knapsack


@dataclass
class Allocation:
    """Result of one allocation decision."""

    spm_size: int
    objects: set = field(default_factory=set)
    benefit: float = 0.0
    used_bytes: int = 0
    #: the objective the set maximises: ``"energy"`` or ``"wcet"``
    method: str = "energy"

    def __contains__(self, name):
        return name in self.objects


def _aligned(size: int) -> int:
    """Bytes the linker will actually reserve (4-byte alignment)."""
    return (size + 3) & ~3


def build_items(program: Program, profile: ProgramProfile,
                model: EnergyModel = None):
    """Knapsack items for every allocatable object of *program*."""
    model = model or EnergyModel()
    items = []
    for func in program.functions:
        if func.name not in profile:
            continue
        accesses = profile[func.name].accesses
        items.append(Item(
            name=func.name, size=_aligned(func.size),
            benefit=model.object_benefit("code", accesses, 2)))
    for glob in program.globals:
        if glob.name not in profile:
            continue
        accesses = profile[glob.name].accesses
        items.append(Item(
            name=glob.name, size=_aligned(glob.size),
            benefit=model.object_benefit("data", accesses,
                                         glob.element_width)))
    return items


def allocate_energy_optimal(program: Program, profile: ProgramProfile,
                            spm_size: int,
                            model: EnergyModel = None) -> Allocation:
    """Choose the energy-optimal object set for an *spm_size* scratchpad."""
    if spm_size <= 0:
        return Allocation(spm_size=spm_size)
    items = build_items(program, profile, model)
    chosen, benefit = solve_knapsack(items, spm_size)
    used = sum(it.size for it in items if it.name in chosen)
    return Allocation(spm_size=spm_size, objects=chosen, benefit=benefit,
                      used_bytes=used)
