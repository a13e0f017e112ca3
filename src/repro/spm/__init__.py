"""Scratchpad allocation: energy-optimal knapsack + WCET-driven variant."""

from .knapsack import Item, solve_knapsack
from .allocator import Allocation, allocate_energy_optimal, build_items
from .wcet_driven import allocate_wcet_driven, wcet_cycle_benefits

__all__ = [
    "Item", "solve_knapsack",
    "Allocation", "allocate_energy_optimal", "build_items",
    "allocate_wcet_driven", "wcet_cycle_benefits",
]
