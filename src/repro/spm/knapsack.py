"""The 0/1 knapsack behind scratchpad allocation.

The paper formulates static allocation as a knapsack problem in ILP form
and solves it with a commercial solver::

    maximise   sum(benefit_i * y_i)
    subject to sum(size_i * y_i) <= capacity,   y_i in {0, 1}

:func:`solve_knapsack` computes that optimum exactly with a dynamic
program over capacities, vectorised with numpy.  Benefits (float energy
savings or integer cycle savings) become exact integers over their
common power-of-two denominator (``float.as_integer_ratio``), so the
optimum is decided by integer arithmetic, not by a rounding scale or a
tolerance.

Ties: an item joins the chosen set only if it strictly improves on the
best set of the items before it.  Among optimal sets the DP therefore
keeps the one that leaves out the latest item (in input order) it can,
then the latest of the rest, and so on: of identical items, the first
ones are chosen.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Item:
    """One knapsack candidate (a memory object)."""

    name: str
    size: int
    benefit: float


def solve_knapsack(items, capacity: int):
    """0/1 knapsack: returns (chosen names, total benefit).

    Items without a positive benefit, or larger than *capacity*, are
    never chosen.
    """
    candidates = [it for it in items
                  if it.benefit > 0 and it.size <= capacity]
    if not candidates:
        return set(), 0.0
    ratios = [it.benefit.as_integer_ratio() for it in candidates]
    denominator = max(den for _num, den in ratios)
    values = [num * (denominator // den) for num, den in ratios]
    unit = math.gcd(capacity, *(it.size for it in candidates))
    slots = capacity // unit

    # best[c]: the largest benefit within c units of capacity.
    best = np.zeros(slots + 1, dtype=object)
    taken = np.zeros((len(candidates), slots + 1), dtype=bool)
    for index, (item, value) in enumerate(zip(candidates, values)):
        weight = item.size // unit
        with_item = best[:slots + 1 - weight] + value
        better = with_item > best[weight:]
        taken[index, weight:] = better
        best[weight:] = np.where(better, with_item, best[weight:])

    chosen = set()
    room = slots
    for index in range(len(candidates) - 1, -1, -1):
        if taken[index, room]:
            chosen.add(candidates[index].name)
            room -= candidates[index].size // unit
    total = sum(it.benefit for it in candidates if it.name in chosen)
    return chosen, total
