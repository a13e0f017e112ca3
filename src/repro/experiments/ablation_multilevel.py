"""Ablation A4 (paper future work): deeper memory hierarchies.

The paper's closing question — how do richer memory hierarchies affect
the predictability gap? — answered quantitatively on G.721 with the
composable level pipeline:

* a fixed small L1 (256 B unified direct-mapped, the paper's geometry)
  alone, as the reference point;
* the same L1 backed by a unified L2 swept across the paper's sizes;
* a split I/D pair of half the L2's budget, for the same sweep.

The qualitative expectation (Hardy & Puaut): the L2 absorbs much of the
simulated miss cost, but MUST analysis at L2 only classifies accesses
the L1 already failed to guarantee — so the WCET/sim *ratio* keeps
degrading even as absolute times improve, the paper's cache argument
one level deeper.
"""

from __future__ import annotations

from ..memory.cache import CacheConfig
from ..memory.hierarchy import SystemConfig
from .common import evaluate_points, format_table, sizes, task

#: The paper's L1 experimental geometry, held fixed across the sweep.
L1_SIZE = 256


def run(fast: bool = False) -> dict:
    l1 = CacheConfig(size=L1_SIZE)
    sweep = [size for size in sizes(fast) if size > L1_SIZE]
    tasks = [task("g721", SystemConfig.cached(l1))]
    for size in sweep:
        tasks.append(task("g721", SystemConfig.two_level(
            l1, CacheConfig(size=size))))
        tasks.append(task("g721", SystemConfig.split_l1(
            CacheConfig(size=size // 2, unified=False),
            CacheConfig(size=size // 2))))
    points = evaluate_points(tasks)
    reference = points[0]
    deeper = iter(points[1:])
    rows = []
    for size in sweep:
        two_level = next(deeper)
        split = next(deeper)
        rows.append({
            "l2_size": size,
            "l1_only_sim": reference.sim.cycles,
            "l1_only_wcet": reference.wcet.wcet,
            "l1_only_ratio": round(reference.ratio, 3),
            "l1l2_sim": two_level.sim.cycles,
            "l1l2_wcet": two_level.wcet.wcet,
            "l1l2_ratio": round(two_level.ratio, 3),
            "split_sim": split.sim.cycles,
            "split_wcet": split.wcet.wcet,
            "split_ratio": round(split.ratio, 3),
        })
    text = ("Ablation A4: G.721 with deeper hierarchies "
            f"(fixed {L1_SIZE} B L1)\n")
    text += format_table(
        ["L2 [B]", "L1-only ratio", "L1+L2 sim", "L1+L2 ratio",
         "split I/D sim", "split ratio"],
        [(r["l2_size"], r["l1_only_ratio"], r["l1l2_sim"],
          r["l1l2_ratio"], r["split_sim"], r["split_ratio"])
         for r in rows])
    return {"name": "ablation_multilevel", "rows": rows, "text": text}
