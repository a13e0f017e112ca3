"""Ablation A1 (paper future work): other cache configurations.

"In the future, we will consider other cache configurations (instruction
caches instead of unified caches as well as set associative caches) to
investigate their effect on WCET."

Three cache organisations at each size on G.721:

* unified direct-mapped (the paper's experimental setup);
* unified 2-way set-associative LRU;
* instruction-only direct-mapped (data bypasses the cache).

The instruction cache is dramatically friendlier to the MUST analysis
because data accesses can no longer clobber guaranteed cache contents.
"""

from __future__ import annotations

from ..memory.cache import CacheConfig
from ..memory.hierarchy import SystemConfig
from .common import evaluate_points, format_table, sizes, task

LABELS = ("unified_dm", "unified_2way", "icache_dm")


def _configs(size):
    return {
        "unified_dm": CacheConfig(size=size),
        "unified_2way": CacheConfig(size=size, assoc=2),
        "icache_dm": CacheConfig(size=size, unified=False),
    }


def run(fast: bool = False) -> dict:
    sweep = sizes(fast)
    tasks = [task("g721", SystemConfig.cached(_configs(size)[label]))
             for size in sweep for label in LABELS]
    points = iter(evaluate_points(tasks))
    rows = []
    for size in sweep:
        row = {"size": size}
        for label in LABELS:
            point = next(points)
            row[f"{label}_sim"] = point.sim.cycles
            row[f"{label}_wcet"] = point.wcet.wcet
            row[f"{label}_ratio"] = round(point.ratio, 3)
        rows.append(row)
    text = ("Ablation A1: G.721 WCET/sim ratio by cache organisation\n")
    text += format_table(
        ["Size [B]", "unified DM", "unified 2-way", "I-cache DM"],
        [(r["size"], r["unified_dm_ratio"], r["unified_2way_ratio"],
          r["icache_dm_ratio"]) for r in rows])
    return {"name": "ablation_cacheconfig", "rows": rows, "text": text}
