"""Ablation A3: MUST-only vs. MUST + persistence cache analysis.

The paper used "only a subset of the analysis techniques available with
commercial versions" of aiT (a MUST analysis without persistence) and
speculates that "using the full scale of cache analysis techniques ...
would probably lead to improved cache results with respect to WCET.
However ... it is doubtful that the results achieved by using an
inherently predictable scratchpad can be reached."

This experiment quantifies exactly that: the first-miss persistence
analysis tightens the cache WCET, but the scratchpad bound (no cache
analysis at all) stays out of reach.
"""

from __future__ import annotations

from ..memory.cache import CacheConfig
from ..memory.hierarchy import SystemConfig
from .common import evaluate_points, format_table, sizes, task


def run(fast: bool = False) -> dict:
    sweep = sizes(fast)
    tasks = []
    for size in sweep:
        cache = SystemConfig.cached(CacheConfig(size=size))
        tasks.append(task("g721", cache))
        tasks.append(task("g721", cache, persistence=True))
        tasks.append(task("g721", SystemConfig.scratchpad(size)))
    points = iter(evaluate_points(tasks))
    rows = []
    for size in sweep:
        plain = next(points)
        persist = next(points)
        spm = next(points)
        rows.append({
            "size": size,
            "cache_wcet_must": plain.wcet.wcet,
            "cache_wcet_persist": persist.wcet.wcet,
            "spm_wcet": spm.wcet.wcet,
            "improvement_percent": round(
                100.0 * (plain.wcet.wcet - persist.wcet.wcet)
                / plain.wcet.wcet, 1),
        })
    text = ("Ablation A3: G.721 cache WCET with MUST-only vs. "
            "MUST+persistence (vs. scratchpad)\n")
    text += format_table(
        ["Size [B]", "MUST only", "MUST+persist", "gain %", "SPM WCET"],
        [(r["size"], r["cache_wcet_must"], r["cache_wcet_persist"],
          r["improvement_percent"], r["spm_wcet"]) for r in rows])
    return {"name": "ablation_persistence", "rows": rows, "text": text}
