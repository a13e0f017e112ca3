"""Figure 5: MultiSort ratio of WCET to simulated cycles.

Same observable as Figure 4 on the sorting mix: the scratchpad ratio is
roughly constant (the gap reflects typical vs. worst-case *input*, about
3x in the paper), while the cache ratio grows with cache size.
"""

from __future__ import annotations

from .charts import ratio_chart
from .common import branch_points, format_table


def run(fast: bool = False) -> dict:
    spm_side, cache_side = branch_points("multisort", fast)

    rows = []
    for spm_p, cache_p in zip(spm_side, cache_side):
        rows.append({
            "size": spm_p.config.spm_size,
            "spm_ratio": round(spm_p.ratio, 3),
            "cache_ratio": round(cache_p.ratio, 3),
            "spm_sim": spm_p.sim.cycles,
            "spm_wcet": spm_p.wcet.wcet,
            "cache_sim": cache_p.sim.cycles,
            "cache_wcet": cache_p.wcet.wcet,
        })
    text = ("Figure 5: MultiSort — WCET / simulated cycles "
            "(simulation normalised to 1)\n")
    text += format_table(
        ["Size [B]", "Scratchpad", "Cache"],
        [(r["size"], r["spm_ratio"], r["cache_ratio"]) for r in rows])
    text += "\n" + ratio_chart(rows)
    return {"name": "fig5", "rows": rows, "text": text}
