"""Figure 4: G.721 ratio of WCET estimate to simulated cycles.

The paper's main chart: with a scratchpad the ratio is (near) constant
over the whole size range — added performance translates 1:1 into a lower
WCET bound; with a cache the ratio grows with cache size because the
analysis cannot prove the larger cache's contents.
"""

from __future__ import annotations

from .charts import ratio_chart
from .common import branch_points, format_table


def run(fast: bool = False) -> dict:
    spm_side, cache_side = branch_points("g721", fast)

    rows = []
    for spm_p, cache_p in zip(spm_side, cache_side):
        rows.append({
            "size": spm_p.config.spm_size,
            "spm_ratio": round(spm_p.ratio, 3),
            "cache_ratio": round(cache_p.ratio, 3),
        })
    text = ("Figure 4: G.721 — WCET / simulated cycles "
            "(simulation normalised to 1)\n")
    text += format_table(
        ["Size [B]", "Scratchpad", "Cache"],
        [(r["size"], r["spm_ratio"], r["cache_ratio"]) for r in rows])
    text += "\n" + ratio_chart(rows)
    return {"name": "fig4", "rows": rows, "text": text}
