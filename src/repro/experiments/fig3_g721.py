"""Figure 3: G.721 absolute results (simulated cycles and WCET).

* Figure 3a — scratchpad branch: simulated cycles and estimated WCET both
  decrease as the SPM grows, and the curves stay parallel.
* Figure 3b — cache branch: simulated cycles drop with cache size (after
  the small-cache conflict-miss bump), while the estimated WCET "stays at
  a very high level for all cache sizes".
"""

from __future__ import annotations

from .charts import cycles_chart
from .common import branch_points, cache_rows, format_table, spm_rows


def run(fast: bool = False) -> dict:
    spm_side, cache_side = branch_points("g721", fast)

    rows_a = spm_rows(spm_side)
    rows_b = cache_rows(cache_side)

    text = "Figure 3a: G.721 using a scratchpad\n"
    text += format_table(
        ["SPM [B]", "Sim cycles", "WCET cycles", "WCET/Sim"],
        [(r["size"], r["sim_cycles"], r["wcet_cycles"], r["ratio"])
         for r in rows_a])
    text += "\n" + cycles_chart(rows_a)
    text += "\n\nFigure 3b: G.721 using a unified direct-mapped cache\n"
    text += format_table(
        ["Cache [B]", "Sim cycles", "WCET cycles", "WCET/Sim"],
        [(r["size"], r["sim_cycles"], r["wcet_cycles"], r["ratio"])
         for r in rows_b])
    text += "\n" + cycles_chart(rows_b)
    return {"name": "fig3", "rows": rows_a + rows_b,
            "spm": rows_a, "cache": rows_b, "text": text}
