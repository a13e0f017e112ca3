"""Figure 6: ADPCM absolute results.

Paper observations reproduced here:

* for small caches the benchmark degrades badly (conflict misses), while
  even a small scratchpad already beats it in absolute terms;
* the overall WCET/sim deviation is low for ADPCM (little data-dependent
  control flow — the program is mostly critical path);
* for larger sizes the cache's WCET again fails to follow the average
  case while the scratchpad's does.
"""

from __future__ import annotations

from .charts import cycles_chart
from .common import branch_points, cache_rows, format_table, spm_rows


def run(fast: bool = False) -> dict:
    spm_side, cache_side = branch_points("adpcm", fast)

    rows_spm = spm_rows(spm_side)
    rows_cache = cache_rows(cache_side)
    text = "Figure 6: ADPCM using a scratchpad\n"
    text += format_table(
        ["SPM [B]", "Sim cycles", "WCET cycles", "WCET/Sim"],
        [(r["size"], r["sim_cycles"], r["wcet_cycles"], r["ratio"])
         for r in rows_spm])
    text += "\n" + cycles_chart(rows_spm)
    text += "\n\nFigure 6 (cont.): ADPCM using a unified cache\n"
    text += format_table(
        ["Cache [B]", "Sim cycles", "WCET cycles", "WCET/Sim"],
        [(r["size"], r["sim_cycles"], r["wcet_cycles"], r["ratio"])
         for r in rows_cache])
    text += "\n" + cycles_chart(rows_cache)
    return {"name": "fig6", "rows": rows_spm + rows_cache,
            "spm": rows_spm, "cache": rows_cache, "text": text}
