"""Section 4 precision check: sorting with a known worst-case input.

"Using a simple sorting algorithm with a known worst case input data set,
the results obtained by simulation on one hand and by WCET on the other
only differed by [a small percentage], highlighting the high precision of
the used WCET analysis tool."

With a strictly descending array every selection-sort comparison takes
the longer (best-update) path and the inner-loop totals are exact
triangular flow facts, so the simulated path *is* the worst-case path and
any remaining WCET gap is pure analysis overestimation.
"""

from __future__ import annotations

from ..memory.hierarchy import SystemConfig
from .common import format_table, workflow_for


def run(fast: bool = False) -> dict:
    workflow = workflow_for("sort_wc")
    point = workflow.config_point(SystemConfig.uncached())
    gap_percent = 100.0 * (point.wcet.wcet - point.sim.cycles) / \
        point.sim.cycles
    rows = [{
        "sim_cycles": point.sim.cycles,
        "wcet_cycles": point.wcet.wcet,
        "gap_percent": round(gap_percent, 2),
    }]
    text = ("Worst-case-input insertion sort (uncached): "
            "analysis precision\n")
    text += format_table(
        ["Sim cycles", "WCET cycles", "Gap %"],
        [(r["sim_cycles"], r["wcet_cycles"], r["gap_percent"])
         for r in rows])
    return {"name": "worstcase_sort", "rows": rows, "text": text}
