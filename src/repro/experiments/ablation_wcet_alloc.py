"""Ablation A2 (paper future work): WCET-driven scratchpad allocation.

"Finally, the allocation technique will be extended to not optimize the
allocation of objects to the scratchpad memory using an energy cost
function, but rather to consider placing those objects onto the faster
memory that lie on the critical path of the application.  This is
expected to lead to even better WCET estimates."

Compares, per SPM size and benchmark, the WCET bound achieved by the
paper's energy-optimal knapsack against the critical-path (WCET-driven)
knapsack of :mod:`repro.spm.wcet_driven`.
"""

from __future__ import annotations

from ..memory.hierarchy import SystemConfig
from .common import evaluate_points, format_table, sizes, task

BENCHES = ("g721", "multisort", "adpcm")


def run(fast: bool = False) -> dict:
    rows = []
    sweep = sizes(fast)
    benches = BENCHES[:1] if fast else BENCHES
    tasks = []
    for key in benches:
        for size in sweep:
            spm = SystemConfig.scratchpad(size)
            tasks.append(task(key, spm, method="energy"))
            tasks.append(task(key, spm, method="wcet"))
    points = iter(evaluate_points(tasks))
    for key in benches:
        for size in sweep:
            energy_point = next(points)
            wcet_point = next(points)
            gain = 100.0 * (energy_point.wcet.wcet - wcet_point.wcet.wcet) \
                / energy_point.wcet.wcet
            rows.append({
                "benchmark": key,
                "size": size,
                "wcet_energy_alloc": energy_point.wcet.wcet,
                "wcet_wcet_alloc": wcet_point.wcet.wcet,
                "gain_percent": round(gain, 2),
            })
    text = ("Ablation A2: WCET bound under energy-optimal vs. "
            "WCET-driven allocation\n")
    text += format_table(
        ["Benchmark", "SPM [B]", "energy-driven", "WCET-driven", "gain %"],
        [(r["benchmark"], r["size"], r["wcet_energy_alloc"],
          r["wcet_wcet_alloc"], r["gain_percent"]) for r in rows])
    return {"name": "ablation_wcet_alloc", "rows": rows, "text": text}
