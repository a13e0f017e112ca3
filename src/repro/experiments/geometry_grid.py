"""Geometry grid (paper future work): size × associativity in one pass.

"In the future, we will consider other cache configurations
(instruction caches instead of unified caches as well as set
associative caches) to investigate their effect on WCET."

Where ablation A1 compares three fixed organisations, this experiment
maps the whole instruction-cache design space for ADPCM — every paper
size crossed with associativities 1/2/4/8 — and every point is priced
from **one** recorded trace in **one** replay pass: the per-set Mattson
stack kernel yields the hit count of all associativities per set count
simultaneously (points with fewer than one set are skipped).

The simulation side only: the table reports observed cycles and fetch
miss rates, making the latency cliffs between neighbouring geometries
visible.  It carries no WCET column because a bound costs one cache
analysis per geometry, not one pass for the whole grid; the analysis
itself (:mod:`repro.wcet.cacheanalysis`) bounds any associativity, and
``Workflow.config_point`` or a served ``wcet`` request prices a single
set-associative geometry.
"""

from __future__ import annotations

from ..memory.cache import CacheConfig
from .common import format_table, sizes, workflow_for

ASSOCS = (1, 2, 4, 8)
LINE = 16


def _grid(sweep):
    return [(size, assoc) for size in sweep for assoc in ASSOCS
            if size >= LINE * assoc]


def run(fast: bool = False) -> dict:
    sweep = sizes(fast)
    workflow = workflow_for("adpcm")
    caches = {point: CacheConfig(size=point[0], assoc=point[1],
                                 unified=False)
              for point in _grid(sweep)}
    sims = workflow.cache_sims(caches.values())
    rows = []
    for (size, assoc), cache in caches.items():
        sim = sims[cache]
        stats = sim.cache_stats
        fetches = stats.fetch_hits + stats.fetch_misses
        rows.append({
            "size": size,
            "assoc": assoc,
            "cycles": sim.cycles,
            "fetch_miss_pct": round(
                100.0 * stats.fetch_misses / max(fetches, 1), 2),
        })
    cells = {(row["size"], row["assoc"]): row for row in rows}
    text = ("Geometry grid: ADPCM I-cache cycles "
            f"({len(rows)} points, one trace pass)\n")
    text += format_table(
        ["Size [B]"] + [f"{assoc}-way" for assoc in ASSOCS],
        [[size] + [cells[(size, assoc)]["cycles"]
                   if (size, assoc) in cells else "-"
                   for assoc in ASSOCS]
         for size in sweep])
    return {"name": "geometry_grid", "rows": rows, "text": text}
