"""Simulator throughput across hierarchy depths (the perf trajectory).

Runs the same executable through a deeper and deeper level pipeline and
reports simulated instructions per host second — the cost of the
composable hierarchy model itself.  Run directly::

    PYTHONPATH=src python benchmarks/bench_hierarchy.py

which writes ``BENCH_hierarchy.json`` next to this file so the repo's
performance trajectory is tracked commit over commit.
"""

import json
import time
from pathlib import Path

from repro.benchmarks import get
from repro.link import link
from repro.memory import CacheConfig, SystemConfig
from repro.minic import compile_source
from repro.sim import simulate

#: One executable, every hierarchy depth the pipeline supports.
CONFIGS = {
    "uncached": SystemConfig.uncached(),
    "l1": SystemConfig.cached(CacheConfig(size=1024)),
    "l1+l2": SystemConfig.two_level(CacheConfig(size=1024),
                                    CacheConfig(size=4096)),
    "split-i/d": SystemConfig.split_l1(
        CacheConfig(size=512, unified=False), CacheConfig(size=512)),
}

def main(rounds: int = 3) -> dict:
    """Standalone run: measure every config, write BENCH_hierarchy.json."""
    image = link(compile_source(get("adpcm").source()).program)
    report = {}
    for label, config in CONFIGS.items():
        best = None
        for _ in range(rounds):
            start = time.perf_counter()
            result = simulate(image, config)
            elapsed = time.perf_counter() - start
            if best is None or elapsed < best:
                best = elapsed
        report[label] = {
            "sim_cycles": result.cycles,
            "instructions": result.instructions,
            "seconds": round(best, 4),
            "instructions_per_sec": round(result.instructions / best),
        }
    out_path = Path(__file__).parent / "BENCH_hierarchy.json"
    out_path.write_text(json.dumps(report, indent=2) + "\n")
    return report


if __name__ == "__main__":
    for label, row in main().items():
        print(f"{label:10} {row['instructions_per_sec']:>10} instr/s "
              f"({row['instructions']} instr in {row['seconds']}s)")
