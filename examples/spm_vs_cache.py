#!/usr/bin/env python3
"""The paper's headline experiment on the ADPCM benchmark.

Sweeps scratchpad and cache capacities from 64 B to 8 KB (Figure 1's two
branches) and prints the Figure-4-style ratio table: with a scratchpad the
WCET bound tracks the average case at a constant factor; with a cache the
bound decouples and the ratio grows with capacity.

Run time is a couple of minutes (full sweeps, both branches).
Pass ``--fast`` for a three-point sweep.
"""

import sys

from repro.benchmarks import get
from repro.memory import CacheConfig, SystemConfig
from repro.workflow import PAPER_SIZES, Workflow

FAST_SIZES = (64, 512, 4096)


def main():
    sizes = FAST_SIZES if "--fast" in sys.argv else PAPER_SIZES
    workflow = Workflow(get("adpcm").source())

    print("ADPCM — scratchpad branch (energy-optimal knapsack placement)")
    print(f"{'SPM [B]':>8} {'sim':>10} {'WCET':>10} {'ratio':>7}  "
          f"objects in SPM")
    for size in sizes:
        point = workflow.config_point(SystemConfig.scratchpad(size))
        names = ", ".join(sorted(point.allocation.objects)[:4])
        more = len(point.allocation.objects) - 4
        if more > 0:
            names += f", +{more} more"
        print(f"{point.config.spm_size:8} {point.sim.cycles:10} "
              f"{point.wcet.wcet:10} {point.ratio:7.3f}  {names}")

    print("\nADPCM — cache branch (unified direct-mapped, 16 B lines)")
    print(f"{'cache[B]':>8} {'sim':>10} {'WCET':>10} {'ratio':>7}  "
          f"{'miss rate':>9}")
    for point in workflow.config_points(
            (SystemConfig.cached(CacheConfig(size=size)), False, "energy")
            for size in sizes):
        stats = point.sim.cache_stats
        miss_rate = stats.misses / max(stats.hits + stats.misses, 1)
        print(f"{point.config.cache.size:8} {point.sim.cycles:10} "
              f"{point.wcet.wcet:10} {point.ratio:7.3f}  "
              f"{100 * miss_rate:8.2f}%")

    print("\nReading: the scratchpad ratio stays flat — every cycle "
          "gained in the average case\nis a cycle off the guaranteed "
          "bound.  The cache ratio grows with capacity: the\nanalysis "
          "cannot promise the larger cache's contents, so the bound "
          "stays high.")


if __name__ == "__main__":
    main()
