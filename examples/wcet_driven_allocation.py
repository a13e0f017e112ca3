#!/usr/bin/env python3
"""The paper's future-work idea: allocate for the WCET, not for energy.

Section 5: "the allocation technique will be extended to ... consider
placing those objects onto the faster memory that lie on the critical
path of the application."

This example runs both knapsacks on MultiSort for a few scratchpad sizes
and reports which objects each picks and what WCET bound results.  The
energy knapsack weights objects by *profiled* access counts (typical
input); the WCET knapsack weights them by worst-case path cycles from the
IPET solution — so rarely-profiled but worst-case-hot objects win.
"""

from repro.benchmarks import get
from repro.memory import SystemConfig
from repro.workflow import Workflow

SIZES = (128, 512, 2048)


def main():
    workflow = Workflow(get("multisort").source())

    print(f"{'SPM [B]':>8} {'objective':>10} {'WCET bound':>12} "
          f"{'sim':>10}  picked objects")
    for size in SIZES:
        for method, label in (("energy", "energy"), ("wcet", "WCET")):
            point = workflow.config_point(SystemConfig.scratchpad(size),
                                          method=method)
            names = ", ".join(sorted(point.allocation.objects)[:5])
            extra = len(point.allocation.objects) - 5
            if extra > 0:
                names += f", +{extra}"
            print(f"{size:8} {label:>10} {point.wcet.wcet:12} "
                  f"{point.sim.cycles:10}  {names}")
        print()

    print("The WCET-driven knapsack may pick different objects (e.g. "
          "functions on the\nworst-case path that a typical run rarely "
          "touches) and never needs a profiling\nrun — its weights come "
          "from the analyser itself.")


if __name__ == "__main__":
    main()
