#!/usr/bin/env python3
"""Quickstart: compile, simulate and bound a small real-time task.

Walks the whole stack in ~30 lines of API:

1. compile a mini-C program to a relocatable T16 binary;
2. link it three ways (plain main memory, 512-byte scratchpad, cache);
3. simulate each (average case, typical input);
4. run the static WCET analysis on each;
5. print the paper's key observable: the WCET/simulation ratio.
"""

from repro.link import link
from repro.memory import CacheConfig, SystemConfig
from repro.minic import compile_source
from repro.sim import record_trace, simulate, trace_profile
from repro.spm import allocate_energy_optimal
from repro.wcet import analyze_wcet

SOURCE = """
int samples[32];
int history[4];

int smooth(int x) {
    int acc = x;
    int i;
    for (i = 0; i < 4; i++) { acc += history[i]; }
    for (i = 3; i > 0; i--) { history[i] = history[i - 1]; }
    history[0] = x;
    return acc / 5;
}

int main(void) {
    int i;
    int out = 0;
    for (i = 0; i < 32; i++) { samples[i] = (i * 37) & 255; }
    for (i = 0; i < 32; i++) { out += smooth(samples[i]); }
    return out & 255;
}
"""

SPM_SIZE = 512


def main():
    compiled = compile_source(SOURCE)

    # --- profile once on the plain layout (drives the SPM knapsack) ----
    baseline = link(compiled.program)
    profile = trace_profile(record_trace(baseline, 0), baseline)

    # --- the three systems of the paper --------------------------------
    allocation = allocate_energy_optimal(compiled.program, profile,
                                         SPM_SIZE)
    spm_image = link(compiled.program, spm_size=SPM_SIZE,
                     spm_objects=allocation.objects)

    systems = [
        ("main memory only", baseline, SystemConfig.uncached()),
        (f"{SPM_SIZE} B scratchpad", spm_image,
         SystemConfig.scratchpad(SPM_SIZE)),
        ("512 B unified cache", baseline,
         SystemConfig.cached(CacheConfig(size=512))),
    ]

    print(f"{'system':22} {'sim cycles':>12} {'WCET bound':>12} "
          f"{'WCET/sim':>9}")
    for name, image, config in systems:
        sim = simulate(image, config)
        wcet = analyze_wcet(image, config)
        print(f"{name:22} {sim.cycles:12} {wcet.wcet:12} "
              f"{wcet.wcet / sim.cycles:9.3f}")

    print(f"\nSPM contents ({allocation.used_bytes} B used): "
          f"{', '.join(sorted(allocation.objects))}")


if __name__ == "__main__":
    main()
