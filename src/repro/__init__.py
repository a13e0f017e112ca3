"""repro — reproduction of Wehmeyer & Marwedel, DATE 2005.

"Influence of Memory Hierarchies on Predictability for Time Constrained
Embedded Software": scratchpad memories vs. caches under WCET analysis.

The package provides the full tool stack the paper's workflow (Figure 1)
relies on, implemented from scratch:

* :mod:`repro.isa` — T16, a THUMB-like 16-bit target ISA
* :mod:`repro.minic` — a mini-C compiler targeting T16
* :mod:`repro.link` — per-object linker (functions/globals are relocatable)
* :mod:`repro.memory` — memory map, Table-1 timing, cache models
* :mod:`repro.sim` — cycle-accurate instruction-set simulator (ARMulator role)
* :mod:`repro.wcet` — static WCET analyser (aiT role): CFG reconstruction,
  loop bounds, cache must/persistence analysis, IPET (the Li/Malik ILP,
  whose optimum a loop-forest dynamic program computes exactly)
* :mod:`repro.spm` — static scratchpad allocation (the knapsack ILP,
  whose optimum a dynamic program over capacities computes exactly)
* :mod:`repro.energy` — instruction-level energy model (knapsack benefit)
* :mod:`repro.benchmarks` — G.721, ADPCM and MultiSort in mini-C (Table 2)
* :mod:`repro.workflow` — the Figure-1 pipelines
* :mod:`repro.experiments` — regeneration of every table and figure
"""

__version__ = "1.0.0"
