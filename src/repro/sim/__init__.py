"""Instruction-set simulation (the ARMulator role in the paper's Figure 1).

Two complementary paths produce bit-identical results:

* **execute** — the compiled flat-array engine (:mod:`repro.sim.engine`)
  runs the program under one memory configuration;
* **replay** — the engine records the config-independent access trace
  once per image (:mod:`repro.sim.trace`) and the replay kernels
  (:mod:`repro.sim.replay`) re-price it under any number of
  configurations, including whole size sweeps in a single pass.

Both are held to a recording interpreter with a per-access cache model,
which is a test oracle (``tests/oracles``) and does not ship.

Scratchpad placements and the knapsack's profile need no run of their
own: :mod:`repro.sim.placement` derives both from the baseline image's
trace, and falls back to execution when placement could change what the
program computes.
"""

from .simulator import MemoryFault, SimError, SimResult, Simulator, simulate
from .profile import ObjectProfile, ProgramProfile
from .placement import place_trace, trace_profile
from .replay import (
    grid_geometry,
    replay,
    replay_grid,
    replay_misses,
    replay_sweep,
    sweep_geometry,
)
from .trace import (
    Trace,
    clear_trace_caches,
    record_trace,
    set_trace_cache_dir,
    trace_counters,
    trace_for,
)
from .ingest import TraceFormatError, dump_trace, load_trace, parse_trace

__all__ = [
    "MemoryFault", "SimError", "SimResult", "Simulator", "simulate",
    "ObjectProfile", "ProgramProfile", "place_trace", "trace_profile",
    "grid_geometry", "replay", "replay_grid", "replay_misses",
    "replay_sweep", "sweep_geometry",
    "Trace", "clear_trace_caches", "record_trace", "set_trace_cache_dir",
    "trace_counters", "trace_for",
    "TraceFormatError", "dump_trace", "load_trace", "parse_trace",
]
