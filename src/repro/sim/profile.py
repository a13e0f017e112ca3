"""Per-object access counts: the profile behind the energy knapsack.

The paper's knapsack benefit function needs, per memory object, how often
it is accessed during a typical run: instruction fetches per function and
data accesses per global.  :func:`repro.sim.placement.trace_profile` folds
the baseline run's recorded trace onto the image's objects to produce
one.

Profiles are keyed by object *name*, so a profile taken on one layout (for
example the uncached baseline) remains valid for any other placement of the
same program — just as the paper profiles once and then explores many
scratchpad capacities.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass
class ObjectProfile:
    """Access statistics for one memory object."""

    name: str
    kind: str                 # "code" | "data"
    size: int
    #: instruction fetches (code) or load/store accesses (data).
    accesses: int = 0


class ProgramProfile:
    """Per-object access counts for one program run."""

    def __init__(self, objects):
        self.objects = {p.name: p for p in objects}

    def __getitem__(self, name) -> ObjectProfile:
        return self.objects[name]

    def __contains__(self, name):
        return name in self.objects

    def __iter__(self):
        return iter(self.objects.values())
