"""Cycle-accurate T16 instruction-set simulator (the ARMulator role).

The simulator executes a linked :class:`~repro.link.image.Image` on a
chosen :class:`~repro.memory.hierarchy.SystemConfig` and reports the cycle
count under the shared timing model (:mod:`repro.memory.timing`):

* each instruction pays its 16-bit fetch at the pc (SPM / cache / main);
* loads and stores pay the data access at the operand width;
* PUSH/POP pay one 32-bit stack access per transferred register;
* taken branches pay the pipeline refill; MUL and SWI pay execute extras.

System calls (``swi``):

====== ==========================================
number behaviour
====== ==========================================
0      exit; r0 is the program's exit status
1      print r0 as a signed decimal (console)
2      print chr(r0 & 0xff) (console)
====== ==========================================

Plain timing runs execute on the **fast engine**
(:mod:`repro.sim.engine`): per-instruction step closures compiled at
predecode time, dispatched from a flat array, each instruction's fetch
charged from a per-pc table beside them, with plain-int memory costs
from the hierarchy's fast path.  Trace replay (:mod:`repro.sim.replay`)
re-prices the access stream the same engine records block by block
(:mod:`repro.sim.trace`) and reports the same :class:`SimResult`.  The recording interpreter that
counts per-address fetches, data accesses and misses is a test oracle
(``tests/oracles``); ``tests/test_sim_fastpath.py`` holds this engine to
it for every benchmark and hierarchy shape.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..isa.encoding import IllegalInstruction, decode
from ..memory.hierarchy import MemoryHierarchy, SystemConfig
from ..memory.regions import STACK_TOP
from ..link.image import Image
from .engine import compile_program

_SIGN = 0x80000000


class SimError(Exception):
    """Simulation failed (fault, illegal instruction, runaway)."""


class MemoryFault(SimError):
    """Unaligned or unmapped memory access."""


@dataclass
class SimResult:
    """Outcome of one simulation run."""

    cycles: int
    instructions: int
    exit_code: int
    console: list = field(default_factory=list)
    cache_stats: object = None
    #: level name -> CacheStats for every cache in the hierarchy.
    level_stats: dict = field(default_factory=dict)


class Simulator:
    """Executes one image on one memory hierarchy."""

    def __init__(self, image: Image, config: SystemConfig):
        self.image = image
        self.config = config
        self.hierarchy = MemoryHierarchy(config)
        self.ram = bytearray(STACK_TOP)
        for base, payload in image.segments:
            self.ram[base:base + len(payload)] = payload
        self.code = self._predecode()
        self._spm_limit = config.spm_size
        self.regs = [0] * 16
        self.n = self.z = self.c = self.v = 0
        self._engine = None  # compiled lazily on the first fast run

    # -- setup ---------------------------------------------------------------

    def _predecode(self):
        """Decode all code objects once; execution then never re-decodes.

        Valid because T16 programs are not self-modifying (all placement is
        fixed at link time — the very property the paper leans on).
        """
        code = {}
        for obj in self.image.code_objects:
            addr = obj.base
            while addr < obj.end:
                halfword = int.from_bytes(self.ram[addr:addr + 2], "little")
                nxt = None
                if addr + 4 <= obj.end:
                    nxt = int.from_bytes(self.ram[addr + 2:addr + 4],
                                         "little")
                try:
                    instr = decode(halfword, addr, nxt)
                except IllegalInstruction:
                    # Literal pool data inside the code object; skip a
                    # halfword.  Execution flow never reaches pools.
                    addr += 2
                    continue
                code[addr] = instr
                addr += instr.size
        return code

    # -- run -------------------------------------------------------------------

    def run(self, max_steps=50_000_000) -> SimResult:
        """Run from the image entry point until ``swi #0``."""
        if self._engine is None:
            self._engine = compile_program(
                self.code, self.ram, self.hierarchy, self.regs,
                self._spm_limit, SimError, MemoryFault)
        regs = self.regs
        regs[13] = STACK_TOP
        regs[14] = 0
        engine = self._engine
        # Flags cross the engine boundary in both directions (the engine
        # uses a truthiness encoding internally; see engine docstring).
        flags = engine.flags
        flags[0] = _SIGN if self.n else 0
        flags[1] = self.z
        flags[2] = self.c
        flags[3] = _SIGN if self.v else 0
        cycles, steps, exit_code = engine.run(self.image.entry, max_steps)
        self.n = 1 if flags[0] else 0
        self.z = 1 if flags[1] else 0
        self.c = 1 if flags[2] else 0
        self.v = 1 if flags[3] else 0
        hierarchy = self.hierarchy
        hierarchy.flush_fast_stats()
        return SimResult(
            cycles=cycles,
            instructions=steps,
            exit_code=exit_code,
            console=list(engine.console),
            cache_stats=hierarchy.cache_stats,
            level_stats=hierarchy.level_stats,
        )


def simulate(image: Image, config: SystemConfig,
             max_steps=50_000_000) -> SimResult:
    """Convenience wrapper: build a Simulator and run it."""
    return Simulator(image, config).run(max_steps)
