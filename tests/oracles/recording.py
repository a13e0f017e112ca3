"""The recording interpreter: the execution engine's reference.

A plain instruction dispatch over the simulator's decoded program that
prices every access through :class:`~.memory.ReferenceHierarchy` and
counts, per address, fetches, data accesses, fetch misses, fetches
served by main memory and read misses.  ``repro.sim.engine`` compiles
the same machine model into step closures; the differential tests hold
the two to bit-identical cycles, instruction counts, console output and
per-level cache statistics.  Its counters are in turn the reference of
``repro.sim.placement.trace_profile`` (through ``tests/helpers.py``)
and of ``repro.sim.replay.replay_misses``.

It also emits the ordered packed access stream, one ``addr << 3 | tag``
word per access in the order the machine makes them: each fetch as
``pc << 3 | 0``, a ``BL``'s second halfword as ``(pc + 2) << 3 | 7``,
each data access with its width tag, and scratchpad-resident accesses
counted per tag instead.  That stream, its per-tag counts and the
memory-independent cycles are the reference of
``repro.sim.trace.record_trace``.
"""

from array import array
from collections import Counter
from dataclasses import dataclass, field

from repro.isa.opcodes import Cond, Op
from repro.memory.regions import MAIN_BASE, STACK_TOP
from repro.memory.timing import BRANCH_REFILL_CYCLES, instruction_extra_cycles
from repro.sim.simulator import MemoryFault, SimError, SimResult, Simulator

from .memory import ReferenceHierarchy

_MASK = 0xFFFFFFFF
_SIGN = 0x80000000

#: Packed-stream tags, written out from the trace layout rather than
#: imported, so the oracle does not share the recorder's tables.
_FETCH, _FETCH_CONT = 0, 7
_READ = {1: 1, 2: 2, 4: 3}
_WRITE = {1: 4, 2: 5, 4: 6}


@dataclass
class RecordedRun(SimResult):
    """A :class:`~repro.sim.simulator.SimResult` plus per-address counts."""

    #: instruction address -> fetch count.
    fetch_counts: dict = field(default_factory=dict)
    #: data address -> access count.
    data_counts: dict = field(default_factory=dict)
    #: instruction address -> executions whose fetch missed a cache.
    fetch_misses: dict = field(default_factory=dict)
    #: instruction address -> executions whose fetch missed *every*
    #: cache level and was served by main memory.
    fetch_main_misses: dict = field(default_factory=dict)
    #: instruction address -> data-read miss count.
    read_misses: dict = field(default_factory=dict)
    #: The packed main-memory access stream, in order (``array('Q')``).
    ops: array = field(default_factory=lambda: array("Q"))
    #: Scratchpad-resident accesses per tag (8 entries).
    spm_counts: tuple = (0,) * 8
    #: Cycles that no memory access pays: refills and execute extras.
    base_cycles: int = 0


class RecordingSimulator(Simulator):
    """A :class:`~repro.sim.simulator.Simulator` whose :meth:`run` is the
    recording interpreter over :class:`~.memory.ReferenceHierarchy`."""

    def __init__(self, image, config):
        super().__init__(image, config)
        self.hierarchy = ReferenceHierarchy(config)

    # -- memory -------------------------------------------------------------

    def _check(self, addr, width):
        if addr % width:
            raise MemoryFault(f"unaligned {width}-byte access at {addr:#x}")
        if addr < self._spm_limit:
            return
        if MAIN_BASE <= addr and addr + width <= STACK_TOP:
            return
        raise MemoryFault(f"access to unmapped address {addr:#x}")

    def read_mem(self, addr, width, signed=False):
        self._check(addr, width)
        value = int.from_bytes(self.ram[addr:addr + width], "little",
                               signed=signed)
        return value

    def write_mem(self, addr, width, value):
        self._check(addr, width)
        self.ram[addr:addr + width] = (value & ((1 << (8 * width)) - 1)
                                       ).to_bytes(width, "little")

    # -- flag helpers -------------------------------------------------------

    def _set_nz(self, result):
        self.n = 1 if result & _SIGN else 0
        self.z = 1 if result == 0 else 0
        return result

    def _add_flags(self, a, b, carry_in=0):
        total = a + b + carry_in
        result = total & _MASK
        self.c = 1 if total > _MASK else 0
        self.v = 1 if (~(a ^ b) & (a ^ result)) & _SIGN else 0
        return self._set_nz(result)

    def _sub_flags(self, a, b, carry_in=1):
        # ARM subtract: result = a - b - (1 - carry_in)
        total = a - b - (1 - carry_in)
        result = total & _MASK
        self.c = 1 if total >= 0 else 0
        self.v = 1 if ((a ^ b) & (a ^ result)) & _SIGN else 0
        return self._set_nz(result)

    def _cond_true(self, cond):
        return _COND_DISPATCH[cond](self.n, self.z, self.c, self.v)

    # -- run ----------------------------------------------------------------

    def run(self, max_steps=50_000_000) -> RecordedRun:
        """Run from the image entry point until ``swi #0``."""
        regs = self.regs
        regs[13] = STACK_TOP
        regs[14] = 0
        pc = self.image.entry
        code = self.code
        hierarchy = self.hierarchy
        console = []
        cycles = 0  # memory cycles; base_cycles holds the rest
        steps = 0
        exit_code = None
        fetch_counts = Counter()
        data_counts = Counter()
        fetch_misses = Counter()
        fetch_main_misses = Counter()
        read_misses = Counter()
        ops = array("Q")
        emit = ops.append
        spm_counts = [0] * 8
        spm_limit = self._spm_limit
        base_cycles = 0

        def data_read(instr_pc, addr, width, signed=False):
            nonlocal cycles
            value = self.read_mem(addr, width, signed)
            outcome = hierarchy.read(addr, width)
            cycles += outcome.cycles
            if 0 <= addr < spm_limit:
                spm_counts[_READ[width]] += 1
            else:
                emit(addr << 3 | _READ[width])
            data_counts[addr] += 1
            if outcome.missed:
                read_misses[instr_pc] += 1
            return value

        def data_write(addr, width, value):
            nonlocal cycles
            self.write_mem(addr, width, value)
            cycles += hierarchy.write(addr, width).cycles
            if 0 <= addr < spm_limit:
                spm_counts[_WRITE[width]] += 1
            else:
                emit(addr << 3 | _WRITE[width])
            data_counts[addr] += 1

        while steps < max_steps:
            instr = code.get(pc)
            if instr is None:
                raise SimError(f"pc escaped code objects: {pc:#x}")
            fetch = hierarchy.fetch(pc)
            fetch_missed = fetch.missed
            from_main = fetch_missed and fetch.served_by == "main"
            cycles += fetch.cycles
            if 0 <= pc < spm_limit:
                spm_counts[_FETCH] += 1
            else:
                emit(pc << 3 | _FETCH)
            if instr.size == 4:  # BL is two halfword fetches
                second = hierarchy.fetch(pc + 2)
                fetch_missed = fetch_missed or second.missed
                from_main = from_main or (
                    second.missed and second.served_by == "main")
                cycles += second.cycles
                if 0 <= pc + 2 < spm_limit:
                    spm_counts[_FETCH_CONT] += 1
                else:
                    emit((pc + 2) << 3 | _FETCH_CONT)
            fetch_counts[pc] += 1
            if fetch_missed:
                fetch_misses[pc] += 1
                if from_main:
                    fetch_main_misses[pc] += 1
            steps += 1
            op = instr.op
            next_pc = pc + instr.size

            if op is Op.MOVI:
                regs[instr.rd] = self._set_nz(instr.imm)
            elif op is Op.CMPI:
                self._sub_flags(regs[instr.rd], instr.imm)
            elif op is Op.ADDI:
                regs[instr.rd] = self._add_flags(regs[instr.rd], instr.imm)
            elif op is Op.SUBI:
                regs[instr.rd] = self._sub_flags(regs[instr.rd], instr.imm)
            elif op is Op.ADDR:
                regs[instr.rd] = self._add_flags(regs[instr.rn],
                                                 regs[instr.rm])
            elif op is Op.SUBR:
                regs[instr.rd] = self._sub_flags(regs[instr.rn],
                                                 regs[instr.rm])
            elif op is Op.ADD3:
                regs[instr.rd] = self._add_flags(regs[instr.rn], instr.imm)
            elif op is Op.SUB3:
                regs[instr.rd] = self._sub_flags(regs[instr.rn], instr.imm)
            elif op is Op.LSLI:
                value = regs[instr.rm]
                amount = instr.imm
                if amount:
                    self.c = (value >> (32 - amount)) & 1
                regs[instr.rd] = self._set_nz((value << amount) & _MASK)
            elif op is Op.LSRI:
                value = regs[instr.rm]
                amount = instr.imm
                if amount:
                    self.c = (value >> (amount - 1)) & 1
                regs[instr.rd] = self._set_nz(value >> amount)
            elif op is Op.ASRI:
                value = regs[instr.rm]
                amount = instr.imm
                signed = value - (1 << 32) if value & _SIGN else value
                if amount:
                    self.c = (signed >> (amount - 1)) & 1
                regs[instr.rd] = self._set_nz((signed >> amount) & _MASK)
            elif op is Op.MOVR:
                regs[instr.rd] = self._set_nz(regs[instr.rm])
            elif op in _ALU_HANDLERS:
                _ALU_HANDLERS[op](self, instr)
            elif op is Op.LDRPC:
                base = (pc + 4) & ~3
                regs[instr.rd] = data_read(pc, base + instr.imm, 4)
            elif op is Op.ADDPC:
                regs[instr.rd] = (((pc + 4) & ~3) + instr.imm) & _MASK
            elif op is Op.LDRSP:
                regs[instr.rd] = data_read(pc, regs[13] + instr.imm, 4)
            elif op is Op.STRSP:
                data_write(regs[13] + instr.imm, 4, regs[instr.rd])
            elif op is Op.ADDSPI:
                regs[instr.rd] = (regs[13] + instr.imm) & _MASK
            elif op is Op.SPADJ:
                regs[13] = (regs[13] + instr.imm) & _MASK
            elif op is Op.LDRWI:
                regs[instr.rd] = data_read(pc, regs[instr.rn] + instr.imm, 4)
            elif op is Op.STRWI:
                data_write(regs[instr.rn] + instr.imm, 4, regs[instr.rd])
            elif op is Op.LDRHI:
                regs[instr.rd] = data_read(pc, regs[instr.rn] + instr.imm, 2)
            elif op is Op.STRHI:
                data_write(regs[instr.rn] + instr.imm, 2, regs[instr.rd])
            elif op is Op.LDRBI:
                regs[instr.rd] = data_read(pc, regs[instr.rn] + instr.imm, 1)
            elif op is Op.STRBI:
                data_write(regs[instr.rn] + instr.imm, 1, regs[instr.rd])
            elif op is Op.LDRW_R:
                regs[instr.rd] = data_read(
                    pc, (regs[instr.rn] + regs[instr.rm]) & _MASK, 4)
            elif op is Op.STRW_R:
                data_write((regs[instr.rn] + regs[instr.rm]) & _MASK, 4,
                           regs[instr.rd])
            elif op is Op.LDRH_R:
                regs[instr.rd] = data_read(
                    pc, (regs[instr.rn] + regs[instr.rm]) & _MASK, 2)
            elif op is Op.STRH_R:
                data_write((regs[instr.rn] + regs[instr.rm]) & _MASK, 2,
                           regs[instr.rd])
            elif op is Op.LDRB_R:
                regs[instr.rd] = data_read(
                    pc, (regs[instr.rn] + regs[instr.rm]) & _MASK, 1)
            elif op is Op.STRB_R:
                data_write((regs[instr.rn] + regs[instr.rm]) & _MASK, 1,
                           regs[instr.rd])
            elif op is Op.LDRSH_R:
                regs[instr.rd] = data_read(
                    pc, (regs[instr.rn] + regs[instr.rm]) & _MASK, 2,
                    signed=True) & _MASK
            elif op is Op.LDRSB_R:
                regs[instr.rd] = data_read(
                    pc, (regs[instr.rn] + regs[instr.rm]) & _MASK, 1,
                    signed=True) & _MASK
            elif op is Op.PUSH:
                count = len(instr.reglist) + (1 if instr.with_link else 0)
                sp = regs[13] - 4 * count
                regs[13] = sp
                addr = sp
                for reg in instr.reglist:
                    data_write(addr, 4, regs[reg])
                    addr += 4
                if instr.with_link:
                    data_write(addr, 4, regs[14])
            elif op is Op.POP:
                addr = regs[13]
                for reg in instr.reglist:
                    regs[reg] = data_read(pc, addr, 4)
                    addr += 4
                if instr.with_link:
                    next_pc = data_read(pc, addr, 4) & ~1
                    addr += 4
                    base_cycles += BRANCH_REFILL_CYCLES
                regs[13] = addr
            elif op is Op.B:
                next_pc = instr.target
                base_cycles += BRANCH_REFILL_CYCLES
            elif op is Op.BCC:
                if self._cond_true(instr.cond):
                    next_pc = instr.target
                    base_cycles += BRANCH_REFILL_CYCLES
            elif op is Op.BL:
                regs[14] = pc + 4
                next_pc = instr.target
                base_cycles += BRANCH_REFILL_CYCLES
            elif op is Op.BX:
                next_pc = regs[instr.rm] & ~1
                base_cycles += BRANCH_REFILL_CYCLES
            elif op is Op.SWI:
                base_cycles += instruction_extra_cycles(op)
                number = instr.imm
                if number == 0:
                    exit_code = regs[0]
                    break
                if number == 1:
                    value = regs[0]
                    if value & _SIGN:
                        value -= 1 << 32
                    console.append(str(value))
                elif number == 2:
                    console.append(chr(regs[0] & 0xFF))
                else:
                    raise SimError(f"unknown swi #{number} at {pc:#x}")
            elif op is Op.NOP:
                pass
            else:
                raise SimError(f"unhandled op {op!r} at {pc:#x}")

            if op is Op.MUL:
                base_cycles += instruction_extra_cycles(op)
            pc = next_pc
        else:
            raise SimError(f"exceeded {max_steps} steps (runaway program?)")

        return RecordedRun(
            cycles=cycles + base_cycles,
            instructions=steps,
            exit_code=exit_code,
            console=console,
            cache_stats=hierarchy.cache_stats,
            level_stats=hierarchy.level_stats,
            fetch_counts=fetch_counts,
            data_counts=data_counts,
            fetch_misses=fetch_misses,
            fetch_main_misses=fetch_main_misses,
            read_misses=read_misses,
            ops=ops,
            spm_counts=tuple(spm_counts),
            base_cycles=base_cycles,
        )


# -- two-address ALU handlers (module-level for a flat dispatch dict) ---------

def _h_and(sim, instr):
    sim.regs[instr.rd] = sim._set_nz(sim.regs[instr.rd] & sim.regs[instr.rm])


def _h_eor(sim, instr):
    sim.regs[instr.rd] = sim._set_nz(sim.regs[instr.rd] ^ sim.regs[instr.rm])


def _h_orr(sim, instr):
    sim.regs[instr.rd] = sim._set_nz(sim.regs[instr.rd] | sim.regs[instr.rm])


def _h_bic(sim, instr):
    sim.regs[instr.rd] = sim._set_nz(
        sim.regs[instr.rd] & ~sim.regs[instr.rm] & _MASK)


def _h_mvn(sim, instr):
    sim.regs[instr.rd] = sim._set_nz(~sim.regs[instr.rm] & _MASK)


def _h_tst(sim, instr):
    sim._set_nz(sim.regs[instr.rd] & sim.regs[instr.rm])


def _h_neg(sim, instr):
    sim.regs[instr.rd] = sim._sub_flags(0, sim.regs[instr.rm])


def _h_cmp(sim, instr):
    sim._sub_flags(sim.regs[instr.rd], sim.regs[instr.rm])


def _h_cmn(sim, instr):
    sim._add_flags(sim.regs[instr.rd], sim.regs[instr.rm])


def _h_adc(sim, instr):
    sim.regs[instr.rd] = sim._add_flags(
        sim.regs[instr.rd], sim.regs[instr.rm], sim.c)


def _h_sbc(sim, instr):
    sim.regs[instr.rd] = sim._sub_flags(
        sim.regs[instr.rd], sim.regs[instr.rm], sim.c)


def _h_mul(sim, instr):
    sim.regs[instr.rd] = sim._set_nz(
        (sim.regs[instr.rd] * sim.regs[instr.rm]) & _MASK)


def _shift_amount(sim, instr):
    return sim.regs[instr.rm] & 0xFF


def _h_lsl(sim, instr):
    amount = _shift_amount(sim, instr)
    value = sim.regs[instr.rd]
    if amount == 0:
        sim._set_nz(value)
        return
    if amount <= 32:
        sim.c = (value >> (32 - amount)) & 1
        result = (value << amount) & _MASK
    else:
        sim.c = 0
        result = 0
    sim.regs[instr.rd] = sim._set_nz(result)


def _h_lsr(sim, instr):
    amount = _shift_amount(sim, instr)
    value = sim.regs[instr.rd]
    if amount == 0:
        sim._set_nz(value)
        return
    if amount <= 32:
        sim.c = (value >> (amount - 1)) & 1
        result = value >> amount
    else:
        sim.c = 0
        result = 0
    sim.regs[instr.rd] = sim._set_nz(result)


def _h_asr(sim, instr):
    amount = _shift_amount(sim, instr)
    value = sim.regs[instr.rd]
    signed = value - (1 << 32) if value & _SIGN else value
    if amount == 0:
        sim._set_nz(value)
        return
    if amount >= 32:
        amount = 32
    sim.c = (signed >> (amount - 1)) & 1
    sim.regs[instr.rd] = sim._set_nz((signed >> amount) & _MASK)


def _h_ror(sim, instr):
    amount = _shift_amount(sim, instr) % 32
    value = sim.regs[instr.rd]
    if amount:
        value = ((value >> amount) | (value << (32 - amount))) & _MASK
        sim.c = (value >> 31) & 1
    sim.regs[instr.rd] = sim._set_nz(value)


_ALU_HANDLERS = {
    Op.AND: _h_and, Op.EOR: _h_eor, Op.ORR: _h_orr, Op.BIC: _h_bic,
    Op.MVN: _h_mvn, Op.TST: _h_tst, Op.NEG: _h_neg, Op.CMP: _h_cmp,
    Op.CMN: _h_cmn, Op.ADC: _h_adc, Op.SBC: _h_sbc, Op.MUL: _h_mul,
    Op.LSL: _h_lsl, Op.LSR: _h_lsr, Op.ASR: _h_asr, Op.ROR: _h_ror,
}


#: Condition -> predicate over (n, z, c, v); AL is unconditionally true.
_COND_DISPATCH = {
    Cond.EQ: lambda n, z, c, v: z == 1,
    Cond.NE: lambda n, z, c, v: z == 0,
    Cond.HS: lambda n, z, c, v: c == 1,
    Cond.LO: lambda n, z, c, v: c == 0,
    Cond.MI: lambda n, z, c, v: n == 1,
    Cond.PL: lambda n, z, c, v: n == 0,
    Cond.VS: lambda n, z, c, v: v == 1,
    Cond.VC: lambda n, z, c, v: v == 0,
    Cond.HI: lambda n, z, c, v: c == 1 and z == 0,
    Cond.LS: lambda n, z, c, v: c == 0 or z == 1,
    Cond.GE: lambda n, z, c, v: n == v,
    Cond.LT: lambda n, z, c, v: n != v,
    Cond.GT: lambda n, z, c, v: z == 0 and n == v,
    Cond.LE: lambda n, z, c, v: z == 1 or n != v,
    Cond.AL: lambda n, z, c, v: True,
}


def record(image, config, max_steps=50_000_000) -> RecordedRun:
    """Run *image* on *config* through the recording interpreter."""
    return RecordingSimulator(image, config).run(max_steps)
