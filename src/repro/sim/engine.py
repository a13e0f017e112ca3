"""Flat-array threaded-code execution engine for the T16 simulator.

:class:`~repro.sim.simulator.Simulator` runs every program on this
engine.  A second interpreter over the same machine model — a plain
instruction dispatch that records per-address fetches, data accesses
and misses — lives in ``tests/oracles`` as the engine's reference.

The fast engine pre-compiles each decoded instruction into a specialized
zero-argument *step closure* at predecode time (threaded-code style).
Everything knowable at compile time is folded into the closure as a
constant: the fall-through pc, immediate operands, the MOVI flag
results, PC-relative literal addresses, the instruction's own icache set
index and block tag.  Step closures are stored in two flat arrays (one
for scratchpad-resident code at the bottom of the address space, one
for main-memory code starting at :data:`~repro.memory.regions.
MAIN_BASE`), so dispatch is a list index, not a dict probe.

Cycle accounting goes through a one-element list (``box``) shared by all
closures; memory costs come from the hierarchy's fast path
(:meth:`~repro.memory.hierarchy.MemoryHierarchy.fetch_fast_factory` /
:meth:`~repro.memory.hierarchy.MemoryHierarchy.data_fast_ops`), which
returns plain ints from precomputed SPM/main cost tables and flat-list
cache sets.  Results — cycles, instruction counts, console output, exit
codes, per-level cache hit/miss counters — are bit-identical to that
oracle (asserted by ``tests/test_sim_fastpath.py`` over every benchmark
and hierarchy shape).

Flags live in a four-element list ``fl`` with a truthiness encoding
private to the engine: N and V hold ``result & 0x80000000`` (so either
0 or the sign bit — comparable with ``==`` for GE/LT), Z and C hold
0/1 ints or bools (C is used arithmetically by ADC/SBC, where Python's
``True == 1`` keeps the maths exact).
"""

from __future__ import annotations

from struct import Struct

from ..isa.opcodes import Cond, Op
from ..memory.regions import MAIN_BASE, STACK_TOP
from ..memory.timing import BRANCH_REFILL_CYCLES, instruction_extra_cycles

_MASK = 0xFFFFFFFF
_SIGN = 0x80000000

_U32 = Struct("<I")
_U16 = Struct("<H")
_S16 = Struct("<h")


class EngineError(Exception):
    """Raised when the engine cannot compile an instruction."""


def _cond_test(cond, fl):
    """Zero-arg truth test over the engine's flag encoding, or ``None``
    for an always-taken condition."""
    if cond is Cond.EQ:
        return lambda: fl[1]
    if cond is Cond.NE:
        return lambda: not fl[1]
    if cond is Cond.HS:
        return lambda: fl[2]
    if cond is Cond.LO:
        return lambda: not fl[2]
    if cond is Cond.MI:
        return lambda: fl[0]
    if cond is Cond.PL:
        return lambda: not fl[0]
    if cond is Cond.VS:
        return lambda: fl[3]
    if cond is Cond.VC:
        return lambda: not fl[3]
    if cond is Cond.HI:
        return lambda: fl[2] and not fl[1]
    if cond is Cond.LS:
        return lambda: not fl[2] or fl[1]
    if cond is Cond.GE:
        return lambda: fl[0] == fl[3]
    if cond is Cond.LT:
        return lambda: fl[0] != fl[3]
    if cond is Cond.GT:
        return lambda: not fl[1] and fl[0] == fl[3]
    if cond is Cond.LE:
        return lambda: fl[1] or fl[0] != fl[3]
    return None  # AL


class CompiledProgram:
    """The step-closure arrays plus the state cells they share."""

    __slots__ = ("spm_steps", "main_steps", "box", "console", "exit_box",
                 "flags", "sim_error")

    def __init__(self, spm_steps, main_steps, box, console, exit_box,
                 flags, sim_error):
        self.spm_steps = spm_steps
        self.main_steps = main_steps
        self.box = box
        self.console = console
        self.exit_box = exit_box
        self.flags = flags
        self.sim_error = sim_error

    def run(self, pc, max_steps):
        """Execute from *pc*; returns ``(cycles, instructions, exit)``."""
        spm_steps = self.spm_steps
        main_steps = self.main_steps
        spm_top = len(spm_steps)
        main_top = len(main_steps)
        box = self.box
        box[0] = 0
        del self.console[:]
        self.exit_box[0] = None
        main_base = MAIN_BASE
        steps = 0
        while steps < max_steps:
            if pc >= main_base:
                index = pc - main_base
                step = main_steps[index] if index < main_top else None
            else:
                step = spm_steps[pc] if pc < spm_top else None
            if step is None:
                raise self.sim_error(f"pc escaped code objects: {pc:#x}")
            steps += 1
            nxt = step()
            if nxt is None:
                return box[0], steps, self.exit_box[0]
            pc = nxt
        raise self.sim_error(
            f"exceeded {max_steps} steps (runaway program?)")


def compile_program(code, ram, hierarchy, regs, spm_limit, sim_error,
                    mem_fault):
    """Compile decoded instructions into a :class:`CompiledProgram`.

    *code* maps instruction address -> Instr; *ram*, *regs* and the
    hierarchy's tag arrays are shared with the owning Simulator, so
    engine runs and direct state inspection stay coherent.
    """
    box = [0]
    console = []
    exit_box = [None]
    fl = [0, 0, 0, 0]  # n, z, c, v in the engine encoding
    make_fetch = hierarchy.fetch_fast_factory()
    dread, dwrite = hierarchy.data_fast_ops()
    refill = BRANCH_REFILL_CYCLES
    mul_extra = instruction_extra_cycles(Op.MUL)
    swi_extra = instruction_extra_cycles(Op.SWI)
    u32, p32 = _U32.unpack_from, _U32.pack_into
    u16, p16 = _U16.unpack_from, _U16.pack_into
    s16 = _S16.unpack_from
    main_base, stack_top = MAIN_BASE, STACK_TOP

    # -- shared data-access helpers (check, cycles, bytes) -------------------

    def load4(addr):
        if addr % 4:
            raise mem_fault(f"unaligned 4-byte access at {addr:#x}")
        if addr >= spm_limit and (addr < main_base
                                  or addr + 4 > stack_top):
            raise mem_fault(f"access to unmapped address {addr:#x}")
        box[0] += dread(addr, 4)
        return u32(ram, addr)[0]

    def load2(addr):
        if addr % 2:
            raise mem_fault(f"unaligned 2-byte access at {addr:#x}")
        if addr >= spm_limit and (addr < main_base
                                  or addr + 2 > stack_top):
            raise mem_fault(f"access to unmapped address {addr:#x}")
        box[0] += dread(addr, 2)
        return u16(ram, addr)[0]

    def load2s(addr):
        if addr % 2:
            raise mem_fault(f"unaligned 2-byte access at {addr:#x}")
        if addr >= spm_limit and (addr < main_base
                                  or addr + 2 > stack_top):
            raise mem_fault(f"access to unmapped address {addr:#x}")
        box[0] += dread(addr, 2)
        return s16(ram, addr)[0]

    def load1(addr):
        if addr >= spm_limit and (addr < main_base
                                  or addr + 1 > stack_top):
            raise mem_fault(f"access to unmapped address {addr:#x}")
        box[0] += dread(addr, 1)
        return ram[addr]

    def load1s(addr):
        value = load1(addr)
        return value - 0x100 if value & 0x80 else value

    def store4(addr, value):
        if addr % 4:
            raise mem_fault(f"unaligned 4-byte access at {addr:#x}")
        if addr >= spm_limit and (addr < main_base
                                  or addr + 4 > stack_top):
            raise mem_fault(f"access to unmapped address {addr:#x}")
        p32(ram, addr, value & _MASK)
        box[0] += dwrite(addr, 4)

    def store2(addr, value):
        if addr % 2:
            raise mem_fault(f"unaligned 2-byte access at {addr:#x}")
        if addr >= spm_limit and (addr < main_base
                                  or addr + 2 > stack_top):
            raise mem_fault(f"access to unmapped address {addr:#x}")
        p16(ram, addr, value & 0xFFFF)
        box[0] += dwrite(addr, 2)

    def store1(addr, value):
        if addr >= spm_limit and (addr < main_base
                                  or addr + 1 > stack_top):
            raise mem_fault(f"access to unmapped address {addr:#x}")
        ram[addr] = value & 0xFF
        box[0] += dwrite(addr, 1)

    # -- per-instruction compilation ----------------------------------------

    def build(addr, instr):  # noqa: C901 - one dispatch, many tiny bodies
        op = instr.op
        nxt = addr + instr.size
        fetch = make_fetch(addr)
        rd, rn, rm, imm = instr.rd, instr.rn, instr.rm, instr.imm

        # --- moves / immediates ---
        if op is Op.MOVI:
            n_c, z_c = imm & _SIGN, imm == 0

            def step():
                box[0] += fetch()
                regs[rd] = imm
                fl[0] = n_c
                fl[1] = z_c
                return nxt
            return step
        if op is Op.CMPI:
            def step():
                box[0] += fetch()
                a = regs[rd]
                total = a - imm
                r = total & _MASK
                fl[2] = total >= 0
                fl[3] = ((a ^ imm) & (a ^ r)) & _SIGN
                fl[0] = r & _SIGN
                fl[1] = r == 0
                return nxt
            return step
        if op is Op.ADDI or op is Op.ADD3:
            src = rd if op is Op.ADDI else rn

            def step():
                box[0] += fetch()
                a = regs[src]
                total = a + imm
                r = total & _MASK
                fl[2] = total > _MASK
                fl[3] = (~(a ^ imm) & (a ^ r)) & _SIGN
                fl[0] = r & _SIGN
                fl[1] = r == 0
                regs[rd] = r
                return nxt
            return step
        if op is Op.SUBI or op is Op.SUB3:
            src = rd if op is Op.SUBI else rn

            def step():
                box[0] += fetch()
                a = regs[src]
                total = a - imm
                r = total & _MASK
                fl[2] = total >= 0
                fl[3] = ((a ^ imm) & (a ^ r)) & _SIGN
                fl[0] = r & _SIGN
                fl[1] = r == 0
                regs[rd] = r
                return nxt
            return step
        if op is Op.ADDR:
            def step():
                box[0] += fetch()
                a = regs[rn]
                b = regs[rm]
                total = a + b
                r = total & _MASK
                fl[2] = total > _MASK
                fl[3] = (~(a ^ b) & (a ^ r)) & _SIGN
                fl[0] = r & _SIGN
                fl[1] = r == 0
                regs[rd] = r
                return nxt
            return step
        if op is Op.SUBR:
            def step():
                box[0] += fetch()
                a = regs[rn]
                b = regs[rm]
                total = a - b
                r = total & _MASK
                fl[2] = total >= 0
                fl[3] = ((a ^ b) & (a ^ r)) & _SIGN
                fl[0] = r & _SIGN
                fl[1] = r == 0
                regs[rd] = r
                return nxt
            return step
        if op is Op.MOVR:
            def step():
                box[0] += fetch()
                r = regs[rm]
                regs[rd] = r
                fl[0] = r & _SIGN
                fl[1] = r == 0
                return nxt
            return step

        # --- immediate shifts (shift amount is a decode constant) ---
        if op is Op.LSLI:
            if imm == 0:
                def step():
                    box[0] += fetch()
                    r = regs[rm]
                    regs[rd] = r
                    fl[0] = r & _SIGN
                    fl[1] = r == 0
                    return nxt
                return step
            carry_shift = 32 - imm

            def step():
                box[0] += fetch()
                v = regs[rm]
                fl[2] = (v >> carry_shift) & 1
                r = (v << imm) & _MASK
                regs[rd] = r
                fl[0] = r & _SIGN
                fl[1] = r == 0
                return nxt
            return step
        if op is Op.LSRI:
            if imm == 0:
                def step():
                    box[0] += fetch()
                    r = regs[rm]
                    regs[rd] = r
                    fl[0] = r & _SIGN
                    fl[1] = r == 0
                    return nxt
                return step
            carry_shift = imm - 1

            def step():
                box[0] += fetch()
                v = regs[rm]
                fl[2] = (v >> carry_shift) & 1
                r = v >> imm
                regs[rd] = r
                fl[0] = r & _SIGN
                fl[1] = r == 0
                return nxt
            return step
        if op is Op.ASRI:
            if imm == 0:
                def step():
                    box[0] += fetch()
                    v = regs[rm]
                    r = v & _MASK
                    regs[rd] = r
                    fl[0] = r & _SIGN
                    fl[1] = r == 0
                    return nxt
                return step
            carry_shift = imm - 1

            def step():
                box[0] += fetch()
                v = regs[rm]
                signed = v - 0x100000000 if v & _SIGN else v
                fl[2] = (signed >> carry_shift) & 1
                r = (signed >> imm) & _MASK
                regs[rd] = r
                fl[0] = r & _SIGN
                fl[1] = r == 0
                return nxt
            return step

        # --- two-address ALU group ---
        if op in _LOGICAL:
            combine = _LOGICAL[op]

            def step():
                box[0] += fetch()
                r = combine(regs[rd], regs[rm])
                regs[rd] = r
                fl[0] = r & _SIGN
                fl[1] = r == 0
                return nxt
            return step
        if op is Op.TST:
            def step():
                box[0] += fetch()
                r = regs[rd] & regs[rm]
                fl[0] = r & _SIGN
                fl[1] = r == 0
                return nxt
            return step
        if op is Op.MVN:
            def step():
                box[0] += fetch()
                r = ~regs[rm] & _MASK
                regs[rd] = r
                fl[0] = r & _SIGN
                fl[1] = r == 0
                return nxt
            return step
        if op is Op.NEG:
            def step():
                box[0] += fetch()
                b = regs[rm]
                total = -b
                r = total & _MASK
                fl[2] = total >= 0
                fl[3] = (b & r) & _SIGN
                fl[0] = r & _SIGN
                fl[1] = r == 0
                regs[rd] = r
                return nxt
            return step
        if op is Op.CMP:
            def step():
                box[0] += fetch()
                a = regs[rd]
                b = regs[rm]
                total = a - b
                r = total & _MASK
                fl[2] = total >= 0
                fl[3] = ((a ^ b) & (a ^ r)) & _SIGN
                fl[0] = r & _SIGN
                fl[1] = r == 0
                return nxt
            return step
        if op is Op.CMN:
            def step():
                box[0] += fetch()
                a = regs[rd]
                b = regs[rm]
                total = a + b
                r = total & _MASK
                fl[2] = total > _MASK
                fl[3] = (~(a ^ b) & (a ^ r)) & _SIGN
                fl[0] = r & _SIGN
                fl[1] = r == 0
                return nxt
            return step
        if op is Op.ADC:
            def step():
                box[0] += fetch()
                a = regs[rd]
                b = regs[rm]
                total = a + b + (1 if fl[2] else 0)
                r = total & _MASK
                fl[2] = total > _MASK
                fl[3] = (~(a ^ b) & (a ^ r)) & _SIGN
                fl[0] = r & _SIGN
                fl[1] = r == 0
                regs[rd] = r
                return nxt
            return step
        if op is Op.SBC:
            def step():
                box[0] += fetch()
                a = regs[rd]
                b = regs[rm]
                total = a - b - (0 if fl[2] else 1)
                r = total & _MASK
                fl[2] = total >= 0
                fl[3] = ((a ^ b) & (a ^ r)) & _SIGN
                fl[0] = r & _SIGN
                fl[1] = r == 0
                regs[rd] = r
                return nxt
            return step
        if op is Op.MUL:
            def step():
                box[0] += fetch() + mul_extra
                r = (regs[rd] * regs[rm]) & _MASK
                regs[rd] = r
                fl[0] = r & _SIGN
                fl[1] = r == 0
                return nxt
            return step

        # --- register shifts (runtime amounts) ---
        if op is Op.LSL:
            def step():
                box[0] += fetch()
                amount = regs[rm] & 0xFF
                v = regs[rd]
                if amount == 0:
                    fl[0] = v & _SIGN
                    fl[1] = v == 0
                    return nxt
                if amount <= 32:
                    fl[2] = (v >> (32 - amount)) & 1
                    r = (v << amount) & _MASK
                else:
                    fl[2] = 0
                    r = 0
                regs[rd] = r
                fl[0] = r & _SIGN
                fl[1] = r == 0
                return nxt
            return step
        if op is Op.LSR:
            def step():
                box[0] += fetch()
                amount = regs[rm] & 0xFF
                v = regs[rd]
                if amount == 0:
                    fl[0] = v & _SIGN
                    fl[1] = v == 0
                    return nxt
                if amount <= 32:
                    fl[2] = (v >> (amount - 1)) & 1
                    r = v >> amount
                else:
                    fl[2] = 0
                    r = 0
                regs[rd] = r
                fl[0] = r & _SIGN
                fl[1] = r == 0
                return nxt
            return step
        if op is Op.ASR:
            def step():
                box[0] += fetch()
                amount = regs[rm] & 0xFF
                v = regs[rd]
                if amount == 0:
                    fl[0] = v & _SIGN
                    fl[1] = v == 0
                    return nxt
                signed = v - 0x100000000 if v & _SIGN else v
                if amount >= 32:
                    amount = 32
                fl[2] = (signed >> (amount - 1)) & 1
                r = (signed >> amount) & _MASK
                regs[rd] = r
                fl[0] = r & _SIGN
                fl[1] = r == 0
                return nxt
            return step
        if op is Op.ROR:
            def step():
                box[0] += fetch()
                amount = (regs[rm] & 0xFF) % 32
                v = regs[rd]
                if amount:
                    v = ((v >> amount) | (v << (32 - amount))) & _MASK
                    fl[2] = (v >> 31) & 1
                regs[rd] = v
                fl[0] = v & _SIGN
                fl[1] = v == 0
                return nxt
            return step

        # --- pc-relative (the address is a decode constant) ---
        if op is Op.LDRPC:
            pool = ((addr + 4) & ~3) + imm

            def step():
                box[0] += fetch()
                regs[rd] = load4(pool)
                return nxt
            return step
        if op is Op.ADDPC:
            value = (((addr + 4) & ~3) + imm) & _MASK

            def step():
                box[0] += fetch()
                regs[rd] = value
                return nxt
            return step

        # --- sp-relative ---
        if op is Op.LDRSP:
            def step():
                box[0] += fetch()
                regs[rd] = load4(regs[13] + imm)
                return nxt
            return step
        if op is Op.STRSP:
            def step():
                box[0] += fetch()
                store4(regs[13] + imm, regs[rd])
                return nxt
            return step
        if op is Op.ADDSPI:
            def step():
                box[0] += fetch()
                regs[rd] = (regs[13] + imm) & _MASK
                return nxt
            return step
        if op is Op.SPADJ:
            def step():
                box[0] += fetch()
                regs[13] = (regs[13] + imm) & _MASK
                return nxt
            return step

        # --- immediate-offset loads/stores ---
        if op in _LOAD_I:
            load = {4: load4, 2: load2, 1: load1}[_LOAD_I[op]]

            def step():
                box[0] += fetch()
                regs[rd] = load(regs[rn] + imm)
                return nxt
            return step
        if op in _STORE_I:
            store = {4: store4, 2: store2, 1: store1}[_STORE_I[op]]

            def step():
                box[0] += fetch()
                store(regs[rn] + imm, regs[rd])
                return nxt
            return step

        # --- register-offset loads/stores ---
        if op in _LOAD_R:
            load = {4: load4, 2: load2, 1: load1}[_LOAD_R[op]]

            def step():
                box[0] += fetch()
                regs[rd] = load((regs[rn] + regs[rm]) & _MASK)
                return nxt
            return step
        if op in _STORE_R:
            store = {4: store4, 2: store2, 1: store1}[_STORE_R[op]]

            def step():
                box[0] += fetch()
                store((regs[rn] + regs[rm]) & _MASK, regs[rd])
                return nxt
            return step
        if op is Op.LDRSH_R:
            def step():
                box[0] += fetch()
                regs[rd] = load2s((regs[rn] + regs[rm]) & _MASK) & _MASK
                return nxt
            return step
        if op is Op.LDRSB_R:
            def step():
                box[0] += fetch()
                regs[rd] = load1s((regs[rn] + regs[rm]) & _MASK) & _MASK
                return nxt
            return step

        # --- stack block transfers ---
        if op is Op.PUSH:
            reglist = instr.reglist
            with_link = instr.with_link
            frame = 4 * (len(reglist) + (1 if with_link else 0))

            def step():
                box[0] += fetch()
                sp = regs[13] - frame
                regs[13] = sp
                for reg in reglist:
                    store4(sp, regs[reg])
                    sp += 4
                if with_link:
                    store4(sp, regs[14])
                return nxt
            return step
        if op is Op.POP:
            reglist = instr.reglist
            with_link = instr.with_link

            def step():
                box[0] += fetch()
                sp = regs[13]
                for reg in reglist:
                    regs[reg] = load4(sp)
                    sp += 4
                if with_link:
                    target = load4(sp) & ~1
                    sp += 4
                    box[0] += refill
                    regs[13] = sp
                    return target
                regs[13] = sp
                return nxt
            return step

        # --- control flow ---
        if op is Op.B:
            target = instr.target

            def step():
                box[0] += fetch() + refill
                return target
            return step
        if op is Op.BCC:
            target = instr.target
            test = _cond_test(instr.cond, fl)
            if test is None:  # AL behaves like B
                def step():
                    box[0] += fetch() + refill
                    return target
                return step

            def step():
                cost = fetch()
                if test():
                    box[0] += cost + refill
                    return target
                box[0] += cost
                return nxt
            return step
        if op is Op.BL:
            target = instr.target
            ret = addr + 4
            fetch2 = make_fetch(addr + 2)

            def step():
                box[0] += fetch() + fetch2() + refill
                regs[14] = ret
                return target
            return step
        if op is Op.BX:
            def step():
                box[0] += fetch() + refill
                return regs[rm] & ~1
            return step

        # --- system ---
        if op is Op.SWI:
            if imm == 0:
                def step():
                    box[0] += fetch() + swi_extra
                    exit_box[0] = regs[0]
                    return None
                return step
            if imm == 1:
                def step():
                    box[0] += fetch() + swi_extra
                    value = regs[0]
                    if value & _SIGN:
                        value -= 0x100000000
                    console.append(str(value))
                    return nxt
                return step
            if imm == 2:
                def step():
                    box[0] += fetch() + swi_extra
                    console.append(chr(regs[0] & 0xFF))
                    return nxt
                return step

            def step():
                box[0] += fetch() + swi_extra
                raise sim_error(f"unknown swi #{imm} at {addr:#x}")
            return step
        if op is Op.NOP:
            def step():
                box[0] += fetch()
                return nxt
            return step

        raise EngineError(f"cannot compile op {op!r} at {addr:#x}")

    spm_top = 0
    main_top = 0
    for addr in code:
        if addr < MAIN_BASE:
            spm_top = max(spm_top, addr + 4)
        else:
            main_top = max(main_top, addr - MAIN_BASE + 4)
    spm_steps = [None] * spm_top
    main_steps = [None] * main_top
    for addr, instr in code.items():
        step = build(addr, instr)
        if addr < MAIN_BASE:
            spm_steps[addr] = step
        else:
            main_steps[addr - MAIN_BASE] = step

    return CompiledProgram(spm_steps, main_steps, box, console, exit_box,
                           fl, sim_error)


_LOGICAL = {
    Op.AND: lambda a, b: a & b,
    Op.EOR: lambda a, b: a ^ b,
    Op.ORR: lambda a, b: a | b,
    Op.BIC: lambda a, b: a & ~b & _MASK,
}

_LOAD_I = {Op.LDRWI: 4, Op.LDRHI: 2, Op.LDRBI: 1}
_STORE_I = {Op.STRWI: 4, Op.STRHI: 2, Op.STRBI: 1}
_LOAD_R = {Op.LDRW_R: 4, Op.LDRH_R: 2, Op.LDRB_R: 1}
_STORE_R = {Op.STRW_R: 4, Op.STRH_R: 2, Op.STRB_R: 1}
