"""Flat-array threaded-code execution engine for the T16 simulator.

:class:`~repro.sim.simulator.Simulator` runs every program on this
engine, and :func:`~repro.sim.trace.record_trace` records every trace
with it.  A second interpreter over the same machine model — a plain
instruction dispatch that records per-address fetches, data accesses
and misses, and emits the packed access stream — lives in
``tests/oracles`` as the engine's reference.

The fast engine pre-compiles each decoded instruction into a specialized
zero-argument *step closure* at predecode time (threaded-code style).
Everything knowable at compile time is folded into the closure as a
constant: the fall-through pc, immediate operands, the MOVI flag
results, PC-relative literal addresses.  A closure executes the
instruction's semantics and its data accesses; it never fetches.  Step
closures are stored in two flat arrays (one for scratchpad-resident
code at the bottom of the address space, one for main-memory code
starting at :data:`~repro.memory.regions.MAIN_BASE`), so dispatch is a
list index, not a dict probe.

Cycle accounting goes through a one-element list (``box``) shared by all
closures.  A program compiled against a memory hierarchy executes one
instruction at a time (:meth:`CompiledProgram.run`) and charges each
fetch from a per-pc table beside the steps, built from the hierarchy's
fast path (:meth:`~repro.memory.hierarchy.MemoryHierarchy.
fetch_fast_factory`, which folds the pc's set index and block tag into
each entry); data costs come from :meth:`~repro.memory.hierarchy.
MemoryHierarchy.data_fast_ops`.  Both return plain ints from
precomputed SPM/main cost tables and flat-list cache sets.  Results —
cycles, instruction counts, console output, exit codes, per-level cache
hit/miss counters — are bit-identical to that oracle (asserted by
``tests/test_sim_fastpath.py`` over every benchmark and hierarchy
shape).

A program compiled for recording (no hierarchy) pays no memory cost at
all: each data access appends its packed ``addr << 3 | tag`` word to
``data``, and :meth:`CompiledProgram.record` dispatches straight-line
blocks, appending one block id per execution, so the fetch stream is
known from the block ids alone.  The box then accumulates exactly the
memory-independent cycles: branch refills and execute extras.

Flags live in a four-element list ``fl`` with a truthiness encoding
private to the engine: N and V hold ``result & 0x80000000`` (so either
0 or the sign bit — comparable with ``==`` for GE/LT), Z and C hold
0/1 ints or bools (C is used arithmetically by ADC/SBC, where Python's
``True == 1`` keeps the maths exact).
"""

from __future__ import annotations

from array import array
from struct import Struct

from ..isa.opcodes import LOAD_WIDTH, STORE_WIDTH, Cond, Op
from ..memory.regions import MAIN_BASE, STACK_TOP
from ..memory.timing import BRANCH_REFILL_CYCLES, instruction_extra_cycles

_MASK = 0xFFFFFFFF
_SIGN = 0x80000000

#: Access-kind tags of a recorded data access, by width: the low three
#: bits of its packed ``addr << 3 | tag`` trace word (:mod:`.trace`).
READ_TAGS = {1: 1, 2: 2, 4: 3}
WRITE_TAGS = {1: 4, 2: 5, 4: 6}

_U32 = Struct("<I")
_U16 = Struct("<H")
_S16 = Struct("<h")
_U8 = Struct("<B")
_S8 = Struct("<b")


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
    """The step closures plus the state cells they share.

    A program compiled against a memory hierarchy executes with
    :meth:`run`, which prices fetches from a per-pc table beside the
    steps.  One compiled for recording (no hierarchy) executes with
    :meth:`record`, one straight-line block at a time, and its data
    accesses land in ``data``.
    """

    __slots__ = ("code", "spm_steps", "main_steps", "spm_fetches",
                 "main_fetches", "data", "box", "console", "exit_box",
                 "flags", "sim_error")

    def __init__(self, code, spm_steps, main_steps, spm_fetches,
                 main_fetches, data, box, console, exit_box, flags,
                 sim_error):
        self.code = code
        self.spm_steps = spm_steps
        self.main_steps = main_steps
        self.spm_fetches = spm_fetches
        self.main_fetches = main_fetches
        self.data = data
        self.box = box
        self.console = console
        self.exit_box = exit_box
        self.flags = flags
        self.sim_error = sim_error

    def _reset(self):
        self.box[0] = 0
        del self.console[:]
        self.exit_box[0] = None

    def run(self, pc, max_steps):
        """Execute from *pc*, charging each instruction's fetch before
        its step; returns ``(cycles, instructions, exit)``."""
        spm_steps = self.spm_steps
        main_steps = self.main_steps
        spm_fetches = self.spm_fetches
        main_fetches = self.main_fetches
        spm_top = len(spm_steps)
        main_top = len(main_steps)
        box = self.box
        self._reset()
        main_base = MAIN_BASE
        steps = 0
        while steps < max_steps:
            if pc >= main_base:
                index = pc - main_base
                if index < main_top:
                    step = main_steps[index]
                    fetch = main_fetches[index]
                else:
                    step = None
            elif pc < spm_top:
                step = spm_steps[pc]
                fetch = spm_fetches[pc]
            else:
                step = None
            if step is None:
                raise self.sim_error(f"pc escaped code objects: {pc:#x}")
            steps += 1
            box[0] += fetch()
            nxt = step()
            if nxt is None:
                return box[0], steps, self.exit_box[0]
            pc = nxt
        raise self.sim_error(
            f"exceeded {max_steps} steps (runaway program?)")

    def record(self, pc, max_steps):
        """Execute from *pc* one straight-line block at a time.

        A block is built on first entry: it runs from its start pc to
        the first instruction that may leave straight-line order
        (:func:`_ends_block`) or whose fall-through has no decoded
        instruction.  Each execution appends the block's id to ``ids``.
        A block that would cross *max_steps* is stepped one instruction
        at a time, so a fault before the budget runs out still wins,
        and the budget error is :meth:`run`'s.

        Returns ``(base_cycles, instructions, exit, ids, blocks)``:
        *ids* is the ``array('i')`` of executed block ids, and
        ``blocks[i]`` the ``(start pc, instruction count)`` of block *i*.
        """
        box = self.box
        self._reset()
        ids = array("i")
        note = ids.append
        built = {}
        blocks = []
        steps = 0
        while True:
            block = built.get(pc)
            if block is None:
                if steps >= max_steps:
                    break
                block = built[pc] = self._block(pc, len(blocks))
                blocks.append((pc, block[3]))
            index, body, last, length = block
            if steps + length > max_steps:
                for step in (body + (last,))[:max_steps - steps]:
                    step()
                break
            steps += length
            note(index)
            for step in body:
                step()
            pc = last()
            if pc is None:
                return box[0], steps, self.exit_box[0], ids, blocks
        raise self.sim_error(
            f"exceeded {max_steps} steps (runaway program?)")

    def _block(self, pc, index):
        """``(index, body steps, terminal step, length)`` from *pc*."""
        code = self.code
        if pc not in code:
            raise self.sim_error(f"pc escaped code objects: {pc:#x}")
        steps = []
        while True:
            instr = code[pc]
            steps.append(self.main_steps[pc - MAIN_BASE] if pc >= MAIN_BASE
                         else self.spm_steps[pc])
            pc += instr.size
            if _ends_block(instr) or pc not in code:
                return index, tuple(steps[:-1]), steps[-1], len(steps)


def _ends_block(instr) -> bool:
    """Whether *instr* may leave straight-line order: a branch, a call,
    a return, or a ``swi`` that exits or faults."""
    op = instr.op
    if op is Op.POP:
        return instr.with_link
    if op is Op.SWI:
        return instr.imm not in (1, 2)
    return op in _BRANCHES


def data_accesses(instr) -> int:
    """Data accesses one execution of *instr* makes, all statically
    known: one per load or store, one per register PUSH/POP moves."""
    op = instr.op
    if op is Op.PUSH or op is Op.POP:
        return len(instr.reglist) + (1 if instr.with_link else 0)
    return 1 if op in LOAD_WIDTH or op in STORE_WIDTH else 0


def compile_program(code, ram, hierarchy, regs, spm_limit, sim_error,
                    mem_fault):
    """Compile decoded instructions into a :class:`CompiledProgram`.

    *code* maps instruction address -> Instr; *ram*, *regs* and the
    hierarchy's tag arrays are shared with the owning Simulator, so
    engine runs and direct state inspection stay coherent.  With
    *hierarchy* None the program is compiled for recording: each data
    access appends its packed ``addr << 3 | tag`` word to ``data``
    instead of paying a cost, and no fetch table is built.
    """
    box = [0]
    console = []
    exit_box = [None]
    fl = [0, 0, 0, 0]  # n, z, c, v in the engine encoding
    refill = BRANCH_REFILL_CYCLES
    mul_extra = instruction_extra_cycles(Op.MUL)
    swi_extra = instruction_extra_cycles(Op.SWI)
    main_base, stack_top = MAIN_BASE, STACK_TOP

    # -- shared data-access helpers (check, cost or record, bytes) -----------
    #
    # One factory pair per mode, so that neither mode pays a branch or a
    # call per access for the other.

    if hierarchy is None:
        data = array("Q")
        note = data.append

        def loader(width, unpack):
            tag, align, last = READ_TAGS[width], width - 1, stack_top - width

            def load(addr):
                if addr & align:
                    raise mem_fault(
                        f"unaligned {width}-byte access at {addr:#x}")
                if addr >= spm_limit and (addr < main_base or addr > last):
                    raise mem_fault(f"access to unmapped address {addr:#x}")
                note(addr << 3 | tag)
                return unpack(ram, addr)[0]
            return load

        def storer(width, pack, mask):
            tag, align, last = WRITE_TAGS[width], width - 1, stack_top - width

            def store(addr, value):
                if addr & align:
                    raise mem_fault(
                        f"unaligned {width}-byte access at {addr:#x}")
                if addr >= spm_limit and (addr < main_base or addr > last):
                    raise mem_fault(f"access to unmapped address {addr:#x}")
                pack(ram, addr, value & mask)
                note(addr << 3 | tag)
            return store
    else:
        data = None
        dread, dwrite = hierarchy.data_fast_ops()

        def loader(width, unpack):
            align, last = width - 1, stack_top - width

            def load(addr):
                if addr & align:
                    raise mem_fault(
                        f"unaligned {width}-byte access at {addr:#x}")
                if addr >= spm_limit and (addr < main_base or addr > last):
                    raise mem_fault(f"access to unmapped address {addr:#x}")
                box[0] += dread(addr, width)
                return unpack(ram, addr)[0]
            return load

        def storer(width, pack, mask):
            align, last = width - 1, stack_top - width

            def store(addr, value):
                if addr & align:
                    raise mem_fault(
                        f"unaligned {width}-byte access at {addr:#x}")
                if addr >= spm_limit and (addr < main_base or addr > last):
                    raise mem_fault(f"access to unmapped address {addr:#x}")
                pack(ram, addr, value & mask)
                box[0] += dwrite(addr, width)
            return store

    load4, load2, load1 = (loader(4, _U32.unpack_from),
                           loader(2, _U16.unpack_from),
                           loader(1, _U8.unpack_from))
    load2s, load1s = loader(2, _S16.unpack_from), loader(1, _S8.unpack_from)
    store4, store2, store1 = (storer(4, _U32.pack_into, _MASK),
                              storer(2, _U16.pack_into, 0xFFFF),
                              storer(1, _U8.pack_into, 0xFF))

    # -- per-instruction compilation ----------------------------------------

    def build(addr, instr):  # noqa: C901 - one dispatch, many tiny bodies
        op = instr.op
        nxt = addr + instr.size
        rd, rn, rm, imm = instr.rd, instr.rn, instr.rm, instr.imm

        # --- moves / immediates ---
        if op is Op.MOVI:
            n_c, z_c = imm & _SIGN, imm == 0

            def step():
                regs[rd] = imm
                fl[0] = n_c
                fl[1] = z_c
                return nxt
            return step
        if op is Op.CMPI:
            def step():
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
                    r = regs[rm]
                    regs[rd] = r
                    fl[0] = r & _SIGN
                    fl[1] = r == 0
                    return nxt
                return step
            carry_shift = 32 - imm

            def step():
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
                    r = regs[rm]
                    regs[rd] = r
                    fl[0] = r & _SIGN
                    fl[1] = r == 0
                    return nxt
                return step
            carry_shift = imm - 1

            def step():
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
                    v = regs[rm]
                    r = v & _MASK
                    regs[rd] = r
                    fl[0] = r & _SIGN
                    fl[1] = r == 0
                    return nxt
                return step
            carry_shift = imm - 1

            def step():
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
                r = combine(regs[rd], regs[rm])
                regs[rd] = r
                fl[0] = r & _SIGN
                fl[1] = r == 0
                return nxt
            return step
        if op is Op.TST:
            def step():
                r = regs[rd] & regs[rm]
                fl[0] = r & _SIGN
                fl[1] = r == 0
                return nxt
            return step
        if op is Op.MVN:
            def step():
                r = ~regs[rm] & _MASK
                regs[rd] = r
                fl[0] = r & _SIGN
                fl[1] = r == 0
                return nxt
            return step
        if op is Op.NEG:
            def step():
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
                box[0] += mul_extra
                r = (regs[rd] * regs[rm]) & _MASK
                regs[rd] = r
                fl[0] = r & _SIGN
                fl[1] = r == 0
                return nxt
            return step

        # --- register shifts (runtime amounts) ---
        if op is Op.LSL:
            def step():
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
                regs[rd] = load4(pool)
                return nxt
            return step
        if op is Op.ADDPC:
            value = (((addr + 4) & ~3) + imm) & _MASK

            def step():
                regs[rd] = value
                return nxt
            return step

        # --- sp-relative ---
        if op is Op.LDRSP:
            def step():
                regs[rd] = load4(regs[13] + imm)
                return nxt
            return step
        if op is Op.STRSP:
            def step():
                store4(regs[13] + imm, regs[rd])
                return nxt
            return step
        if op is Op.ADDSPI:
            def step():
                regs[rd] = (regs[13] + imm) & _MASK
                return nxt
            return step
        if op is Op.SPADJ:
            def step():
                regs[13] = (regs[13] + imm) & _MASK
                return nxt
            return step

        # --- immediate-offset loads/stores ---
        if op in _LOAD_I:
            load = {4: load4, 2: load2, 1: load1}[_LOAD_I[op]]

            def step():
                regs[rd] = load(regs[rn] + imm)
                return nxt
            return step
        if op in _STORE_I:
            store = {4: store4, 2: store2, 1: store1}[_STORE_I[op]]

            def step():
                store(regs[rn] + imm, regs[rd])
                return nxt
            return step

        # --- register-offset loads/stores ---
        if op in _LOAD_R:
            load = {4: load4, 2: load2, 1: load1}[_LOAD_R[op]]

            def step():
                regs[rd] = load((regs[rn] + regs[rm]) & _MASK)
                return nxt
            return step
        if op in _STORE_R:
            store = {4: store4, 2: store2, 1: store1}[_STORE_R[op]]

            def step():
                store((regs[rn] + regs[rm]) & _MASK, regs[rd])
                return nxt
            return step
        if op is Op.LDRSH_R:
            def step():
                regs[rd] = load2s((regs[rn] + regs[rm]) & _MASK) & _MASK
                return nxt
            return step
        if op is Op.LDRSB_R:
            def step():
                regs[rd] = load1s((regs[rn] + regs[rm]) & _MASK) & _MASK
                return nxt
            return step

        # --- stack block transfers ---
        if op is Op.PUSH:
            reglist = instr.reglist
            with_link = instr.with_link
            frame = 4 * (len(reglist) + (1 if with_link else 0))

            def step():
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
                box[0] += refill
                return target
            return step
        if op is Op.BCC:
            target = instr.target
            test = _cond_test(instr.cond, fl)
            if test is None:  # AL behaves like B
                def step():
                    box[0] += refill
                    return target
                return step

            def step():
                if test():
                    box[0] += refill
                    return target
                return nxt
            return step
        if op is Op.BL:
            target = instr.target
            ret = addr + 4

            def step():
                box[0] += refill
                regs[14] = ret
                return target
            return step
        if op is Op.BX:
            def step():
                box[0] += refill
                return regs[rm] & ~1
            return step

        # --- system ---
        if op is Op.SWI:
            if imm == 0:
                def step():
                    box[0] += swi_extra
                    exit_box[0] = regs[0]
                    return None
                return step
            if imm == 1:
                def step():
                    box[0] += swi_extra
                    value = regs[0]
                    if value & _SIGN:
                        value -= 0x100000000
                    console.append(str(value))
                    return nxt
                return step
            if imm == 2:
                def step():
                    box[0] += swi_extra
                    console.append(chr(regs[0] & 0xFF))
                    return nxt
                return step

            def step():
                box[0] += swi_extra
                raise sim_error(f"unknown swi #{imm} at {addr:#x}")
            return step
        if op is Op.NOP:
            return lambda: nxt

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

    spm_fetches = main_fetches = None
    if hierarchy is not None:
        make_fetch = hierarchy.fetch_fast_factory()
        spm_fetches = [None] * spm_top
        main_fetches = [None] * main_top
        for addr, instr in code.items():
            fetch = make_fetch(addr)
            if instr.size == 4:  # BL: both halfwords, in order
                fetch = _fetch_pair(fetch, make_fetch(addr + 2))
            if addr < MAIN_BASE:
                spm_fetches[addr] = fetch
            else:
                main_fetches[addr - MAIN_BASE] = fetch

    return CompiledProgram(code, spm_steps, main_steps, spm_fetches,
                           main_fetches, data, box, console, exit_box, fl,
                           sim_error)


def _fetch_pair(first, second):
    return lambda: first() + second()


_LOGICAL = {
    Op.AND: lambda a, b: a & b,
    Op.EOR: lambda a, b: a ^ b,
    Op.ORR: lambda a, b: a | b,
    Op.BIC: lambda a, b: a & ~b & _MASK,
}

_BRANCHES = frozenset({Op.B, Op.BCC, Op.BL, Op.BX})

_LOAD_I = {Op.LDRWI: 4, Op.LDRHI: 2, Op.LDRBI: 1}
_STORE_I = {Op.STRWI: 4, Op.STRHI: 2, Op.STRBI: 1}
_LOAD_R = {Op.LDRW_R: 4, Op.LDRH_R: 2, Op.LDRB_R: 1}
_STORE_R = {Op.STRW_R: 4, Op.STRH_R: 2, Op.STRB_R: 1}
