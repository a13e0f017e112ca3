"""Opcode and condition-code definitions for the T16 instruction set.

T16 is a THUMB-like 16-bit instruction set: all instructions occupy one
16-bit halfword except ``BL``, which (as in THUMB) is encoded as a
prefix/suffix halfword pair and is treated as a single 4-byte instruction by
the assembler, simulator and WCET analyser.

The set is deliberately small but complete enough to compile real C-style
programs: three-address add/sub, immediate ALU forms, the THUMB two-address
ALU group, load/store with immediate and register offsets for 8/16/32-bit
data, SP-relative and PC-relative (literal pool) accesses, PUSH/POP,
conditional branches, BL/BX and SWI.
"""

from __future__ import annotations

import enum


class Op(enum.IntEnum):
    """T16 operations (post-decode, one per executable behaviour)."""

    # Shifts by immediate.
    LSLI = enum.auto()
    LSRI = enum.auto()
    ASRI = enum.auto()
    # Three-address add/subtract.
    ADDR = enum.auto()   # rd = rn + rm
    SUBR = enum.auto()   # rd = rn - rm
    ADD3 = enum.auto()   # rd = rn + imm3
    SUB3 = enum.auto()   # rd = rn - imm3
    # Immediate move/compare/add/sub (8-bit immediate).
    MOVI = enum.auto()
    CMPI = enum.auto()
    ADDI = enum.auto()
    SUBI = enum.auto()
    # Two-address ALU group (THUMB data-processing).
    AND = enum.auto()
    EOR = enum.auto()
    LSL = enum.auto()
    LSR = enum.auto()
    ASR = enum.auto()
    ADC = enum.auto()
    SBC = enum.auto()
    ROR = enum.auto()
    TST = enum.auto()
    NEG = enum.auto()
    CMP = enum.auto()
    CMN = enum.auto()
    ORR = enum.auto()
    MUL = enum.auto()
    BIC = enum.auto()
    MVN = enum.auto()
    # Register move / branch-exchange.
    MOVR = enum.auto()   # rd = rm (sets NZ)
    BX = enum.auto()     # pc = rm
    # PC-relative literal load and address generation.
    LDRPC = enum.auto()  # rd = mem32[align4(pc + 4) + imm8 * 4]
    ADDPC = enum.auto()  # rd = align4(pc + 4) + imm8 * 4
    # SP-relative load/store and address generation.
    LDRSP = enum.auto()
    STRSP = enum.auto()
    ADDSPI = enum.auto()  # rd = sp + imm8 * 4
    SPADJ = enum.auto()   # sp = sp + simm (multiple of 4)
    # Register-offset load/store.
    STRW_R = enum.auto()
    STRH_R = enum.auto()
    STRB_R = enum.auto()
    LDRSB_R = enum.auto()
    LDRW_R = enum.auto()
    LDRH_R = enum.auto()
    LDRB_R = enum.auto()
    LDRSH_R = enum.auto()
    # Immediate-offset load/store.
    STRWI = enum.auto()  # [rn + imm5 * 4]
    LDRWI = enum.auto()
    STRBI = enum.auto()  # [rn + imm5]
    LDRBI = enum.auto()
    STRHI = enum.auto()  # [rn + imm5 * 2]
    LDRHI = enum.auto()
    # Stack multiple.
    PUSH = enum.auto()
    POP = enum.auto()
    # Control flow.
    BCC = enum.auto()    # conditional branch
    B = enum.auto()      # unconditional branch
    BL = enum.auto()     # branch with link (4 bytes)
    SWI = enum.auto()    # software interrupt (system call)
    NOP = enum.auto()


class Cond(enum.IntEnum):
    """Branch condition codes (ARM semantics)."""

    EQ = 0   # Z
    NE = 1   # !Z
    HS = 2   # C          (unsigned >=)
    LO = 3   # !C         (unsigned <)
    MI = 4   # N
    PL = 5   # !N
    VS = 6   # V
    VC = 7   # !V
    HI = 8   # C and !Z   (unsigned >)
    LS = 9   # !C or Z    (unsigned <=)
    GE = 10  # N == V
    LT = 11  # N != V
    GT = 12  # !Z and N == V
    LE = 13  # Z or N != V
    AL = 14  # always


#: Condition-code inverses (for branch relaxation and codegen).
COND_INVERSE = {
    Cond.EQ: Cond.NE, Cond.NE: Cond.EQ, Cond.HS: Cond.LO, Cond.LO: Cond.HS,
    Cond.MI: Cond.PL, Cond.PL: Cond.MI, Cond.VS: Cond.VC, Cond.VC: Cond.VS,
    Cond.HI: Cond.LS, Cond.LS: Cond.HI, Cond.GE: Cond.LT, Cond.LT: Cond.GE,
    Cond.GT: Cond.LE, Cond.LE: Cond.GT,
}

#: Two-address ALU opcodes in their THUMB encoding order (sub-opcode index).
ALU_ORDER = (
    Op.AND, Op.EOR, Op.LSL, Op.LSR, Op.ASR, Op.ADC, Op.SBC, Op.ROR,
    Op.TST, Op.NEG, Op.CMP, Op.CMN, Op.ORR, Op.MUL, Op.BIC, Op.MVN,
)

ALU_INDEX = {op: i for i, op in enumerate(ALU_ORDER)}

#: Ops that read memory (data side), with access width in bytes.
LOAD_WIDTH = {
    Op.LDRPC: 4, Op.LDRSP: 4,
    Op.LDRW_R: 4, Op.LDRH_R: 2, Op.LDRB_R: 1,
    Op.LDRSH_R: 2, Op.LDRSB_R: 1,
    Op.LDRWI: 4, Op.LDRHI: 2, Op.LDRBI: 1,
}

#: Ops that write memory (data side), with access width in bytes.
STORE_WIDTH = {
    Op.STRSP: 4,
    Op.STRW_R: 4, Op.STRH_R: 2, Op.STRB_R: 1,
    Op.STRWI: 4, Op.STRHI: 2, Op.STRBI: 1,
}

#: Ops whose data accesses are sp-relative: they touch the stack,
#: wherever the linker places the program's objects.
SP_RELATIVE_OPS = frozenset({Op.LDRSP, Op.STRSP, Op.PUSH, Op.POP})

#: Ops whose Instr.size is 4 bytes instead of 2.
FOUR_BYTE_OPS = frozenset({Op.BL})
