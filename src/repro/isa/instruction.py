"""Instruction representation shared by assembler, simulator and analyser.

An :class:`Instr` is a decoded (or not-yet-encoded) T16 instruction.  The
same object type flows through the whole stack:

* the mini-C code generator emits ``Instr`` objects with *symbolic* branch
  targets (label strings in :attr:`Instr.target`);
* the assembler/encoder resolves labels and produces halfwords;
* the decoder reconstructs ``Instr`` objects from memory for the simulator
  and for the WCET analyser's CFG reconstruction.
"""

from __future__ import annotations

from .opcodes import (
    FOUR_BYTE_OPS,
    LOAD_WIDTH,
    STORE_WIDTH,
    Cond,
    Op,
)


class Instr:
    """One T16 instruction.

    Attributes default to ``None``/empty so factories only set what the
    opcode uses.  ``imm`` holds the *semantic* immediate (byte offsets for
    memory ops, already scaled), not raw encoding fields.
    """

    __slots__ = ("op", "rd", "rn", "rm", "imm", "cond", "reglist",
                 "with_link", "target", "note")

    def __init__(self, op, rd=None, rn=None, rm=None, imm=None, cond=None,
                 reglist=(), with_link=False, target=None, note=None):
        self.op = op
        self.rd = rd
        self.rn = rn
        self.rm = rm
        self.imm = imm
        self.cond = cond
        self.reglist = tuple(reglist)
        #: PUSH: include lr; POP: include pc.
        self.with_link = with_link
        #: Symbolic branch target (label name) before encoding, or the
        #: resolved absolute address after decoding.
        self.target = target
        #: Optional tool metadata (e.g. a data-access annotation attached by
        #: the compiler); never part of the encoding.
        self.note = note

    @property
    def size(self) -> int:
        """Encoded size in bytes (2, or 4 for BL)."""
        return 4 if self.op in FOUR_BYTE_OPS else 2

    @property
    def load_width(self):
        """Data-read width in bytes, or None if the op does not load."""
        if self.op in LOAD_WIDTH:
            return LOAD_WIDTH[self.op]
        if self.op is Op.POP:
            return 4
        return None

    @property
    def store_width(self):
        """Data-write width in bytes, or None if the op does not store."""
        if self.op in STORE_WIDTH:
            return STORE_WIDTH[self.op]
        if self.op is Op.PUSH:
            return 4
        return None

    def __eq__(self, other):
        if not isinstance(other, Instr):
            return NotImplemented
        return all(
            getattr(self, slot) == getattr(other, slot)
            for slot in self.__slots__ if slot != "note"
        )

    def __hash__(self):
        return hash((self.op, self.rd, self.rn, self.rm, self.imm,
                     self.cond, self.reglist, self.with_link, self.target))

    def __repr__(self):
        from .disassembler import format_instr
        try:
            return f"<Instr {format_instr(self)}>"
        except Exception:
            return f"<Instr {self.op.name}>"


# ---------------------------------------------------------------------------
# Factories.  Codegen and tests build instructions through these so operand
# mistakes fail fast rather than at encode time.
# ---------------------------------------------------------------------------

def _check_low(reg, what="register"):
    if not isinstance(reg, int) or not 0 <= reg <= 7:
        raise ValueError(f"{what} must be r0-r7, got {reg!r}")
    return reg


def _check_range(value, lo, hi, what):
    if not isinstance(value, int) or not lo <= value <= hi:
        raise ValueError(f"{what} out of range [{lo}, {hi}]: {value!r}")
    return value


def movi(rd, imm):
    return Instr(Op.MOVI, rd=_check_low(rd), imm=_check_range(imm, 0, 255, "imm8"))


def cmpi(rd, imm):
    return Instr(Op.CMPI, rd=_check_low(rd), imm=_check_range(imm, 0, 255, "imm8"))


def addi(rd, imm):
    return Instr(Op.ADDI, rd=_check_low(rd), imm=_check_range(imm, 0, 255, "imm8"))


def subi(rd, imm):
    return Instr(Op.SUBI, rd=_check_low(rd), imm=_check_range(imm, 0, 255, "imm8"))


def add_r(rd, rn, rm):
    return Instr(Op.ADDR, rd=_check_low(rd), rn=_check_low(rn), rm=_check_low(rm))


def sub_r(rd, rn, rm):
    return Instr(Op.SUBR, rd=_check_low(rd), rn=_check_low(rn), rm=_check_low(rm))


def add3(rd, rn, imm):
    return Instr(Op.ADD3, rd=_check_low(rd), rn=_check_low(rn),
                 imm=_check_range(imm, 0, 7, "imm3"))


def sub3(rd, rn, imm):
    return Instr(Op.SUB3, rd=_check_low(rd), rn=_check_low(rn),
                 imm=_check_range(imm, 0, 7, "imm3"))


def shift_i(op, rd, rm, imm):
    if op not in (Op.LSLI, Op.LSRI, Op.ASRI):
        raise ValueError(f"not an immediate shift: {op}")
    return Instr(op, rd=_check_low(rd), rm=_check_low(rm),
                 imm=_check_range(imm, 0, 31, "imm5"))


def alu(op, rd, rm):
    """Two-address ALU op: rd = rd <op> rm (TST/CMP/CMN only set flags)."""
    from .opcodes import ALU_INDEX
    if op not in ALU_INDEX:
        raise ValueError(f"not a two-address ALU op: {op}")
    return Instr(op, rd=_check_low(rd), rm=_check_low(rm))


def movr(rd, rm):
    return Instr(Op.MOVR, rd=_check_low(rd), rm=_check_low(rm))


def ldr_pc(rd, byte_offset=None, target=None):
    """PC-relative literal load; offset resolved at assembly if symbolic."""
    if byte_offset is not None:
        _check_range(byte_offset, 0, 1020, "pc offset")
        if byte_offset % 4:
            raise ValueError("pc-relative offset must be word aligned")
    return Instr(Op.LDRPC, rd=_check_low(rd), imm=byte_offset, target=target)


def add_pc(rd, byte_offset):
    _check_range(byte_offset, 0, 1020, "pc offset")
    if byte_offset % 4:
        raise ValueError("pc-relative offset must be word aligned")
    return Instr(Op.ADDPC, rd=_check_low(rd), imm=byte_offset)


def ldr_sp(rd, byte_offset):
    _check_range(byte_offset, 0, 1020, "sp offset")
    if byte_offset % 4:
        raise ValueError("sp-relative offset must be word aligned")
    return Instr(Op.LDRSP, rd=_check_low(rd), imm=byte_offset)


def str_sp(rd, byte_offset):
    _check_range(byte_offset, 0, 1020, "sp offset")
    if byte_offset % 4:
        raise ValueError("sp-relative offset must be word aligned")
    return Instr(Op.STRSP, rd=_check_low(rd), imm=byte_offset)


def add_sp_i(rd, byte_offset):
    _check_range(byte_offset, 0, 1020, "sp offset")
    if byte_offset % 4:
        raise ValueError("sp-relative offset must be word aligned")
    return Instr(Op.ADDSPI, rd=_check_low(rd), imm=byte_offset)


def sp_adjust(delta_bytes):
    """sp += delta_bytes (multiple of 4, |delta| <= 508)."""
    _check_range(delta_bytes, -508, 508, "sp adjustment")
    if delta_bytes % 4:
        raise ValueError("sp adjustment must be a multiple of 4")
    return Instr(Op.SPADJ, imm=delta_bytes)


_IMM_MEM_SCALE = {Op.STRWI: 4, Op.LDRWI: 4, Op.STRHI: 2, Op.LDRHI: 2,
                  Op.STRBI: 1, Op.LDRBI: 1}


def mem_i(op, rd, rn, byte_offset):
    """Immediate-offset load/store; offset is in bytes, width-scaled."""
    scale = _IMM_MEM_SCALE.get(op)
    if scale is None:
        raise ValueError(f"not an immediate-offset memory op: {op}")
    _check_range(byte_offset, 0, 31 * scale, "mem offset")
    if byte_offset % scale:
        raise ValueError(f"offset {byte_offset} not aligned to {scale}")
    return Instr(op, rd=_check_low(rd), rn=_check_low(rn), imm=byte_offset)


_REG_MEM_OPS = frozenset({
    Op.STRW_R, Op.STRH_R, Op.STRB_R, Op.LDRSB_R,
    Op.LDRW_R, Op.LDRH_R, Op.LDRB_R, Op.LDRSH_R,
})


def mem_r(op, rd, rn, rm):
    """Register-offset load/store: address = rn + rm."""
    if op not in _REG_MEM_OPS:
        raise ValueError(f"not a register-offset memory op: {op}")
    return Instr(op, rd=_check_low(rd), rn=_check_low(rn), rm=_check_low(rm))


def push(reglist, lr=False):
    regs = tuple(sorted(set(reglist)))
    for reg in regs:
        _check_low(reg, "push register")
    return Instr(Op.PUSH, reglist=regs, with_link=lr)


def pop(reglist, pc=False):
    regs = tuple(sorted(set(reglist)))
    for reg in regs:
        _check_low(reg, "pop register")
    return Instr(Op.POP, reglist=regs, with_link=pc)


def b(target):
    return Instr(Op.B, target=target)


def bcc(cond, target):
    if not isinstance(cond, Cond):
        raise ValueError(f"bad condition: {cond!r}")
    if cond is Cond.AL:
        return b(target)
    return Instr(Op.BCC, cond=cond, target=target)


def bl(target):
    return Instr(Op.BL, target=target)


def bx(rm):
    if rm == 14:  # lr
        return Instr(Op.BX, rm=rm)
    return Instr(Op.BX, rm=_check_low(rm))


def swi(number):
    return Instr(Op.SWI, imm=_check_range(number, 0, 255, "swi number"))


def nop():
    return Instr(Op.NOP)
