"""The T16 text assembler: hand-written test programs as item streams.

The shipped toolchain never parses assembly text — the mini-C compiler
emits :class:`~repro.isa.instruction.Instr` objects directly.  Tests
write small programs by hand in the syntax the disassembler prints, one
statement per line::

    loop:   add r0, r0, r1
            sub r2, #1
            bne loop
            .word 0x12345678
            .align 4

Supported directives: ``.word``, ``.half``, ``.byte``, ``.align``,
``.space``.  Labels end with a colon and may share a line with a
statement.  :class:`Assembler` parses text into the item stream
:mod:`repro.isa.assembler` lays out and encodes.
"""

import re

from repro.isa import instruction as ins
from repro.isa.assembler import (Align, Data, Label, WordRef, encode_placed,
                                 layout_items)
from repro.isa.encoding import EncodingError
from repro.isa.opcodes import Cond, Op
from repro.isa.registers import LR, NUM_REGS, PC, SP


class AsmError(Exception):
    """Syntax or semantic error in assembly text."""

    def __init__(self, message, line_no=None):
        prefix = f"line {line_no}: " if line_no is not None else ""
        super().__init__(prefix + message)


_REG_ALIASES = {"sp": SP, "lr": LR, "pc": PC}


def parse_reg(name: str) -> int:
    """Parse a register name (``r0``..``r15``, ``sp``, ``lr``, ``pc``)."""
    text = name.strip().lower()
    if text in _REG_ALIASES:
        return _REG_ALIASES[text]
    if text.startswith("r"):
        try:
            index = int(text[1:])
        except ValueError as exc:
            raise ValueError(f"bad register name: {name!r}") from exc
        if 0 <= index < NUM_REGS:
            return index
    raise ValueError(f"bad register name: {name!r}")


_MEM_RE = re.compile(
    r"^\[\s*(?P<base>\w+)\s*(?:,\s*(?:#(?P<imm>-?\w+)|(?P<rm>\w+)))?\s*\]$")

_COND_SUFFIXES = {c.name.lower(): c for c in Cond if c is not Cond.AL}


def _parse_imm(text, line_no):
    try:
        return int(text, 0)
    except ValueError as exc:
        raise AsmError(f"bad immediate {text!r}", line_no) from exc


def _split_operands(rest):
    """Split an operand string at top-level commas ('{..}' and '[..]' nest)."""
    parts, depth, current = [], 0, []
    for char in rest:
        if char in "[{":
            depth += 1
        elif char in "]}":
            depth -= 1
        if char == "," and depth == 0:
            parts.append("".join(current).strip())
            current = []
        else:
            current.append(char)
    tail = "".join(current).strip()
    if tail:
        parts.append(tail)
    return parts


class Assembler:
    """Assembles text into an item stream and then into bytes."""

    def __init__(self):
        self.items = []

    # -- pass 1: parse -----------------------------------------------------

    def parse(self, text: str) -> list:
        """Parse assembly *text* into a list of Label/Instr/Data items."""
        for line_no, raw in enumerate(text.splitlines(), start=1):
            line = raw.split(";")[0].split("@")[0].strip()
            if not line:
                continue
            while True:
                match = re.match(r"^([A-Za-z_.$][\w.$]*):\s*(.*)$", line)
                if not match:
                    break
                self.items.append(Label(match.group(1)))
                line = match.group(2).strip()
            if not line:
                continue
            if line.startswith("."):
                self._parse_directive(line, line_no)
            else:
                self.items.append(self._parse_instr(line, line_no))
        return self.items

    def _parse_directive(self, line, line_no):
        parts = line.split(None, 1)
        name = parts[0]
        rest = parts[1] if len(parts) > 1 else ""
        if name == ".align":
            self.items.append(Align(_parse_imm(rest, line_no)))
        elif name == ".space":
            self.items.append(Data(b"\0" * _parse_imm(rest, line_no)))
        elif name in (".word", ".half", ".byte"):
            width = {".word": 4, ".half": 2, ".byte": 1}[name]
            payload = bytearray()
            for field in _split_operands(rest):
                try:
                    value = int(field, 0)
                except ValueError:
                    if width != 4:
                        raise AsmError(
                            f"symbol reference needs .word: {field!r}",
                            line_no) from None
                    if payload:
                        self.items.append(Data(payload, align=width))
                        payload = bytearray()
                    self.items.append(WordRef(field))
                    continue
                payload += (value & ((1 << (8 * width)) - 1)).to_bytes(
                    width, "little")
            if payload:
                self.items.append(Data(payload, align=width))
        else:
            raise AsmError(f"unknown directive {name}", line_no)

    def _parse_instr(self, line, line_no):
        parts = line.split(None, 1)
        mnem = parts[0].lower()
        rest = parts[1] if len(parts) > 1 else ""
        ops = _split_operands(rest)
        try:
            return self._build(mnem, ops, line_no)
        except (ValueError, EncodingError) as exc:
            raise AsmError(str(exc), line_no) from exc

    def _build(self, mnem, ops, line_no):
        def reg(i):
            return parse_reg(ops[i])

        def imm(i):
            if not ops[i].startswith("#"):
                raise AsmError(f"expected immediate, got {ops[i]!r}", line_no)
            return _parse_imm(ops[i][1:], line_no)

        if mnem == "nop":
            return ins.nop()
        if mnem == "swi":
            return ins.swi(imm(0))
        if mnem == "bx":
            return ins.bx(reg(0))
        if mnem == "bl":
            return ins.bl(ops[0])
        if mnem == "b":
            return ins.b(ops[0])
        if mnem.startswith("b") and mnem[1:] in _COND_SUFFIXES:
            return ins.bcc(_COND_SUFFIXES[mnem[1:]], ops[0])
        if mnem in ("push", "pop"):
            body = ops[0].strip()
            if not (body.startswith("{") and body.endswith("}")):
                raise AsmError("push/pop need a register list", line_no)
            names = [x.strip() for x in body[1:-1].split(",") if x.strip()]
            regs, extra = [], False
            for name in names:
                index = parse_reg(name)
                if index >= 8:
                    extra = True
                else:
                    regs.append(index)
            if mnem == "push":
                return ins.push(regs, lr=extra)
            return ins.pop(regs, pc=extra)

        if mnem in ("lsl", "lsr", "asr") and len(ops) == 3:
            op = {"lsl": Op.LSLI, "lsr": Op.LSRI, "asr": Op.ASRI}[mnem]
            return ins.shift_i(op, reg(0), parse_reg(ops[1]), imm(2))

        if mnem in ("ldr", "str", "ldrb", "strb", "ldrh", "strh",
                    "ldrsb", "ldrsh"):
            return self._build_mem(mnem, ops, line_no)

        if mnem == "mov":
            if ops[1].startswith("#"):
                return ins.movi(reg(0), imm(1))
            return ins.movr(reg(0), parse_reg(ops[1]))
        if mnem == "cmp":
            if ops[1].startswith("#"):
                return ins.cmpi(reg(0), imm(1))
            return ins.alu(Op.CMP, reg(0), parse_reg(ops[1]))
        if mnem in ("add", "sub"):
            return self._build_addsub(mnem, ops, line_no)

        two_addr = {"and": Op.AND, "eor": Op.EOR, "orr": Op.ORR,
                    "bic": Op.BIC, "mul": Op.MUL, "adc": Op.ADC,
                    "sbc": Op.SBC, "ror": Op.ROR, "tst": Op.TST,
                    "neg": Op.NEG, "cmn": Op.CMN, "mvn": Op.MVN,
                    "lsl": Op.LSL, "lsr": Op.LSR, "asr": Op.ASR}
        if mnem in two_addr and len(ops) == 2:
            return ins.alu(two_addr[mnem], reg(0), parse_reg(ops[1]))
        raise AsmError(f"unknown instruction {mnem!r}", line_no)

    def _build_addsub(self, mnem, ops, line_no):
        rd = parse_reg(ops[0])
        if len(ops) == 2:
            if ops[0].lower() == "sp":
                delta = _parse_imm(ops[1][1:], line_no)
                return ins.sp_adjust(delta if mnem == "add" else -delta)
            value = _parse_imm(ops[1][1:], line_no)
            return ins.addi(rd, value) if mnem == "add" else ins.subi(rd, value)
        base = ops[1].lower()
        if mnem == "add" and base == "sp":
            return ins.add_sp_i(rd, _parse_imm(ops[2][1:], line_no))
        if mnem == "add" and base == "pc":
            return ins.add_pc(rd, _parse_imm(ops[2][1:], line_no))
        rn = parse_reg(ops[1])
        if ops[2].startswith("#"):
            value = _parse_imm(ops[2][1:], line_no)
            factory = ins.add3 if mnem == "add" else ins.sub3
            return factory(rd, rn, value)
        rm = parse_reg(ops[2])
        factory = ins.add_r if mnem == "add" else ins.sub_r
        return factory(rd, rn, rm)

    def _build_mem(self, mnem, ops, line_no):
        rd = parse_reg(ops[0])
        addr_text = ops[1].strip()
        if mnem == "ldr" and addr_text.startswith("="):
            return ins.ldr_pc(rd, target=addr_text[1:])
        match = _MEM_RE.match(addr_text)
        if not match:
            raise AsmError(f"bad address operand {addr_text!r}", line_no)
        base = match.group("base").lower()
        offs = match.group("imm")
        rm = match.group("rm")
        offset = _parse_imm(offs, line_no) if offs else 0
        if base == "sp":
            factory = ins.ldr_sp if mnem == "ldr" else ins.str_sp
            if mnem not in ("ldr", "str"):
                raise AsmError("only word access allowed via sp", line_no)
            return factory(rd, offset)
        if base == "pc":
            if mnem != "ldr":
                raise AsmError("only ldr allowed via pc", line_no)
            return ins.ldr_pc(rd, byte_offset=offset)
        rn = parse_reg(base)
        if rm is not None:
            reg_ops = {"ldr": Op.LDRW_R, "str": Op.STRW_R,
                       "ldrh": Op.LDRH_R, "strh": Op.STRH_R,
                       "ldrb": Op.LDRB_R, "strb": Op.STRB_R,
                       "ldrsh": Op.LDRSH_R, "ldrsb": Op.LDRSB_R}
            return ins.mem_r(reg_ops[mnem], rd, rn, parse_reg(rm))
        imm_ops = {"ldr": Op.LDRWI, "str": Op.STRWI, "ldrh": Op.LDRHI,
                   "strh": Op.STRHI, "ldrb": Op.LDRBI, "strb": Op.STRBI}
        if mnem not in imm_ops:
            raise AsmError(f"{mnem} requires a register offset", line_no)
        return ins.mem_i(imm_ops[mnem], rd, rn, offset)


def assemble_items(items, base_addr=0, extern=None):
    """Lay out and encode an item stream.

    Returns ``(code_bytes, symbols)`` where *symbols* maps label names to
    absolute addresses.  *extern* resolves symbols not defined locally.
    """
    placed, symbols, _size = layout_items(items, base_addr)

    def resolve(name):
        if name in symbols:
            return symbols[name]
        if extern is not None:
            value = extern(name)
            if value is not None:
                return value
        raise EncodingError(f"undefined symbol {name!r}")

    return encode_placed(placed, resolve), symbols


def assemble(text, base_addr=0, extern=None):
    """Assemble *text*; returns ``(code_bytes, symbols)``."""
    items = Assembler().parse(text)
    return assemble_items(items, base_addr, extern)
