"""Disassembler formatting and assembler round-trips through text."""

from hypothesis import given

from repro.isa import decode, format_instr
from repro.isa.disassembler import disassemble_words

from .assembler import assemble
from .test_isa_encoding import arbitrary_instr, roundtrip


class TestFormatting:
    def test_representative_lines(self):
        from repro.isa import instruction as ins
        from repro.isa.opcodes import Cond, Op
        cases = [
            (ins.movi(0, 5), "mov r0, #5"),
            (ins.add_r(1, 2, 3), "add r1, r2, r3"),
            (ins.sub3(1, 2, 3), "sub r1, r2, #3"),
            (ins.alu(Op.MUL, 4, 5), "mul r4, r5"),
            (ins.shift_i(Op.LSLI, 0, 1, 4), "lsl r0, r1, #4"),
            (ins.mem_i(Op.LDRWI, 0, 1, 8), "ldr r0, [r1, #8]"),
            (ins.mem_r(Op.LDRSH_R, 0, 1, 2), "ldrsh r0, [r1, r2]"),
            (ins.ldr_sp(3, 16), "ldr r3, [sp, #16]"),
            (ins.add_sp_i(3, 8), "add r3, sp, #8"),
            (ins.sp_adjust(-32), "sub sp, #32"),
            (ins.push((4,), lr=True), "push {r4, lr}"),
            (ins.pop((4,), pc=True), "pop {r4, pc}"),
            (ins.bcc(Cond.NE, 0x100), "bne 0x100"),
            (ins.b(0x40), "b 0x40"),
            (ins.bl(0x4000), "bl 0x4000"),
            (ins.bx(14), "bx lr"),
            (ins.swi(0), "swi #0"),
            (ins.nop(), "nop"),
        ]
        for instr, expected in cases:
            assert format_instr(instr) == expected

    def test_symbolic_literal(self):
        from repro.isa import instruction as ins
        assert format_instr(ins.ldr_pc(2, target="pool")) == \
            "ldr r2, =pool"


@given(arbitrary_instr())
def test_text_roundtrip(instr):
    """format -> parse -> encode must reproduce the instruction."""
    text = format_instr(instr)
    code, _symbols = assemble(text)
    halfword = int.from_bytes(code[0:2], "little")
    nxt = int.from_bytes(code[2:4], "little") if len(code) >= 4 else None
    decoded = decode(halfword, 0, nxt)
    assert decoded == instr


def test_disassemble_words_walks_bl_pairs():
    from repro.isa import instruction as ins
    from repro.isa.encoding import encode
    words = []
    for instr in (ins.movi(0, 1), ins.bl(0x100), ins.nop()):
        words.extend(encode(instr, 2 * len(words)))
    listing = list(disassemble_words(words, 0))
    assert [addr for addr, _ in listing] == [0, 2, 6]
