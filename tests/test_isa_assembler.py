"""Text assembler (``tests/assembler.py``) and the shipped item-stream
passes (``repro.isa.assembler``): parsing, layout, relocation,
relaxation."""

import struct

import pytest

from repro.isa import Op, decode
from repro.isa.assembler import (
    Align,
    Data,
    Label,
    WordRef,
    layout_items,
    relax_branches,
)
from repro.isa import instruction as ins

from .assembler import AsmError, Assembler, assemble, assemble_items


def decode_all(code, base=0):
    words = struct.unpack(f"<{len(code) // 2}H", code)
    out = []
    index = 0
    while index < len(words):
        nxt = words[index + 1] if index + 1 < len(words) else None
        instr = decode(words[index], base + 2 * index, nxt)
        out.append(instr)
        index += instr.size // 2
    return out


class TestParsing:
    def test_labels_and_instructions(self):
        code, symbols = assemble("start: mov r0, #1\n  b start\n")
        assert symbols == {"start": 0}
        decoded = decode_all(code)
        assert decoded[0].op is Op.MOVI
        assert decoded[1].target == 0

    def test_multiple_labels_one_line(self):
        _code, symbols = assemble("a: b: nop\n")
        assert symbols == {"a": 0, "b": 0}

    def test_comments_stripped(self):
        code, _ = assemble("nop ; comment\nnop @ other comment\n")
        assert len(code) == 4

    def test_word_half_byte(self):
        code, _ = assemble(".byte 1, 2\n.half 0x1234\n.word 0xdeadbeef\n")
        assert code[0:2] == bytes([1, 2])
        assert code[2:4] == (0x1234).to_bytes(2, "little")
        assert code[4:8] == (0xDEADBEEF).to_bytes(4, "little")

    def test_word_symbol_reference(self):
        code, _ = assemble("x: nop\n.align 4\n.word x\n",
                           base_addr=0x100)
        assert code[-4:] == (0x100).to_bytes(4, "little")

    def test_space_and_align(self):
        code, symbols = assemble("nop\n.align 8\nhere: .space 3\n")
        assert symbols["here"] == 8
        assert len(code) == 11

    def test_memory_operand_forms(self):
        code, _ = assemble(
            "ldr r0, [r1, #4]\nstr r2, [r3, r4]\nldrb r5, [r6, #0]\n"
            "ldrsh r7, [r0, r1]\nldr r2, [sp, #16]\nldr r3, [pc, #8]\n")
        decoded = decode_all(code)
        ops = [i.op for i in decoded]
        assert ops == [Op.LDRWI, Op.STRW_R, Op.LDRBI, Op.LDRSH_R,
                       Op.LDRSP, Op.LDRPC]

    def test_push_pop_with_lr_pc(self):
        code, _ = assemble("push {r4, r5, lr}\npop {r4, r5, pc}\n")
        decoded = decode_all(code)
        assert decoded[0].with_link and decoded[1].with_link

    def test_sp_arithmetic(self):
        code, _ = assemble("add sp, #16\nsub sp, #16\nadd r0, sp, #8\n")
        decoded = decode_all(code)
        assert decoded[0].imm == 16
        assert decoded[1].imm == -16
        assert decoded[2].op is Op.ADDSPI

    def test_conditional_branch_mnemonics(self):
        code, _ = assemble("x: beq x\nbne x\nblt x\nbhs x\n")
        decoded = decode_all(code)
        assert all(i.op is Op.BCC for i in decoded)

    def test_errors(self):
        with pytest.raises(AsmError):
            assemble("frobnicate r0\n")
        with pytest.raises(AsmError):
            assemble("mov r9, #1\n")  # high register
        with pytest.raises(AsmError):
            assemble(".unknown 3\n")
        with pytest.raises(AsmError):
            assemble("push r4\n")  # missing braces

    def test_undefined_symbol_is_a_link_error(self):
        from repro.isa.encoding import EncodingError
        with pytest.raises(EncodingError):
            assemble("b nowhere\n")


class TestLayout:
    def test_layout_is_symbol_free(self):
        items = Assembler().parse("x: nop\nbl far_away\n.word x\n")
        placed, symbols, size = layout_items(items, 0x200)
        assert symbols["x"] == 0x200
        assert size == 2 + 4 + 2 + 4  # nop + bl + align pad + word

    def test_wordref_alignment(self):
        items = [ins.nop(), WordRef("sym")]
        placed, _symbols, size = layout_items(items, 0)
        addrs = [addr for addr, _ in placed]
        assert size == 8            # nop, 2 pad, 4 data
        assert addrs[-1] % 4 == 0

    def test_extern_resolution(self):
        code, _ = assemble("bl callee\n", base_addr=0x100,
                           extern=lambda s: 0x4000 if s == "callee" else
                           None)
        decoded = decode_all(code, 0x100)
        assert decoded[0].target == 0x4000


class TestRelaxation:
    def test_short_branch_untouched(self):
        from repro.isa.opcodes import Cond
        items = [Label("top"), ins.nop(),
                 ins.bcc(Cond.EQ, "top")]
        relaxed = relax_branches(items, prefix="t")
        assert sum(1 for i in relaxed if isinstance(i, Label)) == 1

    def test_long_branch_relaxed(self):
        from repro.isa.opcodes import Cond
        items = [Label("top")]
        items += [ins.nop() for _ in range(300)]  # 600 bytes
        items.append(ins.bcc(Cond.EQ, "top"))
        relaxed = relax_branches(items, prefix="t")
        ops = [i.op for i in relaxed if hasattr(i, "op")]
        assert Op.B in ops  # inverted-condition + unconditional pair
        # The whole stream must still assemble.
        code, symbols = assemble_items(relaxed)
        assert symbols["top"] == 0

    def test_relaxed_condition_inverted(self):
        from repro.isa.opcodes import Cond
        items = [Label("top")]
        items += [ins.nop() for _ in range(300)]
        items.append(ins.bcc(Cond.LT, "top"))
        relaxed = relax_branches(items, prefix="t")
        bcc = [i for i in relaxed
               if hasattr(i, "op") and i.op is Op.BCC][0]
        assert bcc.cond is Cond.GE
