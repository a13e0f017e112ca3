"""T16: a THUMB-like 16-bit instruction set (ISA layer).

Public surface:

* :mod:`repro.isa.opcodes` — :class:`Op`, :class:`Cond` and opcode metadata
* :mod:`repro.isa.instruction` — :class:`Instr` plus operand-checked factories
* :mod:`repro.isa.encoding` — :func:`encode` / :func:`decode`
* :mod:`repro.isa.assembler` — item streams (labels, data, word
  references) and their two-pass layout and encoding
* :mod:`repro.isa.disassembler` — :func:`format_instr`

There is no text-assembly parser: the compiler emits instructions
directly, and the parser the tests write hand-made programs with lives
in ``tests/assembler.py``.
"""

from .opcodes import Cond, Op
from .instruction import Instr
from .encoding import EncodingError, IllegalInstruction, decode, encode
from .assembler import Data, Label
from .disassembler import disassemble_words, format_instr
from .registers import LR, PC, SP, reg_name

__all__ = [
    "Cond", "Op", "Instr", "EncodingError", "IllegalInstruction",
    "decode", "encode", "Data", "Label",
    "disassemble_words", "format_instr",
    "LR", "PC", "SP", "reg_name",
]
