"""Register file definition for the T16 instruction set.

T16 mirrors the ARM7 THUMB programming model: eight general-purpose low
registers ``r0``-``r7`` visible to most instructions, plus the stack pointer
(``sp`` = r13), link register (``lr`` = r14) and program counter
(``pc`` = r15).  Registers r8-r12 exist in the register file for symmetry but
T16 code generated by the mini-C compiler never uses them.
"""

from __future__ import annotations

NUM_REGS = 16

SP = 13
LR = 14
PC = 15

#: Registers usable as operands in most T16 instructions.
LOW_REGS = tuple(range(8))

_NAMES = {SP: "sp", LR: "lr", PC: "pc"}


def reg_name(index: int) -> str:
    """Return the canonical assembly name for register *index*."""
    if not 0 <= index < NUM_REGS:
        raise ValueError(f"register index out of range: {index}")
    return _NAMES.get(index, f"r{index}")
