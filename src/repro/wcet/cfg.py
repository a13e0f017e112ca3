"""Control-flow graph reconstruction from a linked executable.

Like aiT, the analyser works on the *binary*, not the compiler IR: basic
blocks are rediscovered by decoding reachable instructions from each
function's entry point.  Literal pools are never decoded because control
flow cannot reach them (reconstruction is reachability-driven, not a
linear sweep).

Terminators:

* ``b`` / ``bcc``  — intra-function edges (conditional: two successors);
* ``bl``           — a call; the block gets a fall-through edge and a
  ``call_target`` annotation (callee WCET is added by the analyser);
* ``bx lr`` / ``pop {.., pc}`` — function return (exit block);
* ``swi #0``       — program exit (no successors).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..isa.encoding import IllegalInstruction, decode
from ..isa.opcodes import Op
from ..link.image import Image


class CFGError(Exception):
    """The binary's control flow cannot be reconstructed."""


@dataclass
class BasicBlock:
    """A maximal straight-line instruction sequence."""

    start: int
    instrs: list = field(default_factory=list)   # (addr, Instr) pairs
    succs: list = field(default_factory=list)    # successor block addrs
    #: callee entry address if the block ends in BL
    call_target: int = None
    #: True if the block ends by returning from the function
    is_exit: bool = False

    @property
    def end(self) -> int:
        addr, instr = self.instrs[-1]
        return addr + instr.size

    def __repr__(self):
        return (f"<BB {self.start:#x}..{self.end:#x} "
                f"succs={[hex(s) for s in self.succs]}>")


@dataclass
class FunctionCFG:
    """CFG of one function."""

    name: str
    entry: int
    blocks: dict                     # start addr -> BasicBlock
    calls: set                       # callee entry addresses

    @property
    def exit_blocks(self):
        return [b for b in self.blocks.values() if b.is_exit]

    def edges(self):
        for block in self.blocks.values():
            for succ in block.succs:
                yield block.start, succ


def _decode_function(image: Image, base: int, end: int):
    """Decode reachable instructions in [base, end); returns addr->Instr."""
    instrs = {}
    work = [base]
    while work:
        addr = work.pop()
        if addr in instrs:
            continue
        if not base <= addr < end:
            raise CFGError(
                f"control flow leaves function at {addr:#x} "
                f"(function {base:#x}..{end:#x})")
        halfword = image.read_halfword(addr)
        nxt = image.read_halfword(addr + 2) if addr + 2 < end else None
        try:
            instr = decode(halfword, addr, nxt)
        except IllegalInstruction as exc:
            raise CFGError(f"cannot decode instruction: {exc}") from exc
        instrs[addr] = instr
        op = instr.op
        if op is Op.B:
            work.append(instr.target)
        elif op is Op.BCC:
            work.append(instr.target)
            work.append(addr + instr.size)
        elif op is Op.BL:
            work.append(addr + instr.size)  # call returns here
        elif op is Op.BX:
            if instr.rm != 14:
                raise CFGError(
                    f"indirect branch bx r{instr.rm} at {addr:#x} "
                    "is not analysable")
            # return: no successors
        elif op is Op.POP and instr.with_link:
            pass  # return
        elif op is Op.SWI and instr.imm == 0:
            pass  # program exit
        else:
            work.append(addr + instr.size)
    return instrs


def build_function_cfg(image: Image, name: str) -> FunctionCFG:
    """Reconstruct the CFG of the function object *name*."""
    base, end = image.function_range(name)
    instrs = _decode_function(image, base, end)

    # Leaders: entry, branch targets, and instructions after terminators.
    leaders = {base}
    for addr, instr in instrs.items():
        nxt = addr + instr.size
        if instr.op is Op.B:
            leaders.add(instr.target)
        elif instr.op is Op.BCC:
            leaders.add(instr.target)
            leaders.add(nxt)
        elif instr.op is Op.BL:
            leaders.add(nxt)  # keep calls at block ends
        elif instr.op is Op.BX or (
                instr.op is Op.POP and instr.with_link) or (
                instr.op is Op.SWI and instr.imm == 0):
            if nxt in instrs:
                leaders.add(nxt)

    blocks = {}
    calls = set()
    for leader in sorted(leaders):
        if leader not in instrs:
            continue
        block = BasicBlock(start=leader)
        addr = leader
        while addr in instrs:
            instr = instrs[addr]
            block.instrs.append((addr, instr))
            nxt = addr + instr.size
            op = instr.op
            if op is Op.B:
                block.succs = [instr.target]
                break
            if op is Op.BCC:
                if instr.target == nxt:  # branch to fall-through
                    block.succs = [nxt]
                else:
                    block.succs = [instr.target, nxt]
                break
            if op is Op.BL:
                block.call_target = instr.target
                calls.add(instr.target)
                block.succs = [nxt]
                break
            if op is Op.BX or (op is Op.POP and instr.with_link):
                block.is_exit = True
                break
            if op is Op.SWI and instr.imm == 0:
                break
            if nxt in leaders:
                block.succs = [nxt]
                break
            addr = nxt
        blocks[leader] = block

    # Validate successor integrity.
    for block in blocks.values():
        for succ in block.succs:
            if succ not in blocks:
                raise CFGError(
                    f"{name}: edge {block.start:#x} -> {succ:#x} "
                    "targets no block")
    return FunctionCFG(name=name, entry=base, blocks=blocks, calls=calls)


def build_all_cfgs(image: Image) -> dict:
    """CFGs for every code object; returns name -> FunctionCFG."""
    return {obj.name: build_function_cfg(image, obj.name)
            for obj in image.code_objects}
