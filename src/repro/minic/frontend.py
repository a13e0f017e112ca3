"""Compiler driver: mini-C source -> relocatable :class:`Program`.

Pipeline: parse -> sema -> per-function codegen -> program assembly with
the runtime (``_start`` stub and, when division is used, the software
divide helpers — ARM7 has no divide instruction, so ``/`` and ``%`` lower
to calls, exactly as on the real platform).  Unreachable functions are
dropped so the allocator only sees objects that can execute.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..isa import instruction as ins
from ..isa.assembler import Label
from ..link.objects import DataObject, FunctionCode, Program
from .codegen import FunctionCodegen
from .parser import parse
from .sema import SemaError, analyze
from .types import VOID, ArrayType

#: Software division/modulo runtime, in mini-C itself (restoring
#: shift-subtract division; the loops are automatically bounded at 32).
RUNTIME_SOURCE = """
unsigned __divu(unsigned n, unsigned d) {
    unsigned q = 0;
    unsigned r = 0;
    int i;
    for (i = 31; i >= 0; i = i - 1) {
        r = (r << 1) | ((n >> i) & 1u);
        if (r >= d) {
            r = r - d;
            q = q | (1u << i);
        }
    }
    return q;
}

unsigned __modu(unsigned n, unsigned d) {
    unsigned r = 0;
    int i;
    for (i = 31; i >= 0; i = i - 1) {
        r = (r << 1) | ((n >> i) & 1u);
        if (r >= d) {
            r = r - d;
        }
    }
    return r;
}

int __divs(int n, int d) {
    int negative = 0;
    unsigned un;
    unsigned ud;
    unsigned q;
    if (n < 0) { un = (unsigned)(0 - n); negative = !negative; }
    else { un = (unsigned)n; }
    if (d < 0) { ud = (unsigned)(0 - d); negative = !negative; }
    else { ud = (unsigned)d; }
    q = __divu(un, ud);
    if (negative) { return 0 - (int)q; }
    return (int)q;
}

int __mods(int n, int d) {
    unsigned un;
    unsigned ud;
    unsigned r;
    if (n < 0) { un = (unsigned)(0 - n); } else { un = (unsigned)n; }
    if (d < 0) { ud = (unsigned)(0 - d); } else { ud = (unsigned)d; }
    r = __modu(un, ud);
    if (n < 0) { return 0 - (int)r; }
    return (int)r;
}
"""


@dataclass
class CompiledProgram:
    """Compiler output: the linkable program plus analysis results."""

    program: Program
    analyzer: object

    @property
    def functions(self):
        return self.program.functions

    @property
    def globals(self):
        return self.program.globals


def _start_stub(entry: str) -> FunctionCode:
    """The boot stub: call the entry function, exit with its result."""
    items = [Label("_start"), ins.bl(entry), ins.swi(0)]
    return FunctionCode("_start", items)


def _global_payload(symbol) -> bytes:
    gtype = symbol.type
    if isinstance(gtype, ArrayType):
        width = gtype.elem.width
        payload = bytearray(gtype.byte_size)
        for index, value in enumerate(symbol.init or []):
            payload[index * width:(index + 1) * width] = (
                value & ((1 << (8 * width)) - 1)).to_bytes(width, "little")
        return bytes(payload)
    width = gtype.width
    value = symbol.init or 0
    return (value & ((1 << (8 * width)) - 1)).to_bytes(width, "little")


def _reachable_functions(analyzer, entry: str) -> set:
    seen = set()
    work = [entry]
    while work:
        name = work.pop()
        if name in seen or name not in analyzer.infos:
            continue
        seen.add(name)
        work.extend(analyzer.infos[name].calls)
    return seen


def compile_source(source: str, entry: str = "main") -> CompiledProgram:
    """Compile mini-C *source* into a linkable program.

    The program's entry point is the ``_start`` stub, which calls *entry*
    and exits with its return value.
    """
    unit = parse(source + RUNTIME_SOURCE)
    analyzer = analyze(unit)
    if entry not in analyzer.functions:
        raise SemaError(f"entry function {entry!r} not defined")
    if analyzer.functions[entry].param_types:
        # _start calls the entry with no arguments.
        raise SemaError(f"entry function {entry!r} must take no "
                        "parameters")
    if analyzer.functions[entry].ret_type is VOID:
        # _start exits with r0, which a void entry never sets.
        analyzer.reads_unset = True

    reachable = _reachable_functions(analyzer, entry)
    functions = [_start_stub(entry)]
    for func in unit.functions:
        if func.name not in reachable:
            continue
        info = analyzer.infos[func.name]
        functions.append(FunctionCodegen(analyzer, info).generate())

    globals_ = [
        DataObject(
            name=symbol.name,
            payload=_global_payload(symbol),
            align=4,
            readonly=symbol.const,
            element_width=(symbol.type.elem.width
                           if isinstance(symbol.type, ArrayType)
                           else symbol.type.width),
        )
        for symbol in analyzer.globals.values()
    ]

    program = Program(functions=functions, globals=globals_, entry="_start")
    return CompiledProgram(program=program, analyzer=analyzer)
