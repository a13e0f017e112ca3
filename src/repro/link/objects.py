"""Pre-link program model: relocatable memory objects.

The paper's allocation granularity is **functions and global data
elements** ("memory objects").  The compiler therefore emits one
:class:`FunctionCode` per function (instructions + its literal pool) and
one :class:`DataObject` per global, and the linker is free to place each
object in scratchpad or main memory independently — the property that
makes compile-time SPM allocation possible at all.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from ..isa.assembler import layout_items


@dataclass(frozen=True)
class AccessNote:
    """Compiler-known target(s) of one load/store instruction.

    *targets* is a tuple of ``(symbol, offset_lo, offset_hi)`` entries: the
    access touches one of the named objects, somewhere in the given byte
    range relative to that object (an exact scalar access has
    ``offset_hi - offset_lo == width``; an unknown array index spans the
    whole object; a pointer parameter carries one entry per array it may
    be bound to).  ``stack=True`` marks an sp-relative access, which the
    WCET analyser bounds with its stack-depth analysis.  An empty note
    (no targets, not stack) means "address unknown" and forces the
    analyser's worst-case treatment.  *param* is the index of the
    pointer parameter an access goes through, None for any other access;
    the :class:`CallNote` of each call says which array it is bound to.

    These notes are the automated equivalent of the paper's "range of
    possible addresses for those array accesses" annotations.
    """

    targets: tuple = ()
    stack: bool = False
    param: Optional[int] = None

    @classmethod
    def exact(cls, symbol, offset, width):
        return cls(targets=((symbol, offset, offset + width),))

    @classmethod
    def whole_object(cls, symbol, size):
        return cls(targets=((symbol, 0, size),))

    @classmethod
    def through(cls, param, entries):
        return cls(targets=tuple(entries), param=param)

    @classmethod
    def unknown(cls):
        return cls()


@dataclass(frozen=True)
class CallNote:
    """Compiler-known bindings of one call's (``BL``'s) pointer arguments.

    *bindings* holds one ``(param, source)`` entry per pointer parameter
    of the callee: *source* is the name of the global array passed, or
    the index of the caller's own pointer parameter that the call
    forwards.  Every call the compiler emits carries a note, so the notes
    also list the program's call sites.
    """

    bindings: tuple = ()


class FunctionCode:
    """One compiled function: code items, literal pool, flow facts."""

    def __init__(self, name, items, loop_bounds=None, loop_totals=None):
        from ..isa.assembler import relax_branches
        self.name = name
        #: Label/Instr/Data/WordRef stream (literal pool included);
        #: conditional branches are range-relaxed on construction.
        self.items = relax_branches(list(items), prefix=name)
        #: Loop-header label -> max back edges per loop entry (flow facts
        #: the compiler proves or #pragma loopbound supplies).
        self.loop_bounds = dict(loop_bounds or {})
        #: Loop-header label -> max back edges per function invocation
        #: (#pragma loopbound_total; exact for triangular nests).
        self.loop_totals = dict(loop_totals or {})
        self._size = None

    @property
    def size(self) -> int:
        """Byte size (layout-invariant, so cacheable)."""
        if self._size is None:
            _placed, _symbols, size = layout_items(self.items, 0)
            self._size = size
        return self._size

    def __repr__(self):
        return f"<FunctionCode {self.name} {self.size}B>"


class DataObject:
    """One global data element (scalar or array)."""

    def __init__(self, name, payload=None, size=None, align=4,
                 readonly=False, element_width=4):
        if payload is None and size is None:
            raise ValueError("data object needs payload or size")
        self.name = name
        self.payload = bytes(payload) if payload is not None else None
        self._size = size if size is not None else len(self.payload)
        self.align = align
        self.readonly = readonly
        #: Element width in bytes (drives Table-1 access timing annotation).
        self.element_width = element_width

    @property
    def size(self) -> int:
        return self._size

    def initial_bytes(self) -> bytes:
        if self.payload is not None:
            return self.payload
        return b"\0" * self._size

    def __repr__(self):
        kind = "ro" if self.readonly else "rw"
        return f"<DataObject {self.name} {self.size}B {kind}>"


@dataclass
class Program:
    """A complete pre-link program (compiler output)."""

    functions: list = field(default_factory=list)
    globals: list = field(default_factory=list)
    entry: str = "_start"

    def function(self, name) -> FunctionCode:
        for func in self.functions:
            if func.name == name:
                return func
        raise KeyError(f"no function {name!r}")

    def data(self, name) -> DataObject:
        for obj in self.globals:
            if obj.name == name:
                return obj
        raise KeyError(f"no global {name!r}")

    def memory_objects(self):
        """All allocatable objects as (name, kind, size) tuples."""
        rows = [(f.name, "code", f.size) for f in self.functions]
        rows += [(g.name, "data", g.size) for g in self.globals]
        return rows
