"""Linker: place memory objects, resolve symbols, produce an Image.

The allocation decision (which objects live in scratchpad) is an *input*,
computed by :mod:`repro.spm`; the linker mechanically honours it.  This
mirrors the paper's flow, where the compiler/ILP stage decides placement
and the toolchain fixes every address at link time — the root cause of the
scratchpad's predictability.

Layout:

* scratchpad objects are packed from the SPM base upwards;
* main-memory objects are packed from the main base upwards, code first
  (so instruction addresses stay compact), then data;
* all objects are 4-byte aligned.
"""

from __future__ import annotations

from ..isa.assembler import encode_placed, layout_items
from ..isa.encoding import EncodingError
from ..memory.regions import MAIN_BASE, SPM_BASE
from .image import Image, PlacedObject
from .objects import CallNote, DataObject, FunctionCode, Program


class LinkError(Exception):
    """Objects do not fit or symbols cannot be resolved."""


def link(program: Program, spm_size: int = 0, spm_objects=()) -> Image:
    """Link *program* into an :class:`Image`.

    *spm_objects* is the set of object names placed in the scratchpad;
    every other object goes to main memory.  ``spm_size`` is validated
    against the packed SPM usage.
    """
    spm_set = set(spm_objects)
    known = {f.name for f in program.functions}
    known |= {g.name for g in program.globals}
    unknown = spm_set - known
    if unknown:
        raise LinkError(f"unknown objects in SPM allocation: {sorted(unknown)}")
    if spm_set and not spm_size:
        raise LinkError("SPM allocation given but spm_size is 0")

    # -- phase 1: lay out each object locally (sizes + local symbols) --------
    laid_out = {}
    for func in program.functions:
        placed, local_syms, size = layout_items(func.items, 0)
        laid_out[func.name] = (placed, local_syms, size)

    # -- phase 2: assign bases -------------------------------------------------
    def align4(value):
        return (value + 3) & ~3

    spm_cursor = SPM_BASE
    main_cursor = MAIN_BASE
    bases = {}

    def place(name, size, to_spm):
        nonlocal spm_cursor, main_cursor
        if to_spm:
            base = align4(spm_cursor)
            spm_cursor = base + size
        else:
            base = align4(main_cursor)
            main_cursor = base + size
        bases[name] = base
        return base

    objects = []
    # Code first (main-memory code stays compact near the base), then data.
    for func in program.functions:
        _placed, _syms, size = laid_out[func.name]
        to_spm = func.name in spm_set
        base = place(func.name, size, to_spm)
        objects.append(PlacedObject(
            name=func.name, kind="code", base=base, size=size,
            region="scratchpad" if to_spm else "main"))
    for glob in program.globals:
        to_spm = glob.name in spm_set
        base = place(glob.name, glob.size, to_spm)
        objects.append(PlacedObject(
            name=glob.name, kind="data", base=base, size=glob.size,
            region="scratchpad" if to_spm else "main",
            readonly=glob.readonly, element_width=glob.element_width))

    spm_used = spm_cursor - SPM_BASE
    if spm_used > spm_size:
        raise LinkError(
            f"SPM overflow: allocation needs {spm_used} bytes, "
            f"capacity is {spm_size}")

    # -- phase 3: build the global symbol table ---------------------------------
    symbols = dict(bases)
    for func in program.functions:
        _placed, local_syms, _size = laid_out[func.name]
        base = bases[func.name]
        for label, offset in local_syms.items():
            if label in symbols and label not in (func.name,):
                raise LinkError(f"duplicate label {label!r}")
            symbols[label] = base + offset

    def resolve(name):
        try:
            return symbols[name]
        except KeyError:
            raise EncodingError(f"undefined symbol {name!r}") from None

    # -- phase 4: encode and collect annotations --------------------------------
    segments = []
    access_notes = {}
    call_notes = {}
    loop_bounds = {}
    loop_totals = {}
    for func in program.functions:
        placed_at_zero, _syms, _size = laid_out[func.name]
        base = bases[func.name]
        placed = [(addr + base, item) for addr, item in placed_at_zero]
        code = encode_placed(placed, resolve)
        segments.append((base, code))
        for addr, item in placed:
            note = getattr(item, "note", None)
            if isinstance(note, CallNote):
                call_notes[addr] = note
            elif note is not None:
                access_notes[addr] = note
        for table, out in ((func.loop_bounds, loop_bounds),
                           (func.loop_totals, loop_totals)):
            for label, bound in table.items():
                try:
                    header = symbols[label]
                except KeyError:
                    raise LinkError(
                        f"loop bound for unknown label {label!r} "
                        f"in {func.name}") from None
                out[header] = bound
    for glob in program.globals:
        segments.append((bases[glob.name], glob.initial_bytes()))

    if program.entry not in symbols:
        raise LinkError(f"entry symbol {program.entry!r} undefined")

    return Image(
        segments=segments,
        symbols=symbols,
        objects=objects,
        entry=symbols[program.entry],
        access_notes=access_notes,
        call_notes=call_notes,
        loop_bounds=loop_bounds,
        loop_totals=loop_totals,
    )
