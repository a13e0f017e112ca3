"""Linked executable image: what the simulator loads and the analyser reads.

An :class:`Image` carries, exactly as the paper's flow does:

* the memory segments (address + bytes) to load;
* the symbol table and per-object placement (the "map file" the automated
  annotation generation reads);
* instruction-level access notes (which object a load/store touches)
  and call notes (which array each pointer argument of a call binds);
* loop-bound flow facts resolved to header addresses.

:func:`symbol_deltas` relates two links of one program: how far each
symbol moved between them.
"""

from __future__ import annotations

import bisect
import hashlib
from dataclasses import dataclass


@dataclass(frozen=True)
class PlacedObject:
    """One memory object after placement."""

    name: str
    kind: str        # "code" | "data"
    base: int
    size: int
    region: str      # "scratchpad" | "main"
    readonly: bool = False
    element_width: int = 4

    @property
    def end(self) -> int:
        return self.base + self.size


class Image:
    """A fully linked, loadable executable."""

    def __init__(self, segments, symbols, objects, entry,
                 access_notes, loop_bounds, loop_totals=None,
                 call_notes=None):
        #: list of (base_addr, bytes) to load before execution
        #: (kept base-sorted for binary-searched reads).
        self.segments = sorted(segments, key=lambda seg: seg[0])
        #: symbol name -> absolute address (functions, globals, labels).
        self.symbols = dict(symbols)
        #: list of :class:`PlacedObject` (the map file).
        self.objects = list(objects)
        #: entry point address.
        self.entry = entry
        #: instruction address -> :class:`~repro.link.objects.AccessNote`.
        self.access_notes = dict(access_notes)
        #: ``BL`` address -> :class:`~repro.link.objects.CallNote`.
        self.call_notes = dict(call_notes or {})
        #: loop-header address -> max back edges per loop entry.
        self.loop_bounds = dict(loop_bounds)
        #: loop-header address -> max back edges per function invocation.
        self.loop_totals = dict(loop_totals or {})
        self._seg_bases = [base for base, _ in self.segments]
        self._objs_by_name = {obj.name: obj for obj in self.objects}
        self._content_key = None

    def content_key(self) -> str:
        """Stable content hash of everything analyses consume.

        Two images with the same key yield identical CFGs, data-access
        resolutions and loop bounds, so it is the root of every
        content-addressed analysis cache.
        """
        key = self._content_key
        if key is None:
            digest = hashlib.sha256()
            for base, payload in self.segments:
                digest.update(base.to_bytes(8, "little"))
                digest.update(bytes(payload))
            digest.update(repr((
                sorted(self.symbols.items()),
                [(o.name, o.kind, o.base, o.size, o.region, o.readonly,
                  o.element_width) for o in self.objects],
                self.entry,
                sorted(self.access_notes.items()),
                sorted(self.call_notes.items()),
                sorted(self.loop_bounds.items()),
                sorted(self.loop_totals.items()),
            )).encode())
            key = self._content_key = digest.hexdigest()
        return key

    # -- lookup helpers ------------------------------------------------------

    def object_named(self, name) -> PlacedObject:
        return self._objs_by_name[name]

    def object_at(self, addr):
        """The placed object containing *addr*, or None."""
        for obj in self.objects:
            if obj.base <= addr < obj.end:
                return obj
        return None

    def function_range(self, name):
        obj = self.object_named(name)
        if obj.kind != "code":
            raise ValueError(f"{name!r} is not code")
        return obj.base, obj.end

    @property
    def code_objects(self):
        return [obj for obj in self.objects if obj.kind == "code"]

    @property
    def data_objects(self):
        return [obj for obj in self.objects if obj.kind == "data"]

    def spm_bytes_used(self) -> int:
        return sum(o.size for o in self.objects if o.region == "scratchpad")

    # -- raw byte access (for decoding code and literals) ---------------------

    def read_bytes(self, addr, length) -> bytes:
        index = bisect.bisect_right(self._seg_bases, addr) - 1
        if index >= 0:
            base, payload = self.segments[index]
            if base <= addr and addr + length <= base + len(payload):
                return bytes(payload[addr - base:addr - base + length])
        raise ValueError(f"address {addr:#x} not in any image segment")

    def read_halfword(self, addr) -> int:
        return int.from_bytes(self.read_bytes(addr, 2), "little")

    def read_word(self, addr) -> int:
        return int.from_bytes(self.read_bytes(addr, 4), "little")

    # -- reporting ------------------------------------------------------------

    def map_report(self) -> str:
        """Human-readable placement map (one line per object)."""
        lines = [f"{'object':24} {'kind':5} {'region':10} "
                 f"{'base':>10} {'size':>7}"]
        for obj in sorted(self.objects, key=lambda o: o.base):
            lines.append(
                f"{obj.name:24} {obj.kind:5} {obj.region:10} "
                f"{obj.base:#10x} {obj.size:7}")
        return "\n".join(lines)


def symbol_deltas(image: Image, placed: Image) -> dict:
    """``symbol -> address in placed - address in image``.

    *image* and *placed* link one program under two placements.  The
    linker moves whole objects and nothing else, so an object's entry is
    its change of base and every label moves with the object that
    defines it.  Raises ValueError when *placed* links a different
    program (other symbols, other objects or other object sizes).
    """
    sizes = {obj.name: obj.size for obj in image.objects}
    if (placed.symbols.keys() != image.symbols.keys()
            or {obj.name: obj.size for obj in placed.objects} != sizes):
        raise ValueError("placed image links a different program")
    return {name: placed.symbols[name] - addr
            for name, addr in image.symbols.items()}
