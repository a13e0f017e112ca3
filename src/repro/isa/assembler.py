"""Item streams and their two-pass assembly for T16.

The mini-C compiler emits :class:`~repro.isa.instruction.Instr` objects
directly, interleaved with :class:`Label`, :class:`Data`, :class:`Align`
and :class:`WordRef` items.  :func:`relax_branches` rewrites conditional
branches that fall out of range, :func:`layout_items` assigns addresses
(pass A) and :func:`encode_placed` encodes the placed stream (pass B);
the linker runs the passes over whole programs.  (The text parser the
tests write hand-made programs with lives in ``tests/assembler.py``.)
"""

from __future__ import annotations

from .encoding import encode


class Label:
    """A position marker inside an assembled item stream."""

    __slots__ = ("name",)

    def __init__(self, name):
        self.name = name

    def __repr__(self):
        return f"<Label {self.name}>"


class Data:
    """Raw bytes (constants, tables) inside an item stream."""

    __slots__ = ("payload", "align")

    def __init__(self, payload, align=1):
        self.payload = bytes(payload)
        self.align = align

    def __repr__(self):
        return f"<Data {len(self.payload)}B align={self.align}>"


class Align:
    """Alignment request inside an item stream."""

    __slots__ = ("boundary",)

    def __init__(self, boundary):
        self.boundary = boundary


class WordRef:
    """A 32-bit data word holding ``address_of(symbol) + addend``.

    Used for literal-pool entries that refer to linker-placed objects
    (the moral equivalent of a data relocation).
    """

    __slots__ = ("symbol", "addend")

    align = 4

    def __init__(self, symbol, addend=0):
        self.symbol = symbol
        self.addend = addend

    def resolve_payload(self, resolve) -> bytes:
        value = (resolve(self.symbol) + self.addend) & 0xFFFFFFFF
        return value.to_bytes(4, "little")

    def __repr__(self):
        if self.addend:
            return f"<WordRef {self.symbol}+{self.addend}>"
        return f"<WordRef {self.symbol}>"


def layout_items(items, base_addr=0):
    """Assign addresses to an item stream (pass A of assembly).

    Returns ``(placed, symbols, size)``: *placed* is a list of
    ``(addr, item)`` pairs (padding materialised as :class:`Data`),
    *symbols* maps locally defined labels to absolute addresses, *size* is
    the total byte size.  Layout never depends on symbol values, so it can
    run before any symbol is resolved — this is what lets the linker size
    sections first and place them second.
    """
    symbols = {}
    addr = base_addr
    placed = []

    def pad_to(align):
        nonlocal addr
        pad = (-addr) % align
        if pad:
            placed.append((addr, Data(b"\0" * pad)))
            addr += pad

    for item in items:
        if isinstance(item, Label):
            symbols[item.name] = addr
        elif isinstance(item, Align):
            pad_to(item.boundary)
        elif isinstance(item, WordRef):
            pad_to(4)
            placed.append((addr, item))
            addr += 4
        elif isinstance(item, Data):
            pad_to(item.align)
            placed.append((addr, item))
            addr += len(item.payload)
        else:  # instruction
            pad_to(2)
            placed.append((addr, item))
            addr += item.size
    return placed, symbols, addr - base_addr


def encode_placed(placed, resolve):
    """Encode a placed item stream (pass B).  Returns raw bytes."""
    blob = bytearray()
    expected = placed[0][0] if placed else 0
    for item_addr, item in placed:
        assert item_addr == expected, "layout/encode address drift"
        if isinstance(item, WordRef):
            payload = item.resolve_payload(resolve)
        elif isinstance(item, Data):
            payload = item.payload
        else:
            payload = bytearray()
            for halfword in encode(item, item_addr, resolve):
                payload += halfword.to_bytes(2, "little")
        blob += payload
        expected = item_addr + len(payload)
    return bytes(blob)


def relax_branches(items, prefix="relax"):
    """Rewrite out-of-range conditional branches (THUMB-style relaxation).

    A ``bcc target`` whose offset exceeds the signed-8 encoding becomes::

        b<inv-cc> .L<prefix>_rx<n>
        b target
        .L<prefix>_rx<n>:

    Layout is iterated until stable, since each rewrite grows the code and
    may push other branches out of range.  *prefix* keeps the generated
    labels unique when several item streams are later linked together.
    """
    from .instruction import Instr
    from .opcodes import COND_INVERSE, Op

    items = list(items)
    counter = 0
    while True:
        placed, symbols, _size = layout_items(items, 0)
        addr_of = {id(item): addr for addr, item in placed}
        new_items = []
        changed = False
        for item in items:
            if (isinstance(item, Instr) and item.op is Op.BCC
                    and isinstance(item.target, str)
                    and item.target in symbols):
                offset = (symbols[item.target]
                          - (addr_of[id(item)] + 4)) // 2
                if not -128 <= offset <= 127:
                    counter += 1
                    skip = f".L{prefix}_rx{counter}"
                    new_items.append(Instr(Op.BCC,
                                           cond=COND_INVERSE[item.cond],
                                           target=skip))
                    new_items.append(Instr(Op.B, target=item.target))
                    new_items.append(Label(skip))
                    changed = True
                    continue
            new_items.append(item)
        items = new_items
        if not changed:
            return items
