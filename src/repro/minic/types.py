"""Type system for mini-C.

Scalar types map onto the T16 access widths that drive Table-1 timing:
``int``/``unsigned`` are 32-bit, ``short`` is a signed 16-bit halfword,
``char`` is an unsigned byte.  All values are promoted to 32 bits in
registers (the usual C integer promotion); width matters only at loads,
stores and casts.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class ScalarType:
    name: str
    width: int
    signed: bool

    def __str__(self):
        return self.name


INT = ScalarType("int", 4, True)
UNSIGNED = ScalarType("unsigned", 4, False)
SHORT = ScalarType("short", 2, True)
CHAR = ScalarType("char", 1, False)
VOID = ScalarType("void", 0, True)

_BY_NAME = {t.name: t for t in (INT, UNSIGNED, SHORT, CHAR, VOID)}


def scalar(name: str) -> ScalarType:
    return _BY_NAME[name]


@dataclass(frozen=True)
class ArrayType:
    elem: ScalarType
    size: int  # element count

    @property
    def width(self):
        return self.elem.width

    @property
    def byte_size(self):
        return self.elem.width * self.size

    def __str__(self):
        return f"{self.elem}[{self.size}]"


@dataclass(frozen=True)
class PointerType:
    elem: ScalarType

    width = 4
    signed = False

    def __str__(self):
        return f"{self.elem}*"


def is_scalar(t) -> bool:
    return isinstance(t, ScalarType) and t is not VOID


def common_signedness(a, b) -> bool:
    """C-style: the result is signed only if both operands are signed."""
    signed_a = a.signed if isinstance(a, ScalarType) else False
    signed_b = b.signed if isinstance(b, ScalarType) else False
    return signed_a and signed_b
