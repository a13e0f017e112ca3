"""The trace run-length encoder as a loop: the numpy encoder's oracle.

:func:`compress_ops` walks the packed stream one op at a time and
emits the same greedy ``(base, heads, packed)`` runs that
:func:`repro.sim.kernels.encode_runs` computes in blocks.
"""

from array import array

#: A +2-byte stride is +16 on the packed ``addr << 3 | tag`` value.
_RUN_STRIDE = 16

_HEAD_MIN = -(1 << 31)
_HEAD_MAX = (1 << 31) - 1


def compress_ops(ops):
    """Greedy lossless RLE into ``(base, heads, packed)`` delta arrays,
    or None when a delta or count overflows 32 bits."""
    heads = array("i")
    packed = array("I")
    n = len(ops)
    if not n:
        return 0, heads, packed
    base = ops[0]
    prev = base
    i = 0
    while i < n:
        first = ops[i]
        k = i + 1
        step = 0
        if k < n:
            delta = ops[k] - first
            if delta == 0 or delta == _RUN_STRIDE:
                step = delta
                expect = first + 2 * step
                k += 1
                while k < n and ops[k] == expect:
                    expect += step
                    k += 1
        head = first - prev
        if not (_HEAD_MIN <= head <= _HEAD_MAX and k - i <= _HEAD_MAX):
            return None
        heads.append(head)
        packed.append(((k - i) << 1) | (1 if step else 0))
        prev = first
        i = k
    return base, heads, packed
