"""Bit-exact Python reference models of the mini-C benchmarks.

Each ``<key>_expected`` function mirrors its benchmark's algorithm at
Python level (same LCG, same integer semantics) and returns the expected
``(console lines, exit code)``.  ``repro.benchmarks`` commits those pairs;
the registry tests require model, committed pair and a simulator run of
the compiled T16 binary to agree — a strong end-to-end oracle over
compiler, linker and ISS.
"""

from __future__ import annotations

_M32 = 0xFFFFFFFF


def _s32(value: int) -> int:
    """Wrap to signed 32-bit (mini-C ``int`` semantics)."""
    value &= _M32
    return value - (1 << 32) if value & 0x80000000 else value


def _s16(value: int) -> int:
    value &= 0xFFFF
    return value - (1 << 16) if value & 0x8000 else value


class _Lcg:
    def __init__(self, seed):
        self.state = seed

    def next(self):
        self.state = _s32(self.state * 1103515245 + 12345)
        return (self.state >> 16) & 32767


# ---------------------------------------------------------------------------
# MultiSort
# ---------------------------------------------------------------------------

def multisort_expected():
    """Expected console output of multisort.mc."""
    lcg = _Lcg(2024)
    data = [lcg.next() for _ in range(64)]
    checksum = 0
    for _ in range(6):  # six sorts over the same data
        for value in sorted(data):
            checksum = _s32(checksum * 31 + value) & 1048575
    checksum = (checksum % 65521) + (checksum // 4096)
    return [str(checksum)], checksum & 255


def sort_wc_expected():
    """Expected console output of sort_wc.mc."""
    checksum = 0
    for value in range(1, 65):
        checksum = _s32(checksum * 31 + value) & 1048575
    return [str(checksum)], checksum & 255


# ---------------------------------------------------------------------------
# IMA ADPCM
# ---------------------------------------------------------------------------

_INDEX_TABLE = [-1, -1, -1, -1, 2, 4, 6, 8, -1, -1, -1, -1, 2, 4, 6, 8]
_STEP_TABLE = [
    7, 8, 9, 10, 11, 12, 13, 14, 16, 17,
    19, 21, 23, 25, 28, 31, 34, 37, 41, 45,
    50, 55, 60, 66, 73, 80, 88, 97, 107, 118,
    130, 143, 157, 173, 190, 209, 230, 253, 279, 307,
    337, 371, 408, 449, 494, 544, 598, 658, 724, 796,
    876, 963, 1060, 1166, 1282, 1411, 1552, 1707, 1878, 2066,
    2272, 2499, 2749, 3024, 3327, 3660, 4026, 4428, 4871, 5358,
    5894, 6484, 7132, 7845, 8630, 9493, 10442, 11487, 12635, 13899,
    15289, 16818, 18500, 20350, 22385, 24623, 27086, 29794, 32767,
]


def _ima_code(indata):
    valpred, index = 0, 0
    step = _STEP_TABLE[index]
    out = []
    buffer = 0
    bufferstep = True
    for val in indata:
        diff = val - valpred
        sign = 8 if diff < 0 else 0
        if sign:
            diff = -diff
        delta = 0
        vpdiff = step >> 3
        if diff >= step:
            delta = 4
            diff -= step
            vpdiff += step
        step >>= 1
        if diff >= step:
            delta |= 2
            diff -= step
            vpdiff += step
        step >>= 1
        if diff >= step:
            delta |= 1
            vpdiff += step
        valpred = valpred - vpdiff if sign else valpred + vpdiff
        valpred = max(-32768, min(32767, valpred))
        delta |= sign
        index += _INDEX_TABLE[delta]
        index = max(0, min(88, index))
        step = _STEP_TABLE[index]
        if bufferstep:
            buffer = (delta << 4) & 240
        else:
            out.append((delta & 15) | buffer)
        bufferstep = not bufferstep
    if not bufferstep:
        out.append(buffer)
    return out


def _ima_decode(codes, count):
    valpred, index = 0, 0
    step = _STEP_TABLE[index]
    out = []
    bufferstep = False
    buffer = 0
    position = 0
    for _ in range(count):
        if bufferstep:
            delta = buffer & 15
        else:
            buffer = codes[position]
            position += 1
            delta = (buffer >> 4) & 15
        bufferstep = not bufferstep
        index += _INDEX_TABLE[delta]
        index = max(0, min(88, index))
        sign = delta & 8
        delta &= 7
        vpdiff = step >> 3
        if delta & 4:
            vpdiff += step
        if delta & 2:
            vpdiff += step >> 1
        if delta & 1:
            vpdiff += step >> 2
        valpred = valpred - vpdiff if sign else valpred + vpdiff
        valpred = max(-32768, min(32767, valpred))
        step = _STEP_TABLE[index]
        out.append(valpred)
    return out


def adpcm_expected():
    """Expected console output of adpcm.mc."""
    lcg = _Lcg(54321)
    pcm_in = []
    for n in range(128):
        sample = _s16(((n & 31) << 9) - 8192 + (lcg.next() >> 3))
        pcm_in.append(sample)
    packed = _ima_code(pcm_in)
    pcm_out = _ima_decode(packed, 128)
    checksum = 0
    for n in range(64):
        checksum = _s32(checksum * 31 + packed[n]) & 1048575
    for n in range(128):
        checksum = _s32(checksum * 31 + (pcm_out[n] & 255)) & 1048575
    return [str(checksum)], checksum & 255


# ---------------------------------------------------------------------------
# G.721
# ---------------------------------------------------------------------------

_POWER2 = [1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 2048, 4096, 8192,
           16384]
_QTAB = [-124, 80, 178, 246, 300, 349, 400]
_DQLNTAB = [-2048, 4, 135, 213, 273, 323, 373, 425,
            425, 373, 323, 273, 213, 135, 4, -2048]
_WITAB = [-12, 18, 41, 64, 112, 198, 355, 1122,
          1122, 355, 198, 112, 64, 41, 18, -12]
_FITAB = [0, 0, 0, 512, 1024, 2048, 3072, 4096,
          4096, 3072, 2048, 1024, 512, 0, 0, 0]


class _G721State:
    def __init__(self):
        self.yl = 34816
        self.yu = 544
        self.dms = 0
        self.dml = 0
        self.ap = 0
        self.a = [0, 0]
        self.b = [0] * 6
        self.pk = [0, 0]
        self.dq = [32] * 6
        self.sr = [32, 32]
        self.td = 0


def _quan(val, table):
    for i, entry in enumerate(table):
        if val < entry:
            return i
    return len(table)


def _fmult(an, srn):
    anmag = an if an > 0 else (-an) & 8191
    anexp = _quan(anmag, _POWER2) - 6
    if anmag == 0:
        anmant = 32
    elif anexp >= 0:
        anmant = anmag >> anexp
    else:
        anmant = anmag << -anexp
    wanexp = anexp + ((srn >> 6) & 15) - 13
    wanmant = (anmant * (srn & 63) + 48) >> 4
    if wanexp >= 0:
        retval = 0 if wanexp > 15 else (wanmant << wanexp) & 32767
    else:
        retval = wanmant >> -wanexp
    return -retval if (an ^ srn) < 0 else retval


def _predictor_zero(state):
    total = _fmult(state.b[0] >> 2, state.dq[0])
    for i in range(1, 6):
        total += _fmult(state.b[i] >> 2, state.dq[i])
    return total


def _predictor_pole(state):
    return _fmult(state.a[1] >> 2, state.sr[1]) + \
        _fmult(state.a[0] >> 2, state.sr[0])


def _step_size(state):
    if state.ap >= 256:
        return state.yu
    y = state.yl >> 6
    dif = state.yu - y
    al = state.ap >> 2
    if dif > 0:
        y += (dif * al) >> 6
    elif dif < 0:
        y += (dif * al + 63) >> 6
    return y


def _quantize(d, y):
    dqm = -d if d < 0 else d
    exp = _quan(dqm >> 1, _POWER2)
    mant = ((dqm << 7) >> exp) & 127
    dl = (exp << 7) + mant
    dln = dl - (y >> 2)
    i = _quan(dln, _QTAB)
    if d < 0:
        return (7 << 1) + 1 - i
    if i == 0:
        return (7 << 1) + 1
    return i


def _reconstruct(sign, dqln, y):
    dql = dqln + (y >> 2)
    if dql < 0:
        return -32768 if sign else 0
    dex = (dql >> 7) & 15
    dqt = 128 + (dql & 127)
    dq = (dqt << 7) >> (14 - dex)
    return dq - 32768 if sign else dq


def _update(state, y, wi, fi, dq, sr, dqsez):
    a2p = 0
    pk0 = 1 if dqsez < 0 else 0
    mag = dq & 32767
    ylint = state.yl >> 15
    ylfrac = (state.yl >> 10) & 31
    thr1 = (32 + ylfrac) << ylint
    thr2 = 31 << 10 if ylint > 9 else thr1
    dqthr = (thr2 + (thr2 >> 1)) >> 1
    if state.td == 0 or mag <= dqthr:
        tr = 0
    else:
        tr = 1

    state.yu = _s16(y + ((wi - y) >> 5))
    if state.yu < 544:
        state.yu = 544
    elif state.yu > 5120:
        state.yu = 5120
    state.yl = _s32(state.yl + state.yu + ((-state.yl) >> 6))

    if tr == 1:
        state.a = [0, 0]
        state.b = [0] * 6
    else:
        pks1 = pk0 ^ state.pk[0]
        a2p = state.a[1] - (state.a[1] >> 7)
        if dqsez != 0:
            fa1 = state.a[0] if pks1 else -state.a[0]
            if fa1 < -8191:
                a2p -= 256
            elif fa1 > 8191:
                a2p += 255
            else:
                a2p += fa1 >> 5
            if pk0 ^ state.pk[1]:
                if a2p <= -12160:
                    a2p = -12288
                elif a2p >= 12416:
                    a2p = 12288
                else:
                    a2p -= 128
            elif a2p <= -12416:
                a2p = -12288
            elif a2p >= 12160:
                a2p = 12288
            else:
                a2p += 128
        state.a[1] = _s16(a2p)
        state.a[0] = _s16(state.a[0] - (state.a[0] >> 8))
        if dqsez != 0:
            if pks1 == 0:
                state.a[0] = _s16(state.a[0] + 192)
            else:
                state.a[0] = _s16(state.a[0] - 192)
        a1ul = 15360 - a2p
        if state.a[0] < -a1ul:
            state.a[0] = _s16(-a1ul)
        elif state.a[0] > a1ul:
            state.a[0] = _s16(a1ul)
        for cnt in range(6):
            state.b[cnt] = _s16(state.b[cnt] - (state.b[cnt] >> 8))
            if mag:
                if (dq ^ state.dq[cnt]) >= 0:
                    state.b[cnt] = _s16(state.b[cnt] + 128)
                else:
                    state.b[cnt] = _s16(state.b[cnt] - 128)

    for cnt in range(5, 0, -1):
        state.dq[cnt] = state.dq[cnt - 1]
    if mag == 0:
        state.dq[0] = 32 if dq >= 0 else -992
    else:
        exp = _quan(mag, _POWER2)
        tmp = (exp << 6) + ((mag << 6) >> exp)
        state.dq[0] = _s16(tmp) if dq >= 0 else _s16(tmp - 1024)

    state.sr[1] = state.sr[0]
    if sr == 0:
        state.sr[0] = 32
    elif sr > 0:
        exp = _quan(sr, _POWER2)
        state.sr[0] = _s16((exp << 6) + ((sr << 6) >> exp))
    elif sr > -32768:
        mag = -sr
        exp = _quan(mag, _POWER2)
        state.sr[0] = _s16((exp << 6) + ((mag << 6) >> exp) - 1024)
    else:
        state.sr[0] = -992

    state.pk[1] = state.pk[0]
    state.pk[0] = pk0
    if tr == 1:
        state.td = 0
    elif a2p < -11776:
        state.td = 1
    else:
        state.td = 0

    state.dms = _s16(state.dms + ((fi - state.dms) >> 5))
    state.dml = _s16(state.dml + (((fi << 2) - state.dml) >> 7))
    if tr == 1:
        state.ap = 256
    elif y < 1536 or state.td == 1:
        state.ap = _s16(state.ap + ((512 - state.ap) >> 4))
    else:
        tmp = (state.dms << 2) - state.dml
        if tmp < 0:
            tmp = -tmp
        if tmp >= (state.dml >> 3):
            state.ap = _s16(state.ap + ((512 - state.ap) >> 4))
        else:
            state.ap = _s16(state.ap + ((-state.ap) >> 4))


def _g721_encode(state, sl):
    sl >>= 2
    sezi = _predictor_zero(state)
    sez = sezi >> 1
    se = (sezi + _predictor_pole(state)) >> 1
    d = sl - se
    y = _step_size(state)
    i = _quantize(d, y)
    dq = _reconstruct(i & 8, _DQLNTAB[i], y)
    sr = se - (dq & 16383) if dq < 0 else se + dq
    dqsez = sr + sez - se
    _update(state, y, _WITAB[i] << 5, _FITAB[i], dq, sr, dqsez)
    return i


def _g721_decode(state, i):
    i &= 15
    sezi = _predictor_zero(state)
    sez = sezi >> 1
    se = (sezi + _predictor_pole(state)) >> 1
    y = _step_size(state)
    dq = _reconstruct(i & 8, _DQLNTAB[i], y)
    sr = se - (dq & 16383) if dq < 0 else se + dq
    dqsez = sr + sez - se
    _update(state, y, _WITAB[i] << 5, _FITAB[i], dq, sr, dqsez)
    return _s32(sr << 2)


def g721_expected():
    """Expected console output of g721.mc."""
    lcg = _Lcg(12345)
    inbuf = [_s16(lcg.next() - 16384) for _ in range(64)]
    enc = _G721State()
    dec = _G721State()
    checksum = 0
    codes = []
    for sample in inbuf:
        code = _g721_encode(enc, sample)
        codes.append(code)
        checksum = _s32(checksum * 31 + code) & 1048575
    for code in codes:
        sample = _g721_decode(dec, code)
        checksum = _s32(checksum * 31 + (sample & 255)) & 1048575
    return [str(checksum)], checksum & 255


# ---------------------------------------------------------------------------
# Extended suite (Malardalen-style kernels)
# ---------------------------------------------------------------------------

def fir_expected():
    """Expected console output of fir.mc."""
    coeffs = [-6, -4, 13, 16, -18, -41, 23, 154, 222, 154,
              23, -41, -18, 16, 13, -4, -6, 0, -6, -4,
              13, 16, -18, -41, 23, 154, 222, 154, 23, -41,
              -18, 16, 13, -4, -6]
    lcg = _Lcg(7777)
    signal = [(lcg.next() >> 4) - 1024 for _ in range(128)]
    checksum = 0
    for i in range(128):
        acc = sum(coeffs[k] * signal[i - k]
                  for k in range(35) if i - k >= 0)
        out = _s32(acc) >> 8
        checksum = _s32(checksum * 31 + out) & 1048575
    return [str(checksum)], checksum & 255


def crc_expected():
    """Expected console output of crc.mc."""
    lcg = _Lcg(31337)
    message = [lcg.next() & 255 for _ in range(64)]
    crc = 0xFFFF
    for byte in message:
        crc ^= byte << 8
        for _ in range(8):
            if crc & 0x8000:
                crc = ((crc << 1) ^ 0x1021) & 0xFFFF
            else:
                crc = (crc << 1) & 0xFFFF
    return [str(crc)], crc & 255


def matmult_expected():
    """Expected console output of matmult.mc."""
    def fill(seed):
        lcg = _Lcg(seed)
        return [_s16((lcg.next() & 255) - 128) for _ in range(144)]

    mat_a = fill(42)
    mat_b = fill(77)
    checksum = 0
    product = [0] * 144
    for i in range(12):
        for j in range(12):
            acc = sum(mat_a[i * 12 + k] * mat_b[k * 12 + j]
                      for k in range(12))
            product[i * 12 + j] = _s32(acc)
    for value in product:
        checksum = _s32(checksum * 31 + value) & 1048575
    return [str(checksum)], checksum & 255
