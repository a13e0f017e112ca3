"""Recorded dynamic access traces: execute once, replay per config.

The paper's ARMulator setup has a property this module turns into a
performance lever: the modelled core has no timing-dependent behaviour,
so the dynamic instruction/access stream of an executable is *identical*
under every memory configuration — SPM, cache shapes, deeper pipelines —
that is compatible with the image's placement.  Memory timing decides
how many cycles each access costs, never which access happens next.

A :class:`Trace` is therefore recorded **once per image** by the flat-
array execution engine (:mod:`repro.sim.engine` stays the ground truth
— the recorder is the same compiled program, just with a cost tap that
appends to the trace instead of probing tag arrays) and then served to
:mod:`repro.sim.replay`, which re-prices it under any number of
:class:`~repro.memory.hierarchy.SystemConfig` shapes at tag-array speed,
bit-identical to re-executing.

Contents, packed for tight replay loops:

* ``ops`` — the interleaved fetch/read/write stream of every access that
  reaches the cache pipeline, one ``array('Q')`` word per access:
  ``addr << 3 | tag`` with the tag encoding kind and width (fetches are
  always 2 bytes wide, so one tag suffices for them).  The second
  halfword of a 32-bit instruction (BL) carries its own tag
  (:data:`TAG_FETCH_CONT`), so every fetch entry names the pc of the
  instruction it belongs to — ``addr`` for plain fetches, ``addr - 2``
  for continuations — and replay kernels can attribute misses per
  instruction exactly like the recording engine does
  (:func:`~repro.sim.replay.replay_misses`);
* ``op_counts`` / ``spm_counts`` — per-tag totals of the main-memory
  stream and of the SPM-resident accesses.  SPM hits bypass every cache
  level and cost a fixed per-width amount, so they never need to be
  walked — aggregate counts price them in O(1) (and keep hybrid traces
  small);
* ``base_cycles`` — the config-independent cycle component: branch
  refills plus the MUL/SWI execute extras;
* ``instructions``, ``exit_code``, ``console`` — the architectural
  results every replay re-reports.

Traces are content-addressed via :meth:`~repro.link.image.Image.
content_key` through an in-process table plus an optional shared on-disk
layer (:func:`set_trace_cache_dir`), mirroring the PR-4 analysis reuse
cache; ``repro-cc trace --profile`` dumps the counters.
"""

from __future__ import annotations

from array import array

from ..memory.hierarchy import SystemConfig
from ..memory.regions import STACK_TOP
from ..store import STORE_COUNTER_KEYS, ArtifactStore, LRUCache, env_capacity
from .engine import compile_program
from .simulator import MemoryFault, SimError, Simulator

#: Access-kind tags in the packed ``ops`` stream (low 3 bits).
TAG_FETCH = 0
READ_TAGS = {1: 1, 2: 2, 4: 3}
WRITE_TAGS = {1: 4, 2: 5, 4: 6}
#: Fetch of the second halfword of a 32-bit instruction; the owning
#: instruction's pc is ``addr - 2``.  Priced exactly like TAG_FETCH.
TAG_FETCH_CONT = 7

#: Tags priced as instruction fetches (16-bit wide).
FETCH_TAGS = (TAG_FETCH, TAG_FETCH_CONT)

#: tag -> access width in bytes (fetches are 16-bit).
TAG_WIDTH = (2, 1, 2, 4, 1, 2, 4, 2)

#: Bump when the trace layout or recording semantics change: stale
#: on-disk entries then miss instead of corrupting replays.
#: trace-2: continuation fetches carry TAG_FETCH_CONT and the per-tag
#: count tuples grew to 8 entries.
#: trace-3: traces pickle in run-length-encoded form (same-line runs
#: and stride-2 fetch/data runs collapse to one record each).
_TRACE_VERSION = "trace-3"

COUNTERS = {
    "trace_hits": 0,
    "trace_misses": 0,
    "trace_disk_hits": 0,
    "trace_records": 0,
    "replay_runs": 0,
    "miss_replays": 0,
    "sweep_passes": 0,
    "sweep_points": 0,
    "grid_passes": 0,
    "grid_points": 0,
    # Which backend served each replay/sweep/grid pass
    # (:mod:`repro.sim.kernels` selection; `repro-cc trace --profile`).
    "replay_scalar": 0,
    "replay_numpy": 0,
    "sweep_scalar": 0,
    "sweep_numpy": 0,
    "grid_scalar": 0,
    "grid_numpy": 0,
    # Bounded-memory in-process layers (PR 8): evictions from the
    # trace LRU and from the per-trace kernel memos.
    "trace_evictions": 0,
    "memo_evictions": 0,
}


def _count_trace_eviction():
    COUNTERS["trace_evictions"] += 1


def _count_memo_eviction():
    COUNTERS["memo_evictions"] += 1


#: In-process trace table: bounded LRU (traces are the largest objects
#: the process holds on to; REPRO_TRACE_CACHE_CAP / 0 = unbounded).
_TRACE_CACHE = LRUCache(env_capacity("REPRO_TRACE_CACHE_CAP", 64),
                        on_evict=_count_trace_eviction)

#: Shared on-disk layer (:class:`repro.store.ArtifactStore`), or None.
_TRACE_STORE = None

#: Per-trace replay-kernel memo bound (entries are stream reductions
#: comparable in size to the trace itself; REPRO_STREAM_MEMO_CAP).
_MEMO_CAP = env_capacity("REPRO_STREAM_MEMO_CAP", 16)


def _new_memo():
    return LRUCache(_MEMO_CAP, on_evict=_count_memo_eviction)


class Trace:
    """One image's dynamic access stream plus its fixed cycle base.

    The stream has two interchangeable storage forms: the flat packed
    ``ops`` array the replay kernels walk, and a line-granular
    run-length encoding (:meth:`runs`) where consecutive accesses with
    the same tag and either an identical address or a +2-byte stride
    (straight-line fetch runs, halfword array sweeps) collapse into one
    ``(first_value, count, stride)`` record.  A run is stored in 8
    bytes — an ``int32`` delta from the previous run's first value plus
    a ``uint32`` ``count << 1 | stride`` word — so the encoding never
    exceeds the flat stream and shrinks it whenever any run is longer
    than one.  The encoding is lossless; :meth:`compact` drops the flat
    form (the ``ops`` property re-expands lazily, numpy-accelerated
    when available), and pickling stores the compact form — that is
    what shrinks the on-disk trace cache and worker-to-worker
    transfers.  Foreign ingested streams whose deltas overflow 32 bits
    stay flat (:meth:`runs` returns None).

    ``_memo`` caches config-independent stream reductions computed by
    the vectorised replay kernels (:mod:`repro.sim.kernels`): block-id
    vectors, kind masks, same-block-shortcut survivors — and the
    per-access object assignment :mod:`repro.sim.placement` derives
    placements and profiles from.  It is private to those modules,
    never pickled, and rebuilt on demand.
    """

    __slots__ = ("_ops", "_runs", "_memo", "op_counts", "spm_counts",
                 "base_cycles", "instructions", "exit_code", "console",
                 "spm_size")

    def __init__(self, ops, op_counts, spm_counts, base_cycles,
                 instructions, exit_code, console, spm_size):
        self._ops = ops
        self._runs = None
        self._memo = _new_memo()
        self.op_counts = op_counts
        self.spm_counts = spm_counts
        self.base_cycles = base_cycles
        self.instructions = instructions
        self.exit_code = exit_code
        self.console = console
        self.spm_size = spm_size

    @property
    def ops(self):
        """The flat packed stream, re-expanded from runs if compacted."""
        ops = self._ops
        if ops is None:
            ops = self._ops = _expand_runs(*self._runs)
        return ops

    def runs(self):
        """``(base, heads, packed)`` run arrays; encoded on first use.

        ``base`` is the first run's absolute packed value; ``heads[i]``
        is run *i*'s ``int32`` delta from run *i-1*'s first value
        (``heads[0]`` is 0); ``packed[i]`` is ``count << 1 | (1 if the
        address strides by 2 per repeat)``.  Returns None when the
        stream does not encode (a foreign trace whose deltas overflow
        32 bits) — the flat form is kept then.
        """
        if self._runs is None:
            self._runs = _compress_ops(self.ops) or _NO_RUNS
        return None if self._runs is _NO_RUNS else self._runs

    def iter_runs(self):
        """Yield ``(first_value, count, stride_flag)`` per run.

        Unencodable streams fall back to one singleton run per op.
        """
        runs = self.runs()
        if runs is None:
            for value in self.ops:
                yield value, 1, 0
            return
        base, heads, packed = runs
        value = base
        for head, record in zip(heads, packed):
            value += head
            yield value, record >> 1, record & 1

    def compact(self) -> "Trace":
        """Keep only the run-length form; ``ops`` re-expands lazily."""
        if self.runs() is not None:
            self._ops = None
        return self

    def __getstate__(self):
        rest = (self.op_counts, self.spm_counts, self.base_cycles,
                self.instructions, self.exit_code, self.console,
                self.spm_size)
        runs = self.runs()
        if runs is None:
            return ("flat", self._ops) + rest
        return ("runs",) + runs + rest

    def __setstate__(self, state):
        if state[0] == "runs":
            self._ops = None
            self._runs = state[1:4]
            rest = state[4:]
        else:
            self._ops = state[1]
            self._runs = _NO_RUNS
            rest = state[2:]
        (self.op_counts, self.spm_counts, self.base_cycles,
         self.instructions, self.exit_code, self.console,
         self.spm_size) = rest
        self._memo = _new_memo()

    @property
    def accesses(self) -> int:
        """Total dynamic accesses, SPM-resident ones included."""
        return sum(self.op_counts) + sum(self.spm_counts)

    def counts_by_kind(self):
        """``(fetches, reads, writes)`` over the whole stream."""
        totals = [a + b for a, b in zip(self.op_counts, self.spm_counts)]
        return (totals[0] + totals[7], sum(totals[1:4]), sum(totals[4:7]))


#: Address stride of a packed run record, in ``addr << 3`` units: a
#: +2-byte stride (consecutive halfword fetches, halfword array walks)
#: is +16 on the packed value, tag bits untouched.
_RUN_STRIDE = 16

#: Sentinel stored in ``Trace._runs`` when the stream does not encode.
_NO_RUNS = object()

_HEAD_MIN = -(1 << 31)
_HEAD_MAX = (1 << 31) - 1


def _compress_ops(ops):
    """Greedy lossless RLE into ``(base, heads, packed)`` delta arrays.

    8 bytes per run: the ``int32`` delta of the run's first value from
    the previous run's first value, and ``count << 1 | stride`` as
    ``uint32``.  Returns None when a delta or count overflows 32 bits
    (only possible for ingested foreign streams) — callers keep the
    flat form then.
    """
    heads = array("i")
    packed = array("I")
    if heads.itemsize != 4 or packed.itemsize != 4:  # pragma: no cover
        return None
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


def _expand_runs(base, heads, packed):
    """Decode :func:`_compress_ops` output back into a flat stream."""
    from . import kernels
    if kernels.have_numpy():
        return kernels.expand_runs(base, heads, packed)
    ops = array("Q")
    extend = ops.extend
    append = ops.append
    first = base
    for head, record in zip(heads, packed):
        first += head
        count = record >> 1
        if record & 1:
            extend(range(first, first + count * _RUN_STRIDE,
                         _RUN_STRIDE))
        elif count == 1:
            append(first)
        else:
            extend([first] * count)
    return ops


class _TraceTap:
    """Hierarchy stand-in for the engine: records accesses at zero cost.

    Exposes the same two factories the engine compiles against
    (:meth:`fetch_fast_factory` / :meth:`data_fast_ops`); every closure
    appends the access to the packed stream (or bumps the SPM-resident
    counter) and returns 0 cycles, so the engine's cycle box accumulates
    exactly the config-independent base: refills and execute extras.
    """

    def __init__(self, spm_end: int, cont_addrs=frozenset()):
        self.spm_end = spm_end
        self.cont_addrs = cont_addrs
        self.ops = array("Q")
        self.spm_counts = [0] * 8

    def fetch_fast_factory(self):
        spm_end = self.spm_end
        cont_addrs = self.cont_addrs
        append = self.ops.append
        spm_counts = self.spm_counts

        def make(addr):
            tag = TAG_FETCH_CONT if addr in cont_addrs else TAG_FETCH
            if 0 <= addr < spm_end:
                def fetch():
                    spm_counts[tag] += 1
                    return 0
                return fetch
            packed = (addr << 3) | tag

            def fetch():
                append(packed)
                return 0
            return fetch
        return make

    def data_fast_ops(self):
        spm_end = self.spm_end
        append = self.ops.append
        spm_counts = self.spm_counts
        read_tags, write_tags = READ_TAGS, WRITE_TAGS

        def dread(addr, width):
            if 0 <= addr < spm_end:
                spm_counts[read_tags[width]] += 1
            else:
                append((addr << 3) | read_tags[width])
            return 0

        def dwrite(addr, width):
            if 0 <= addr < spm_end:
                spm_counts[write_tags[width]] += 1
            else:
                append((addr << 3) | write_tags[width])
            return 0

        return dread, dwrite


def record_trace(image, spm_size: int = None,
                 max_steps: int = 50_000_000) -> Trace:
    """Execute *image* once on the engine and record its access stream.

    *spm_size* is the scratchpad capacity the image was linked against
    (``None`` derives it from the image's own placement); it fixes the
    SPM/main address split, which every compatible replay config shares
    by construction — cache shapes behind that split are free to vary.
    """
    if spm_size is None:
        spm_size = _image_spm_size(image)
    config = (SystemConfig.scratchpad(spm_size) if spm_size
              else SystemConfig.uncached())
    sim = Simulator(image, config)
    cont_addrs = frozenset(addr + 2 for addr, instr in sim.code.items()
                           if instr.size == 4)
    tap = _TraceTap(spm_size, cont_addrs)
    program = compile_program(sim.code, sim.ram, tap, sim.regs,
                              sim._spm_limit, SimError, MemoryFault)
    regs = sim.regs
    regs[13] = STACK_TOP
    regs[14] = 0
    base_cycles, steps, exit_code = program.run(image.entry, max_steps)
    op_counts = [0] * 8
    for value in tap.ops:
        op_counts[value & 7] += 1
    COUNTERS["trace_records"] += 1
    return Trace(ops=tap.ops, op_counts=tuple(op_counts),
                 spm_counts=tuple(tap.spm_counts),
                 base_cycles=base_cycles, instructions=steps,
                 exit_code=exit_code, console=tuple(program.console),
                 spm_size=spm_size)


def _image_spm_size(image) -> int:
    """Smallest SPM capacity covering the image's scratchpad objects."""
    return max((obj.end for obj in image.objects
                if obj.region == "scratchpad"), default=0)


# -- the content-addressed trace cache --------------------------------------

def set_trace_cache_dir(path, max_bytes=None):
    """Enable (or with None disable) the shared on-disk trace layer.

    The layer is a checksummed, corruption-quarantining
    :class:`repro.store.ArtifactStore`; *max_bytes* optionally caps it
    with mtime-LRU garbage collection.
    """
    global _TRACE_STORE
    _TRACE_STORE = (None if path is None else
                    ArtifactStore(path, suffix=".trace.pkl",
                                  max_bytes=max_bytes))


def set_trace_store(store):
    """Install a prebuilt store object as the on-disk trace layer.

    The cluster tier passes a
    :class:`repro.store.ShardedArtifactStore` here; anything with the
    ``load`` / ``store`` / ``counters`` surface works.  ``None``
    disables the layer, same as ``set_trace_cache_dir(None)``.
    """
    global _TRACE_STORE
    _TRACE_STORE = store


def trace_cache_dir():
    return None if _TRACE_STORE is None else _TRACE_STORE.root


def trace_store():
    """The on-disk :class:`~repro.store.ArtifactStore`, or None."""
    return _TRACE_STORE


def set_trace_cache_capacity(capacity):
    """Bound (or with None unbound) the in-process trace table."""
    _TRACE_CACHE.set_capacity(capacity)


def set_stream_memo_capacity(capacity):
    """Per-trace kernel-memo bound for traces created afterwards."""
    global _MEMO_CAP
    _MEMO_CAP = capacity


def clear_trace_caches():
    """Drop every in-memory trace (the disk layer is untouched)."""
    _TRACE_CACHE.clear()


def trace_counters() -> dict:
    """The in-process counters plus the disk store's, one flat dict."""
    merged = dict(COUNTERS)
    store_counts = (_TRACE_STORE.counters if _TRACE_STORE is not None
                    else dict.fromkeys(STORE_COUNTER_KEYS, 0))
    for key in STORE_COUNTER_KEYS:
        merged[f"trace_store_{key}"] = store_counts[key]
    return merged


def trace_for(image, spm_size: int = None,
              max_steps: int = 50_000_000) -> Trace:
    """The recorded trace for *image*, recording on first use.

    Keyed by the image content hash (plus the SPM split), so relinking
    the same program — or any placement change at all — invalidates
    automatically.  A trace recorded under a larger step budget is valid
    under a smaller one only if the run fit; :func:`~repro.sim.replay.
    replay` re-checks ``instructions <= max_steps`` and raises the same
    runaway error the engine would.
    """
    if spm_size is None:
        spm_size = _image_spm_size(image)
    key = (_TRACE_VERSION, image.content_key(), spm_size)
    trace = _TRACE_CACHE.get(key)
    if trace is not None:
        COUNTERS["trace_hits"] += 1
        return trace
    if _TRACE_STORE is not None:
        # The store verifies the envelope checksum before unpickling;
        # corrupt entries are quarantined and counted, never served.
        trace = _TRACE_STORE.load(key)
        if trace is not None:
            _TRACE_CACHE[key] = trace
            COUNTERS["trace_hits"] += 1
            COUNTERS["trace_disk_hits"] += 1
            return trace
    COUNTERS["trace_misses"] += 1
    trace = record_trace(image, spm_size, max_steps)
    _TRACE_CACHE[key] = trace
    if _TRACE_STORE is not None:
        _TRACE_STORE.store(key, trace)
    return trace
