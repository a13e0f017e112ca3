"""Scratchpad placements priced from the baseline trace.

The linker moves whole memory objects between regions and changes
nothing else: every function and global keeps its size and its bytes,
each object is laid out on its own, and code reaches other objects only
through literal-pool addresses and relative calls.  An image linked with
a scratchpad allocation therefore executes the baseline image's
instruction stream access for access, every access moved by its
object's change of base.  Memory timing on this core is address-range
timing (Table 1; the same pricing aiT's memory-area annotations use),
so the placed run follows from the baseline trace alone:

* accesses to objects now in the scratchpad fold into the trace's
  ``spm_counts`` aggregates, per object and tag, in O(objects);
* every other access keeps its place in the stream, shifted by its
  object's new base — a stream built only when a cache replays it.

:func:`place_trace` returns that derived :class:`~repro.sim.trace.Trace`,
which :func:`~repro.sim.replay.replay` prices exactly as it prices a
recorded one, and :func:`trace_profile` folds the same per-access object
assignment into the per-object profile that drives the energy knapsack.

Placement is invisible to a program only while nothing it computes
depends on an address.  Two checks guard that:

* the compiler flags the ways a mini-C program can see an address
  (:attr:`~repro.minic.sema.Analyzer.observes_placement`): a pointer
  value used as a scalar, and a read of a local or a return value that
  was never set, which sees whatever earlier code left in that stack
  slot or register — a pointer parameter or a return address, say.
  Callers test it;
* every data access of the baseline trace must land where its
  instruction may go: inside a range of its access note, in its own
  function's literal pool, or, for the sp-relative opcodes, on the
  stack above every object.  An out-of-bounds index, or a stack grown
  into the data, fails this.  An access through a pointer parameter
  must, moreover, stay inside the array its activation is bound to, or
  land in an array that the placement moves by the same amount.  The
  check follows the compiler's call notes over the trace to learn which
  array each such access went through, and records every distinct
  (bound array, landing object) pair; a placement must move the two
  objects of each pair alike.

:func:`place_trace` returns None when a check fails; the caller then
executes the placed image, which stays the oracle.
"""

from __future__ import annotations

import bisect
from array import array

import numpy as np

from ..isa.encoding import decode
from ..isa.opcodes import SP_RELATIVE_OPS, Op
from ..link.image import symbol_deltas
from ..memory.regions import STACK_TOP
from . import kernels
from .profile import ObjectProfile, ProgramProfile
from .trace import TAG_FETCH, TAG_FETCH_CONT, TAG_WIDTH, Trace

#: Accesses per vectorised block of the assignment and the access
#: check: bounds their temporaries to about 1 MB on any trace, so a
#: rebuild late in a sweep does not raise its peak RSS.
_BLOCK = 1 << 14

#: Tags the knapsack profile counts per object: one fetch per
#: instruction (a BL's second halfword is not a separate count) plus
#: every data read and write.
_PROFILE_TAGS = (TAG_FETCH, 1, 2, 3, 4, 5, 6)


class _Assignment:
    """Each baseline access's owning object, computed once per trace.

    Rows ``0..n-1`` are the image's objects in base order; row ``n`` is
    the stack (anything above every object) and row ``n + 1`` anything
    else (padding between objects).  ``counts[row][tag]`` totals the
    accesses per row and tag; ``rows`` is the per-access row vector
    that shifts the stream and checks the accesses.
    """

    def __init__(self, trace: Trace, image):
        self.objects = sorted(image.objects, key=lambda obj: obj.base)
        self.row_named = {obj.name: row
                          for row, obj in enumerate(self.objects)}
        self.bases = [obj.base for obj in self.objects]
        self.top = max((obj.end for obj in self.objects), default=0)
        self.stack = len(self.objects)
        self._verdict = None
        values = kernels.ops_view(trace.ops)
        bases = np.array(self.bases, dtype=np.uint64)
        ends = np.array([obj.end for obj in self.objects], dtype=np.uint64)
        self.rows = np.empty(len(values),
                             dtype=np.min_scalar_type(self.stack + 1))
        counts = np.zeros((self.stack + 2) * 8, dtype=np.int64)
        for start in range(0, len(values), _BLOCK):
            block = values[start:start + _BLOCK]
            addrs = block >> 3
            index = np.searchsorted(bases, addrs, side="right") - 1
            rows = np.where((index >= 0) & (addrs < ends[index]), index,
                            self.stack + 1)
            rows[addrs >= self.top] = self.stack
            self.rows[start:start + _BLOCK] = rows
            counts += np.bincount(rows * 8 + (block & 7).astype(np.intp),
                                  minlength=len(counts))
        self.counts = counts.reshape(-1, 8).tolist()

    def row_of(self, addr: int) -> int:
        """The row owning *addr* (scalar twin of the vector assignment)."""
        if addr >= self.top:
            return self.stack
        index = bisect.bisect_right(self.bases, addr) - 1
        if index >= 0 and addr < self.objects[index].end:
            return index
        return self.stack + 1

    # -- the access check ----------------------------------------------------

    def verdict(self, trace: Trace, image):
        """``(placeable, pairs)``, computed on first use.

        *placeable* is False when some data access left the ranges its
        instruction may touch, or went through a pointer parameter whose
        binding the check cannot follow (:class:`_Bindings`).  *pairs*
        holds one ``(bound, landing)`` row pair per distinct way a
        pointer-parameter access went from the array its activation was
        bound to into the object it landed in; an in-bounds access gives
        ``bound == landing``.  A placement must move both rows of every
        pair by the same amount.
        """
        if self._verdict is None:
            self._verdict = self._check(trace, image)
        return self._verdict

    def _allowed(self, image, pc: int) -> dict:
        """``row -> (lo, hi)``: where the instruction at *pc* may access."""
        instr = decode(image.read_halfword(pc), pc)
        if instr.op in SP_RELATIVE_OPS:
            return {self.stack: (0, STACK_TOP - self.top)}
        if instr.op is Op.LDRPC:
            own = self.row_of(pc)
            return {own: (0, self.objects[own].size)}
        note = image.access_notes.get(pc)
        if note is None:
            return {}
        allowed = {}
        if note.stack:
            allowed[self.stack] = (0, STACK_TOP - self.top)
        for symbol, lo, hi in note.targets:
            row = self.row_named.get(symbol)
            if row is None:
                return {}
            old = allowed.get(row, (lo, hi))
            allowed[row] = (min(lo, old[0]), max(hi, old[1]))
        return allowed

    def _check(self, trace: Trace, image):
        unplaceable = (False, frozenset())
        bindings = _Bindings(self, image)
        if bindings.sites is None:
            return unplaceable
        values = kernels.ops_view(trace.ops)
        widths = np.array(TAG_WIDTH, dtype=np.int64)
        starts = np.array(self.bases + [self.top, 0], dtype=np.int64)
        nrows = self.stack + 2
        ranges = {}     # pc * nrows + row -> (lo, hi), or None
        allowed_at = {}
        pc = 0          # the instruction before the block began
        for start in range(0, len(values), _BLOCK):
            block = values[start:start + _BLOCK]
            tags = block & 7
            addrs = (block >> 3).astype(np.int64)
            fetch = tags == TAG_FETCH
            last = np.where(fetch, np.arange(len(block)), -1)
            np.maximum.accumulate(last, out=last)
            pcs = np.where(last >= 0, addrs[last], pc)
            pc = int(pcs[-1])
            data = ~fetch & (tags != TAG_FETCH_CONT)
            rows = self.rows[start:start + _BLOCK][data].astype(np.int64)
            keys, inverse = np.unique(pcs[data] * nrows + rows,
                                      return_inverse=True)
            lo = np.empty(len(keys), dtype=np.int64)
            hi = np.empty(len(keys), dtype=np.int64)
            for index, key in enumerate(keys.tolist()):
                if key not in ranges:
                    at, row = divmod(key, nrows)
                    if at not in allowed_at:
                        allowed_at[at] = self._allowed(image, at)
                    ranges[key] = allowed_at[at].get(row)
                if ranges[key] is None:
                    return unplaceable
                lo[index], hi[index] = ranges[key]
            offsets = addrs[data] - starts[rows]
            if not ((lo[inverse] <= offsets)
                    & (offsets + widths[tags[data]] <= hi[inverse])).all():
                return unplaceable
            if not bindings.follow(addrs, fetch, data, pcs, rows, nrows):
                return unplaceable
        return True, frozenset(bindings.pairs)


class _Bindings:
    """The array each pointer-parameter access went through.

    A variable is one pointer parameter of one function.  A ``BL``
    fetched at a call site sets each variable its call note binds: to
    the row of the global array passed or, when the call forwards one of
    the caller's own pointer parameters, to that variable's row.  No
    return needs tracking: a function never re-entered while it runs has
    the last call into it as its live activation.  That holds only while
    no function taking pointer arguments lies on a cycle of the call
    graph the notes span, so such a cycle (recursion) leaves
    :attr:`sites` None and the verdict unplaceable.
    """

    def __init__(self, assignment: _Assignment, image):
        self.variables = {}     # (function row, param) -> variable
        #: call-site pc -> ``(variable, row, source)`` per binding: a
        #: global's *row*, or the caller's variable *source*.
        self.sites = {}
        calls = {}
        for pc, note in image.call_notes.items():
            target = decode(image.read_halfword(pc), pc,
                            image.read_halfword(pc + 2)).target
            caller = assignment.row_of(pc)
            callee = assignment.row_of(target)
            calls.setdefault(caller, set()).add(callee)
            if note.bindings:
                self.sites[pc] = tuple(
                    self._binding(assignment, caller, callee, *binding)
                    for binding in note.bindings)
        if _on_a_cycle(calls, {function for function, _ in self.variables}):
            self.sites = None
            return
        through = sorted(
            (pc, self._variable(assignment.row_of(pc), note.param))
            for pc, note in image.access_notes.items()
            if note.param is not None)
        # Sorted pcs, each list closed by a sentinel no pc matches.
        self.pcs = np.array([pc for pc, _ in through] + [-1],
                            dtype=np.int64)
        self.pc_variables = np.array([var for _, var in through] + [-1],
                                     dtype=np.int64)
        self.site_pcs = np.array(sorted(self.sites) + [-1], dtype=np.int64)
        self.held = [-1] * len(self.variables)  # each one's row; -1 unbound
        self.pairs = set()

    def _variable(self, function: int, param: int) -> int:
        return self.variables.setdefault((function, param),
                                         len(self.variables))

    def _binding(self, assignment, caller, callee, param, source):
        """``(variable, row, source)`` for one pointer argument."""
        if isinstance(source, str):
            return (self._variable(callee, param),
                    assignment.row_named[source], None)
        return (self._variable(callee, param), None,
                self._variable(caller, source))

    def follow(self, addrs, fetch, data, pcs, rows, nrows) -> bool:
        """Follow one block's calls and pointer accesses.

        *rows* are the block's data accesses' landing rows.  Adds the
        block's ``(bound, landing)`` pairs; False when a pointer access
        went through a parameter no call has bound.
        """
        if len(self.pcs) == 1:
            return True
        held = self.held
        before = list(held)
        sets = {}       # variable -> ([block positions], [rows held])
        nearest = self.site_pcs[np.searchsorted(self.site_pcs[:-1], addrs)]
        opens = np.flatnonzero(fetch & (nearest == addrs))
        for at, site in zip(opens.tolist(), addrs[opens].tolist()):
            for var, row, source in self.sites[site]:
                held[var] = row if source is None else held[source]
                positions, rows_held = sets.setdefault(
                    var, ([], [before[var]]))
                positions.append(at)
                rows_held.append(held[var])
        index = np.searchsorted(self.pcs[:-1], pcs[data])
        hits = self.pcs[index] == pcs[data]
        if not hits.any():
            return True
        at = np.flatnonzero(data)[hits]
        which = self.pc_variables[index[hits]]
        bound = np.empty(len(at), dtype=np.int64)
        for var, before_block in enumerate(before):
            chosen = which == var
            if chosen.any():
                positions, rows_held = sets.get(var, ((), [before_block]))
                bound[chosen] = np.array(rows_held)[
                    np.searchsorted(positions, at[chosen], side="right")]
        if (bound < 0).any():
            return False
        # A set, not np.unique: numpy 2's unique imports numpy.ma when
        # asked for the values alone.
        for key in set((bound * nrows + rows[hits]).tolist()):
            self.pairs.add(divmod(key, nrows))
        return True


def _on_a_cycle(calls: dict, functions) -> bool:
    """Does one of *functions* reach itself over *calls* (caller ->
    callees)?"""
    for root in functions:
        seen, work = set(), list(calls.get(root, ()))
        while work:
            function = work.pop()
            if function == root:
                return True
            if function not in seen:
                seen.add(function)
                work.extend(calls.get(function, ()))
    return False


def _assignment(trace: Trace, image) -> _Assignment:
    """The trace's object assignment for *image*, memoised on the trace."""
    if trace.spm_size:
        raise ValueError("placements derive from the baseline trace, "
                         f"not one recorded with a {trace.spm_size}-byte "
                         "SPM split")
    key = ("objects", image.content_key())
    assignment = trace._memo.get(key)
    if assignment is None:
        assignment = trace._memo[key] = _Assignment(trace, image)
    return assignment


def trace_profile(trace: Trace, image) -> ProgramProfile:
    """Per-object access counts of the baseline run, from its trace.

    Equal to folding a recording-engine profile run onto *image*'s
    objects: instruction fetches per function (one per instruction),
    loads and stores per global, and literal-pool loads per function.
    """
    assignment = _assignment(trace, image)
    accesses = {obj.name: sum(row[tag] for tag in _PROFILE_TAGS)
                for obj, row in zip(assignment.objects, assignment.counts)}
    return ProgramProfile([
        ObjectProfile(name=obj.name, kind=obj.kind, size=obj.size,
                      accesses=accesses[obj.name])
        for obj in image.objects])


class _PlacedTrace(Trace):
    """A derived trace whose shifted stream is built on first use."""

    __slots__ = ("_build",)

    def __init__(self, build, **fields):
        super().__init__(ops=None, **fields)
        self._build = build

    @property
    def ops(self):
        if self._ops is None and self._runs is None:
            self._ops, self._build = self._build(), None
        return Trace.ops.fget(self)


def place_trace(trace: Trace, image, placed, spm_size: int):
    """The trace *placed* would record, derived from *image*'s *trace*.

    *trace* is the baseline image's recording (no SPM split) and
    *placed* the same program linked with a scratchpad allocation of
    capacity *spm_size*.  Returns None when the access check declines;
    the caller must execute *placed* then.  The caller also owns the
    compiler-side check
    (:attr:`~repro.minic.sema.Analyzer.observes_placement`).
    """
    assignment = _assignment(trace, image)
    moved = symbol_deltas(image, placed)
    placeable, pairs = assignment.verdict(trace, image)
    if not placeable:
        return None
    deltas = [moved[obj.name] for obj in assignment.objects] + [0, 0]
    if any(deltas[bound] != deltas[landing] for bound, landing in pairs):
        return None
    in_spm = [placed.object_named(obj.name).region == "scratchpad"
              for obj in assignment.objects] + [False, False]
    spm_counts = [0] * 8
    op_counts = [0] * 8
    for row, spm in zip(assignment.counts, in_spm):
        total = spm_counts if spm else op_counts
        for tag, count in enumerate(row):
            total[tag] += count

    def build():
        rows = assignment.rows
        keep = ~np.array(in_spm)[rows]
        shifts = np.array([(delta << 3) & 0xFFFF_FFFF_FFFF_FFFF
                           for delta in deltas], dtype=np.uint64)
        values = kernels.ops_view(trace.ops)[keep]
        return array("Q", (values + shifts[rows[keep]]).tobytes())

    return _PlacedTrace(
        build, op_counts=tuple(op_counts), spm_counts=tuple(spm_counts),
        base_cycles=trace.base_cycles, instructions=trace.instructions,
        exit_code=trace.exit_code, console=trace.console,
        spm_size=spm_size)
