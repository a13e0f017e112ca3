"""Vectorised (numpy) replay kernels for LRU level pipelines.

A trace is a packed ``addr << 3 | tag`` stream.  For every cached
pipeline — the paper's direct-mapped shapes, the set-associative levels
of the cache design-space exploration, and the hot rows of
``BENCH_simulator.json`` — the hit/miss counters follow from
whole-trace vector operations instead of a walk one access at a time:

* the stream is viewed in bulk as a ``uint64`` array (zero-copy over the
  trace's ``array('Q')`` buffer) and split once into tag / address /
  block-id vectors;
* residency in a direct-mapped cache follows from the *Mattson carry*:
  an access hits iff the most recent **allocating** access to its set
  named the same block.  That previous-allocating-access relation is a
  stable sort by set index plus a forward-fill of allocating positions —
  no sequential tag array at all (:func:`_dm_hits`); set indices are
  narrowed to ``uint16`` so the stable sort takes numpy's 2-pass radix
  path;
* a set-associative LRU level groups its probes by set with the same
  radix sort, then collapses each set's runs of one block: after an
  allocating probe the block is the set's MRU line, so the rest of the
  run hits and changes nothing, and writes before it share the run's
  first outcome.  The exact LRU state machine (a write hit refreshes, a
  write miss does not allocate) then walks only the run heads, set by
  set (:func:`_lru_hits`), on local variables at 2 and 4 ways and on a
  list at any other associativity.  Grid points with one set count
  share the grouping and the walk, and a chain of set counts regroups
  at each finer one only the probes no coarser one settled
  (:func:`lru_grid_counts`).  On the ``cache-dse`` workload the heads
  are about a fifth of the probes, and a 2-way L1 replay of ``g721``
  (660k accesses) takes 40-120 ms, fewer sets costing more;
* multi-level pipelines chain the per-level kernels (picked by
  associativity) with per-level pending masks: fetches/reads that hit
  stop descending, writes (write-through, no allocate) probe every
  data-path level unconditionally;
* runs of consecutive same-block accesses are guaranteed hits at every
  geometry, so a vectorised prefilter drops them before the per-set
  grouping, which is what makes size sweeps cheap;
* everything about a probe stream that does not depend on the set
  count — kind masks, block ids, the shortcut survivors —
  is reduced once per ``(trace, line size, stream)`` and memoised on
  the trace (:func:`stream_prep`), so replaying the same trace under
  many configurations (the workflow sweeps, the benches) pays only the
  per-set grouping per point.

``tests/test_kernels.py`` pins every kernel against the oracle walk in
``tests/oracles/memory.py``, which prices a trace access by access
through the reference hierarchy (a tag model the kernels share no code
with), over every committed hierarchy shape and adversarial write-heavy
streams.
"""

from __future__ import annotations

from array import array

import numpy as _np


# -- bulk views of the packed stream -----------------------------------------

def ops_view(ops):
    """Zero-copy ``uint64`` view of a trace's packed ``array('Q')``."""
    return _np.frombuffer(ops, dtype=_np.uint64)


# -- the direct-mapped carry kernel ------------------------------------------

def _dm_hits(blocks, sets, alloc):
    """Hit mask of a direct-mapped probe stream, in stream order.

    An access hits iff the most recent *allocating* access to the same
    set named the same block (writes probe with ``alloc`` False: they
    neither allocate nor, at associativity 1, move anything; ``alloc``
    None means every access allocates).  Computed by stably sorting on
    the set index and forward-filling the last allocating position; a
    carried position from before the set's first access (i.e. from
    another set) is ruled out by the set-equality check against the
    carried position itself.
    """
    n = blocks.size
    if n == 0:
        return _np.zeros(0, dtype=bool)
    order = _np.argsort(sets, kind="stable")
    b = blocks[order]
    s = sets[order]
    hit_sorted = _np.empty(n, dtype=bool)
    hit_sorted[0] = False
    if alloc is None:
        # Every access allocates: the predecessor within the group is
        # simply the previous sorted element.
        _np.equal(s[1:], s[:-1], out=hit_sorted[1:])
        hit_sorted[1:] &= b[1:] == b[:-1]
    else:
        idx = _np.arange(n, dtype=_np.int32)
        fill = _np.maximum.accumulate(_np.where(alloc[order], idx, -1))
        raw = fill[:-1]
        prev = _np.maximum(raw, 0)
        hit_sorted[1:] = (raw >= 0) & (s[prev] == s[1:]) & (b[prev] == b[1:])
    hits = _np.empty(n, dtype=bool)
    hits[order] = hit_sorted
    return hits


def _set_index(rb, nsets):
    """Set indices of *rb*'s blocks, narrowed for the radix sort."""
    if nsets & (nsets - 1) == 0:
        sets = rb & (nsets - 1)
    else:
        sets = rb % nsets
    if nsets <= 1 << 16:
        return sets.astype(_np.uint16)
    return sets


def _split(values, memo):
    """``(addrs, is_fetch, is_read, is_write)``, memoised per trace.

    Addresses (and so every block id derived from them) are ``int32``
    when they fit, which halves the memo and the kernels' gathers.
    """
    got = memo.get("split") if memo is not None else None
    if got is None:
        tags = (values & _np.uint64(7)).astype(_np.uint8)
        addrs = values >> _np.uint64(3)
        wide = addrs.size and int(addrs.max()) >= 1 << 31
        addrs = addrs.astype(_np.int64 if wide else _np.int32)
        got = (addrs,
               (tags == 0) | (tags == 7),
               (tags >= 1) & (tags <= 3),
               (tags >= 4) & (tags < 7))
        if memo is not None:
            memo["split"] = got
    return got


def stream_prep(values, line, kind, memo=None):
    """Set-count-independent reduction of one probe stream, memoised.

    *kind* picks which accesses probe the cache: ``"unified"``
    (everything), ``"fetch"`` (instruction side only — every probe
    allocates) or ``"data"`` (reads + writes).  The returned dict
    carries the same-block shortcut (guaranteed hits at any geometry)
    with per-kind hit counters, and the shortcut survivors (``rest``,
    with their block ids and allocation mask) that still need the
    per-set grouping — everything replays over the same trace can
    share, whatever the set count.  Positions are ``int32``: the dict
    lives in the trace's memo.
    """
    key = ("prep", line, kind)
    got = memo.get(key) if memo is not None else None
    if got is not None:
        return got
    addrs, is_fetch, is_read, is_write = _split(values, memo)
    shift = line.bit_length() - 1
    if kind == "unified":
        sel = None
        blocks = addrs >> shift
        alloc = ~is_write
        kind_masks = (is_fetch, is_read, is_write)
    elif kind == "fetch":
        sel = _np.flatnonzero(is_fetch).astype(_np.int32)
        blocks = addrs[sel] >> shift
        alloc = None
        kind_masks = (True, None, None)
    else:  # "data"
        sel = _np.flatnonzero(is_read | is_write).astype(_np.int32)
        blocks = addrs[sel] >> shift
        w = is_write[sel]
        alloc = ~w
        kind_masks = (None, ~w, w)
    n = blocks.size
    if n == 0:
        short = _np.zeros(0, dtype=bool)
    elif alloc is None:
        short = _np.empty(n, dtype=bool)
        short[0] = False
        _np.equal(blocks[1:], blocks[:-1], out=short[1:])
    else:
        idx = _np.arange(n, dtype=_np.int64)
        fill = _np.maximum.accumulate(_np.where(alloc, idx, -1))
        prev = _np.empty(n, dtype=_np.int64)
        prev[0] = -1
        prev[1:] = fill[:-1]
        short = (prev >= 0) & (blocks[_np.maximum(prev, 0)] == blocks)
    rest = _np.flatnonzero(~short).astype(_np.int32)
    rb = blocks[rest]
    if rb.size and int(rb.max()) < (1 << 31):
        # cheaper gathers in the radix walk
        rb = rb.astype(_np.int32, copy=False)
    totals = []
    short_hits = []
    rest_masks = []
    for mask in kind_masks:
        if mask is None:
            totals.append(0)
            short_hits.append(0)
            rest_masks.append(None)
        elif mask is True:  # the whole stream is this kind
            totals.append(n)
            short_hits.append(int(_np.count_nonzero(short)))
            rest_masks.append(True)
        else:
            totals.append(int(_np.count_nonzero(mask)))
            short_hits.append(int(_np.count_nonzero(short & mask)))
            rest_masks.append(mask[rest])
    prep = {
        "sel": sel,
        "short": short,
        "rest": rest,
        "rb": rb,
        "ra": None if alloc is None else alloc[rest],
        "totals": tuple(totals),
        "short_hits": tuple(short_hits),
        "rest_masks": tuple(rest_masks),
    }
    if memo is not None:
        memo[key] = prep
    return prep


def _kind_counts(hits, masks, totals, base=(0, 0, 0)):
    """The 6-entry fast-counter list of a hit mask.

    *masks* holds one entry per kind (fetch, read, write): a mask over
    *hits*, True when every probe is of that kind, or None when the
    kind never probes.  *totals* are the kinds' probe counts and *base*
    their hits counted outside *hits* (the same-block shortcut).
    """
    counts = [0, 0, 0, 0, 0, 0]
    for pos, mask in enumerate(masks):
        if not totals[pos]:
            continue
        kind_hits = base[pos] + int(_np.count_nonzero(
            hits if mask is True else hits & mask))
        counts[2 * pos] = kind_hits
        counts[2 * pos + 1] = totals[pos] - kind_hits
    return counts


def prep_counts(prep, nsets, need_hits=False, assoc=1):
    """``(counts, hits)`` of one LRU geometry from a prepared stream.

    Only the per-set grouping of the shortcut survivors runs here; the
    6-entry fast-counter list merges the shortcut's per-kind hits with
    the grouped ones.  *hits* (the full per-probe mask, for pending
    updates in level chains) is built only when *need_hits* is set.
    Above associativity 1 the shortcut is exact only on write-free
    streams, where the repeat re-touches its set's MRU line (a write hit
    in between could have reordered the set); callers guarantee that.
    """
    rb = prep["rb"]
    if assoc == 1:
        hits_rest = _dm_hits(rb, _set_index(rb, nsets), prep["ra"])
    else:
        (hits_rest,), _ = _lru_hits(rb, _set_index(rb, nsets), None,
                                    (assoc,))
    counts = _kind_counts(hits_rest, prep["rest_masks"], prep["totals"],
                          prep["short_hits"])
    if not need_hits:
        return counts, None
    hits = prep["short"].copy()
    hits[prep["rest"]] = hits_rest
    return counts, hits


def probe_counts(blocks, nsets, assoc, alloc, kind_masks):
    """Counters + hit mask of one LRU cache over an ad-hoc probe stream.

    The un-memoised path for chain levels whose probe stream depends on
    shallower hits, and for set-associative levels whose stream carries
    writes.  *kind_masks* is ``(fetch_mask, read_mask, write_mask)``
    over the stream (None = that kind never probes).  Direct-mapped
    levels apply the same-block shortcut first, so only the survivors
    pay the per-set grouping sort of :func:`_dm_hits`.  Returns
    ``(counts, hits)``.
    """
    n = blocks.size
    if n == 0:
        return [0, 0, 0, 0, 0, 0], _np.zeros(0, dtype=bool)
    if assoc == 1:
        idx = _np.arange(n, dtype=_np.int64)
        fill = _np.maximum.accumulate(_np.where(alloc, idx, -1))
        prev = _np.empty(n, dtype=_np.int64)
        prev[0] = -1
        prev[1:] = fill[:-1]
        short = (prev >= 0) & (blocks[_np.maximum(prev, 0)] == blocks)
        hits = short.copy()
        rest = _np.flatnonzero(~short)
        if rest.size:
            rb = blocks[rest]
            hits[rest] = _dm_hits(rb, _set_index(rb, nsets), alloc[rest])
    else:
        (hits,), _ = _lru_hits(blocks, _set_index(blocks, nsets), alloc,
                               (assoc,))
    totals = [0 if mask is None else int(_np.count_nonzero(mask))
              for mask in kind_masks]
    return _kind_counts(hits, kind_masks, totals), hits


# -- the set-associative LRU kernel ------------------------------------------

def _runs(blocks, alloc):
    """``(head, before, start)`` of the same-block runs of a grouped stream.

    *blocks* is one set's probes after another (a block maps to one set,
    so a run never spans two).  Within a run, every probe after the
    first allocating one hits without changing anything: its block is
    already the set's MRU line.  Writes before that probe (write-through,
    no allocate) share the run start's outcome: a write hit leaves the
    block MRU, a write miss leaves the set untouched.  Only the *heads*
    need the LRU state machine: each run's start, and its first
    allocating probe when writes precede it.  ``before`` marks probes
    preceded by an allocating one in their run (they hit), ``start``
    each probe's run start (the outcome the others copy).  With *alloc*
    None every probe allocates: every non-head hits, and ``before`` and
    ``start`` are None.
    """
    n = blocks.size
    head = _np.empty(n, dtype=bool)
    head[0] = True
    _np.not_equal(blocks[1:], blocks[:-1], out=head[1:])
    if alloc is None:
        return head, None, None
    start = _np.arange(n, dtype=_np.int32)
    start[~head] = 0
    _np.maximum.accumulate(start, out=start)
    last = _np.arange(n, dtype=_np.int32)
    last[~alloc] = -1
    _np.maximum.accumulate(last, out=last)
    before = _np.empty(n, dtype=bool)
    before[0] = False
    _np.greater_equal(last[:-1], start[1:], out=before[1:])
    del last
    head |= alloc & ~before
    return head, before, start


def _lru_walk(blocks, allocs, assoc):
    """The exact LRU state machine over one set's run heads.

    A hit (fetch, read or write) moves its block to the front; a miss
    that allocates inserts it there, evicting the tail of a full set; a
    write miss changes nothing.  Returns one hit flag per head.
    """
    hits = []
    append = hits.append
    ways = []
    for block, allocates in zip(blocks, allocs):
        if block in ways:
            append(True)
            if ways[0] != block:
                ways.remove(block)
                ways.insert(0, block)
        else:
            append(False)
            if allocates:
                if len(ways) == assoc:
                    ways.pop()
                ways.insert(0, block)
    return hits


def _lru_walk_2(blocks, allocs, assoc=2):
    """:func:`_lru_walk` at two ways, MRU first in locals (-1 = empty)."""
    hits = []
    append = hits.append
    w0 = w1 = -1
    for block, allocates in zip(blocks, allocs):
        if block == w0:
            append(True)
        elif block == w1:
            append(True)
            w0, w1 = block, w0
        else:
            append(False)
            if allocates:
                w0, w1 = block, w0
    return hits


def _lru_walk_4(blocks, allocs, assoc=4):
    """:func:`_lru_walk` at four ways: a hit at way *k* rotates ways
    0..*k*, an allocating miss shifts every way down one."""
    hits = []
    append = hits.append
    w0 = w1 = w2 = w3 = -1
    for block, allocates in zip(blocks, allocs):
        if block == w0:
            append(True)
        elif block == w1:
            append(True)
            w0, w1 = block, w0
        elif block == w2:
            append(True)
            w0, w1, w2 = block, w0, w1
        elif block == w3:
            append(True)
            w0, w1, w2, w3 = block, w0, w1, w2
        else:
            append(False)
            if allocates:
                w0, w1, w2, w3 = block, w0, w1, w2
    return hits


#: The walk each associativity takes; :func:`_lru_walk` serves the rest.
_WALKS = {2: _lru_walk_2, 4: _lru_walk_4}


def _stack_walk(blocks, deepest):
    """LRU stack depth of each of one set's heads, all allocating.

    Every probe moves its block to the front, so one recency stack,
    trimmed to *deepest*, serves every associativity up to it: a head
    hits at associativity ``A`` iff its depth is below ``A`` (*deepest*
    stands for "not resident").
    """
    depths = []
    append = depths.append
    stack = []
    for block in blocks:
        if block in stack:
            depth = stack.index(block)
            del stack[depth]
        else:
            depth = deepest
            if len(stack) == deepest:
                stack.pop()
        stack.insert(0, block)
        append(depth)
    return depths


def _lru_hits(blocks, sets, alloc, assocs, settle=False):
    """Hit masks of one LRU probe stream, in stream order, per associativity.

    Every associativity in *assocs* has the set count behind *sets*, so
    all share one grouping — the stable ``uint16`` radix sort by set
    that :func:`_dm_hits` uses, then :func:`_runs` — and one walk over
    the run heads, set by set: a single depth walk when every probe
    allocates, otherwise one exact state machine per associativity (a
    write hit refreshes LRU order only if the block is resident, which
    depends on the associativity).  *alloc* None means every probe
    allocates.

    Returns ``(masks, settled)``.  With *settle*, ``settled`` marks (in
    stream order) the probes preceded in their set-run by an allocating
    probe of the same block: they hit and change nothing at any
    associativity (:func:`lru_grid_counts` carries them down a chain of
    set counts); otherwise it is None.
    """
    n = blocks.size
    if n == 0:
        empty = _np.zeros(0, dtype=bool)
        return [empty for _ in assocs], (empty if settle else None)
    order = _np.argsort(sets, kind="stable").astype(_np.int32)
    grouped = blocks[order]
    allocs = None if alloc is None else alloc[order]
    head, before, start = _runs(grouped, allocs)
    heads = _np.flatnonzero(head).astype(_np.int32)
    head_blocks = grouped[heads]
    head_allocs = None if allocs is None else allocs[heads]
    del grouped, allocs
    head_sets = sets[order[heads]]
    cuts = (_np.flatnonzero(head_sets[1:] != head_sets[:-1]) + 1).tolist()
    # The walk converts one set's heads at a time to Python lists.
    bounds = list(zip([0, *cuts], [*cuts, heads.size]))
    if head_allocs is None:
        depths = _np.empty(heads.size, dtype=_np.int32)
        for lo, hi in bounds:
            depths[lo:hi] = _stack_walk(head_blocks[lo:hi].tolist(),
                                        max(assocs))
        head_hits = [depths < assoc for assoc in assocs]
        copies = None
    else:
        head_hits = [_np.empty(heads.size, dtype=bool) for _ in assocs]
        walks = [_WALKS.get(assoc, _lru_walk) for assoc in assocs]
        for lo, hi in bounds:
            set_blocks = head_blocks[lo:hi].tolist()
            set_allocs = head_allocs[lo:hi].tolist()
            for hits, walk, assoc in zip(head_hits, walks, assocs):
                hits[lo:hi] = walk(set_blocks, set_allocs, assoc)
        copies = _np.flatnonzero(~(head | before))
        sources = start[copies]
    out = []
    for hits_at_heads in head_hits:
        grouped_hits = ~head if copies is None else before.copy()
        grouped_hits[heads] = hits_at_heads
        if copies is not None:
            grouped_hits[copies] = grouped_hits[sources]
        hits = _np.empty(n, dtype=bool)
        hits[order] = grouped_hits
        out.append(hits)
    settled = None
    if settle:
        settled = _np.empty(n, dtype=bool)
        settled[order] = ~head if before is None else before
    return out, settled


# -- level pipelines and grids ------------------------------------------------

def lru_chain_counts(values, caches, memo=None):
    """Per-cache fast counters of an LRU level pipeline.

    *caches* is a sequence of ``(line_size, num_sets, assoc, on_fetch,
    on_data)`` in physical (outermost-first) order.  Fetches and reads
    descend only while they miss; writes probe every data-path cache
    regardless (write-through keeps deeper tags informed).  Each level
    picks its kernel by associativity: the direct-mapped carry kernel
    (LRU at associativity 1) or the set-associative :func:`_lru_hits`.
    The first cache on each path sees a config-independent probe stream
    and, unless it is set-associative and the stream carries writes, is
    served from the memoised :func:`stream_prep`; the other levels build
    their streams from the pending masks.  Returns one 6-entry counter
    list per cache, bit-identical to the hierarchy's touch closures.
    """
    addrs, is_fetch, is_read, is_write = _split(values, memo)
    writes = bool(is_write.any())
    last = len(caches) - 1
    fetch_virgin = read_virgin = True
    fetch_pending = read_pending = None
    out = []
    for pos, (line, nsets, assoc, on_fetch, on_data) in enumerate(caches):
        need_hits = pos != last
        virgin = (not on_fetch or fetch_virgin) \
            and (not on_data or read_virgin)
        prep = None
        if virgin and (assoc == 1 or not (on_data and writes)):
            kind = ("unified" if on_fetch and on_data
                    else "fetch" if on_fetch else "data")
            prep = stream_prep(values, line, kind, memo)
        if prep is not None:
            counts, hits = prep_counts(prep, nsets, need_hits=need_hits,
                                       assoc=assoc)
            out.append(counts)
            if need_hits:
                sel = prep["sel"]
                if fetch_pending is None:
                    fetch_pending = is_fetch.copy()
                if read_pending is None:
                    read_pending = is_read.copy()
                if sel is None:
                    if on_fetch:
                        fetch_pending &= ~hits
                    if on_data:
                        read_pending &= ~hits
                else:
                    if on_fetch:
                        fetch_pending[sel] = ~hits
                    if on_data:
                        read_pending[sel] &= ~hits
        else:
            if fetch_pending is None:
                fetch_pending = is_fetch.copy()
            if read_pending is None:
                read_pending = is_read.copy()
            probe = None
            if on_fetch:
                probe = fetch_pending.copy()
            if on_data:
                dprobe = read_pending | is_write
                probe = dprobe if probe is None else (probe | dprobe)
            idxs = _np.flatnonzero(probe)
            if not idxs.size:
                out.append([0, 0, 0, 0, 0, 0])
                continue
            blocks = addrs[idxs] >> (line.bit_length() - 1)
            alloc = ~is_write[idxs]
            kind_masks = (
                fetch_pending[idxs] if on_fetch else None,
                read_pending[idxs] if on_data else None,
                is_write[idxs] if on_data else None,
            )
            counts, hits = probe_counts(blocks, nsets, assoc, alloc,
                                        kind_masks)
            out.append(counts)
            if need_hits:
                if on_fetch:
                    fetch_pending[idxs[hits & kind_masks[0]]] = False
                if on_data:
                    read_pending[idxs[hits & kind_masks[1]]] = False
        if on_fetch:
            fetch_virgin = False
        if on_data:
            read_virgin = False
    return out


def _drop_carried(dropped, ndropped, masks, base, *arrays):
    """Delete the *dropped* probes from a cascade's stream.

    Each dropped probe hits at every finer set count, so its kind's hit
    count moves into *base* (the per-kind hits counted outside the
    stream) and *masks* shrink in place.  Returns *arrays*, positions
    aligned with the stream, without the dropped probes (None stays
    None).
    """
    keep = ~dropped
    for kind, mask in enumerate(masks):
        if mask is True:
            base[kind] += ndropped
        elif mask is not None:
            base[kind] += int(_np.count_nonzero(dropped & mask))
            masks[kind] = mask[keep]
    return [None if array is None else array[keep] for array in arrays]


def lru_grid_counts(values, line, unified, points, memo=None):
    """``(counters, settled)`` of the ``(assoc, nsets)`` grid *points*.

    The set-associative points of a single-level LRU grid (unified or
    instruction-side) at one line size: one 6-entry counter list per
    point, in order.  Points with the same set count share one grouping
    and one walk (:func:`_lru_hits`).  A write-free stream starts from
    the shortcut survivors of the memoised :func:`stream_prep`; a
    unified stream with writes starts whole, since a write hit between
    two same-block allocations in stream order can reorder their set.

    When the set counts form a divisibility chain, they run smallest
    first and each hands the next only its unsettled probes.  A probe
    preceded in its set-run by an allocating probe of the same block
    hits and changes nothing; a finer set count keeps a subset of the
    probes of each coarser set, in order, so that run only grows and the
    probe stays settled at every multiple.  Its per-kind hit is carried
    forward instead of regrouped, and deleting it leaves every other
    probe's run start, heads and copies as they were.  *settled* counts
    the probes carried.
    """
    addrs, is_fetch, is_read, is_write = _split(values, memo)
    if unified and is_write.any():
        blocks = addrs >> (line.bit_length() - 1)
        alloc = ~is_write
        masks = [is_fetch, is_read, is_write]
        totals = [int(_np.count_nonzero(mask)) for mask in masks]
        base = [0, 0, 0]
    else:
        prep = stream_prep(values, line,
                           "unified" if unified else "fetch", memo)
        blocks, alloc = prep["rb"], None
        masks = list(prep["rest_masks"])
        totals = prep["totals"]
        base = list(prep["short_hits"])
    by_nsets = {}
    for assoc, nsets in points:
        by_nsets.setdefault(nsets, {})[assoc] = None
    uniq = sorted(by_nsets)
    chain = all(b % a == 0 for a, b in zip(uniq, uniq[1:]))
    carried = 0
    for nsets in uniq:
        assocs = list(by_nsets[nsets])
        hit_masks, settled = _lru_hits(
            blocks, _set_index(blocks, nsets), alloc, assocs,
            settle=chain and nsets != uniq[-1])
        by_nsets[nsets] = {assoc: _kind_counts(hits, masks, totals, base)
                           for assoc, hits in zip(assocs, hit_masks)}
        nsettled = 0 if settled is None else int(_np.count_nonzero(settled))
        if nsettled:
            carried += nsettled
            blocks, alloc = _drop_carried(settled, nsettled, masks, base,
                                          blocks, alloc)
        # Only the unsettled probes stay alive into the next grouping.
        del hit_masks, settled
    return [list(by_nsets[nsets][assoc]) for assoc, nsets in points], carried


def dm_sweep_counts(values, line, unified, nsets_list, memo=None):
    """One 6-entry counter list per set count, in one pass.

    The multi-size generalisation: the stream is reduced once (and
    memoised across calls) by :func:`stream_prep`; only the shortcut
    survivors pay a per-``nsets`` grouping.  Matches per-size replays
    bit for bit, writes included (they probe without allocating,
    exactly the write-recency contract the regression tests pin down).

    When the requested set counts form a divisibility chain (the usual
    power-of-two sweep), direct-mapped inclusion — a hit at ``k`` sets
    stays a hit at any multiple of ``k``, because the same-set window
    between an access and its previous same-block allocation only
    shrinks as sets split — lets each level's hits be deleted from the
    stream before the next level runs: their counts are carried
    forward and every successive grouping sorts a smaller array.
    Deleting a hit is sound because the access it matched (same block,
    same set at every finer geometry) remains the most recent
    allocation for anything that would have matched the deleted one.
    """
    prep = stream_prep(values, line, "unified" if unified else "fetch",
                       memo)
    uniq = sorted(set(nsets_list))
    chain = all(b % a == 0 for a, b in zip(uniq, uniq[1:]))
    if not chain or len(uniq) < 2:
        return [prep_counts(prep, nsets)[0] for nsets in nsets_list]
    totals = prep["totals"]
    b = prep["rb"]
    a = prep["ra"]
    masks = list(prep["rest_masks"])
    base = list(prep["short_hits"])
    by_nsets = {}
    for nsets in uniq:
        hits = _dm_hits(b, _set_index(b, nsets), a)
        by_nsets[nsets] = _kind_counts(hits, masks, totals, base)
        nhits = int(_np.count_nonzero(hits))
        if nsets != uniq[-1] and nhits:
            b, a = _drop_carried(hits, nhits, masks, base, b, a)
    return [list(by_nsets[nsets]) for nsets in nsets_list]


# -- run-length expansion -----------------------------------------------------

def expand_runs(base, heads, packed):
    """Decode the trace RLE form back into a flat ``array('Q')``.

    *heads* holds each run's ``int32`` delta from the previous run's
    first packed op (*base* anchors the first), *packed* holds
    ``count << 1 | (stride != 0)`` as ``uint32`` with a non-zero stride
    meaning the address advances 2 bytes per repeat (16 in packed
    units).
    """
    h = _np.frombuffer(heads, dtype=_np.int32).astype(_np.int64)
    p = _np.frombuffer(packed, dtype=_np.uint32).astype(_np.int64)
    firsts = (_np.cumsum(h) + base).astype(_np.uint64)
    counts = p >> 1
    strides = _np.where((p & 1).astype(bool), 16, 0).astype(_np.uint64)
    total = int(counts.sum())
    starts = _np.cumsum(counts) - counts
    offsets = (_np.arange(total, dtype=_np.int64)
               - _np.repeat(starts, counts)).astype(_np.uint64)
    ops = _np.repeat(firsts, counts) \
        + _np.repeat(strides, counts) * offsets
    return array("Q", ops.tobytes())


# -- run-length encoding of the packed stream ------------------------------

#: Ops encoded per block.  The temporaries of one block stay near 2 MB,
#: so encoding holds little beyond its output however long the trace.
_RUN_BLOCK = 1 << 14

_INT32_MAX = (1 << 31) - 1


def _block_runs(x):
    """``(starts, counts, strided)`` of the greedy runs of *x*.

    A run starts at an op, takes the next op if it repeats the value or
    adds 16 (the next halfword), and then every op continuing that
    step.  Consecutive diffs form *segments*: maximal stretches of one
    run-extending step, or one diff extending nothing.  A run entered
    anywhere in a step segment ends one op past it, so the next run
    enters the following segment one diff late; a lone diff's run ends
    at once.  So the offset (0 or 1) at which the greedy walk enters a
    segment is 1 after a step segment of two or more diffs, 0 after a
    non-step diff, and flips across each one-diff step segment: it
    follows from the last such reset and a parity, with no walk.
    """
    n = len(x)
    if n == 1:
        one = _np.zeros(1, dtype=_np.int64)
        return one, one + 1, one.astype(bool)
    a, b = x[:-1], x[1:]
    # 0: no run step, 1: repeat, 2: +16 (exact in uint64: b > a).
    code = (a == b).astype(_np.int8)
    code[(b - a == 16) & (b > a)] = 2
    fresh = _np.empty(n - 1, dtype=bool)
    fresh[0] = True
    _np.not_equal(code[1:], code[:-1], out=fresh[1:])
    fresh[1:] |= code[1:] == 0
    first = _np.flatnonzero(fresh)
    length = _np.diff(_np.append(first, n - 1))
    step = code[first]
    flips = (step != 0) & (length == 1)
    index = _np.arange(len(first))
    last_reset = _np.maximum.accumulate(_np.where(flips, -1, index))
    # Offset into each segment: the previous reset's out-offset (1 after
    # a step segment, 0 after a lone non-step diff, 0 before the first
    # segment), flipped once per one-diff step segment since.
    reset_out = (step != 0).astype(_np.int64)
    flipped = _np.concatenate(([0], _np.cumsum(flips)))
    prior = _np.concatenate(([-1], last_reset[:-1]))
    base = _np.where(prior >= 0, reset_out[prior], 0)
    since = flipped[index] - flipped[prior + 1]
    enter = (base ^ (since & 1)).astype(_np.int64)
    out_last = (int(reset_out[-1]) if not flips[-1]
                else 1 - int(enter[-1]))
    emit = _np.where(step != 0, length > enter, enter == 0)
    starts = (first + enter)[emit]
    counts = _np.where(step != 0, length - enter + 1, 1)[emit]
    strided = (step == 2)[emit]
    if not out_last:  # the last op starts a run of its own
        starts = _np.append(starts, n - 1)
        counts = _np.append(counts, 1)
        strided = _np.append(strided, False)
    return starts, counts, strided


def encode_runs(ops):
    """Greedy lossless RLE into ``(base, heads, packed)`` delta arrays.

    The inverse of :func:`expand_runs`: 8 bytes per run, the ``int32``
    delta of the run's first value from the previous run's first value
    and ``count << 1 | stride`` as ``uint32``.  Raises ``ValueError``
    when a delta or count overflows 32 bits, which no recorded stream
    can: packed values stay below ``STACK_TOP << 3`` = 2**24.

    Greedy encoding from a run start depends only on what follows, so
    the stream is encoded in blocks that each begin at a run start:
    every run of a block but its last is final, and the last is
    encoded again at the head of the next block.
    """
    heads = array("i")
    packed = array("I")
    values = ops_view(ops)
    n = len(values)
    if not n:
        return 0, heads, packed
    base = int(values[0])
    prev = values[:1]
    start = 0
    size = _RUN_BLOCK
    while start < n:
        stop = min(n, start + size)
        starts, counts, strided = _block_runs(values[start:stop])
        if stop < n:
            if len(starts) == 1:  # one run fills the block: widen it
                size *= 2
                continue
            starts, counts, strided = starts[:-1], counts[:-1], strided[:-1]
        firsts = values[start + starts]
        before = _np.concatenate((prev, firsts[:-1]))
        up = firsts >= before
        # Exact signed deltas of uint64 values, checked against int32.
        rise = firsts - before
        fall = before - firsts
        if not (_np.all(_np.where(up, rise <= _INT32_MAX,
                                  fall <= _INT32_MAX + 1))
                and int(counts.max()) <= _INT32_MAX):
            raise ValueError("run delta or count overflows 32 bits")
        delta = _np.where(up, rise.astype(_np.int64),
                          -fall.astype(_np.int64))
        heads.frombytes(delta.astype(_np.int32).tobytes())
        packed.frombytes(((counts << 1) | strided).astype(
            _np.uint32).tobytes())
        prev = firsts[-1:]
        start += int(starts[-1] + counts[-1])
        size = _RUN_BLOCK
    return base, heads, packed
