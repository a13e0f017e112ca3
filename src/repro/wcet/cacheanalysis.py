"""Abstract-interpretation cache analysis (Ferdinand-style MUST analysis).

This is the analyser the paper attributes to aiT's cache module — with the
same restriction its experimental ARM7 version had: a **MUST analysis
only** (guaranteed cache contents), without MAY or persistence.  An
optional scope-based persistence analysis is provided as the paper's
"full cache analysis would improve things" ablation.

Domain: per cache set, a map ``memory block -> maximal LRU age`` with at
most ``assoc`` entries.  A block in the map is *guaranteed* resident.
Join is intersection with per-block maximum age (classic must-join).

Transfer per access:

* known address: the block moves to age 0; blocks younger than its old age
  (or all, if it was absent) age by one; age >= assoc evicts;
* address range (arrays with unknown index, stack accesses): every
  possibly-touched set ages by one — reads may insert an unknown block;
* writes are write-through/no-allocate: a known write refreshes a resident
  block but never allocates; an unknown write can only reshuffle recency,
  which ages conservatively without evicting.

The analysis runs over the interprocedural CFG (call and return edges,
context-insensitive), then a classification pass labels every fetch and
every data read as always-hit (AH) / not-classified (NC), plus first-miss
(FM) with a loop scope when persistence is enabled.  Both run the same
compiled per-block step programs, the one executable definition of every
transfer: classification runs each reachable block's program once from
its fixpoint in-state, with probe steps where accesses are classified,
and the fixpoints run it without them.  What an access touches — its
fetched blocks, its data access's block span behind the scratchpad, the
blocks a read needs resident — depends only on the image, the line size
and the scratchpad split, so it is derived once per
:class:`AccessLayout` and every configuration of a sweep shares it; a
configuration's compile only maps blocks to its sets and applies its
CAC maps.

Multi-level hierarchies (Hardy & Puaut, "WCET analysis of multi-level
set-associative instruction caches"): each cache level is analysed in
turn, outermost first, under a **cache access classification** (CAC)
derived from the level above — an access is *Always* performed at L1;
at level k+1 it is *Never* performed when level k classified it
always-hit, *Always* performed when level k classified it always-miss
(a MAY analysis proves the block cannot be resident), and *Uncertain*
otherwise.  Uncertain accesses use a joined transfer
(state-with-access ⊓ state-without), which keeps the deeper level's MUST
state sound whether or not the access reaches it; only A accesses (and
write-through stores) insert must-facts at the deeper level, exactly as
in Hardy & Puaut.  Context-insensitive CAC makes deep always-miss facts
rare (an instruction executed twice may hit the second time), so L2
MUST classification is honest but conservative — the cost model prices
unclassified L1 misses all the way to main memory.
:func:`analyze_hierarchy` orchestrates the per-level runs for any
pipeline a :class:`~repro.memory.hierarchy.SystemConfig` can express —
unified, instruction-only, split I/D, hybrid SPM+cache, L1+L2.

Two engineering layers sit on top of the abstract domain (see
``docs/performance.md``):

* the **packed bitset domain** (:class:`PackedCacheDomain`): every cache
  block one analysis can insert is numbered once, a MUST state becomes
  ``assoc`` cumulative age masks (word *k* holds the blocks of age <= k)
  and a MAY state a single possibly-resident mask plus a per-set TOP
  mask, so transfers and joins are a handful of bulk ``&``/``|``
  operations and a state's fingerprint is the word tuple itself.  States
  are hash-consed (interned), so the fixpoint's out-state memoization
  and join change-detection are pointer comparisons.  The dict-based
  MUST/MAY semantics this domain encodes are the test oracle in
  ``tests/oracles``, which holds the kernels below and every
  classification to them;
* a **content-addressed analysis reuse cache** keyed by (image content
  hash, cache config, CAC inputs, ...): :func:`analyze_hierarchy`
  consults it before running a level's fixpoints, so a sweep point that
  varies only the SPM capacity or an unrelated level skips every
  unchanged per-level analysis.  :func:`set_analysis_cache_dir` adds a
  shared on-disk layer so ``repro-experiments --jobs N`` workers reuse
  each other's fixpoints, not just their own.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..memory.cache import CacheConfig
from ..store import STORE_COUNTER_KEYS, ArtifactStore, LRUCache, env_capacity
from .accesses import resolve_all
from .loops import find_natural_loops


# --------------------------------------------------------------------------
# Packed bitset domain
# --------------------------------------------------------------------------
#
# A MUST state over a fixed block universe is a tuple of ``assoc``
# integers: word ``k`` has bit ``i`` set iff universe block ``i`` is
# guaranteed resident with LRU age <= k (cumulative encoding).  The
# cumulative form makes the must-join (intersection with per-block
# maximum age) a plain pointwise AND.  All transfers are expressed with
# a per-set mask ``smask`` (the universe bits mapping to the accessed
# set), so one access costs O(assoc) whole-word operations however many
# blocks the set holds.  The functions below are the single executable
# definition the analysis's compiled step programs and classification
# walks share.

def _must_access(w, assoc, bit, smask):
    """Definite access: *bit* to age 0, younger set-mates age (+evict)."""
    if assoc == 1:
        w[0] = (w[0] & ~smask) | bit
        return
    age = assoc
    for k in range(assoc):
        if w[k] & bit:
            age = k
            break
    # Set-mates younger than the old age shift up one; words >= the old
    # age already contain both them and *bit*, so they are untouched
    # (when absent, "old age" is assoc and the top word shifts too,
    # evicting the blocks that were at age assoc-1).
    for k in range((age if age < assoc else assoc) - 1, 0, -1):
        w[k] = (w[k] & ~smask) | (w[k - 1] & smask) | bit
    w[0] = (w[0] & ~smask) | bit


def _must_uncertain(w, assoc, bit, smask):
    """CAC-``U`` read: *bit* keeps its age, set-mates age as if accessed."""
    age = None
    for k in range(assoc):
        if w[k] & bit:
            age = k
            break
    if age == 0:
        return
    if age is None:  # not guaranteed resident: whole set ages, evicting
        for k in range(assoc - 1, 0, -1):
            w[k] = (w[k] & ~smask) | (w[k - 1] & smask)
        w[0] &= ~smask
        return
    # Set-mates younger than *bit*'s (kept) age shift up one; words at
    # and above that age keep their contents (bit included).
    for k in range(age - 1, 0, -1):
        w[k] = (w[k] & ~smask) | (w[k - 1] & smask)
    w[0] &= ~smask


def _must_write(w, assoc, bit, smask):
    """Write-through store: refresh when resident, else age-no-evict."""
    if w[assoc - 1] & bit:
        _must_access(w, assoc, bit, smask)
        return
    for k in range(assoc - 2, 0, -1):
        w[k] = (w[k] & ~smask) | (w[k - 1] & smask)
    if assoc > 1:
        w[0] &= ~smask


def _must_age(w, assoc, mask, evict):
    """Unknown access touching the sets in *mask*: age them all."""
    if evict:
        for k in range(assoc - 1, 0, -1):
            w[k] = (w[k] & ~mask) | (w[k - 1] & mask)
        w[0] &= ~mask
    else:  # saturate at age assoc-1 (no eviction)
        for k in range(assoc - 2, 0, -1):
            w[k] = (w[k] & ~mask) | (w[k - 1] & mask)
        if assoc > 1:
            w[0] &= ~mask


class PackedCacheDomain:
    """Bit numbering of a fixed universe of cache blocks.

    The universe is every block an analysis can ever *insert* (fetch
    targets and resolved read/write targets); blocks outside it can only
    matter through the MAY domain's per-set TOP sentinel.  MUST states
    are ``assoc``-tuples of cumulative age masks, MAY states are
    ``(blocks, top)`` pairs (possibly-resident mask, per-set-index TOP
    mask).  States are immutable values, which is what makes
    hash-consing them sound.
    """

    def __init__(self, config: CacheConfig, blocks):
        self.config = config
        self.blocks = tuple(dict.fromkeys(blocks))
        self.bit = {block: 1 << i for i, block in enumerate(self.blocks)}
        num_sets = config.num_sets
        self.set_mask = [0] * num_sets
        for block, bit in self.bit.items():
            self.set_mask[block % num_sets] |= bit
        self.universe_mask = (1 << len(self.blocks)) - 1
        self.all_top_mask = (1 << num_sets) - 1


# --------------------------------------------------------------------------
# Hash-consing and the analysis reuse cache
# --------------------------------------------------------------------------

#: Process-wide instrumentation (``repro-cc wcet --profile`` prints it).
COUNTERS = {
    "intern_hits": 0,
    "intern_misses": 0,
    "reuse_hits": 0,
    "reuse_disk_hits": 0,
    "reuse_misses": 0,
    "reuse_evictions": 0,
    "layout_builds": 0,
    "layout_reuses": 0,
}

#: Bump when analysis semantics change: invalidates on-disk reuse entries.
_CACHE_VERSION = "wcet-bitset-1"


def _count_reuse_eviction():
    COUNTERS["reuse_evictions"] += 1


#: In-process reuse table: bounded LRU (REPRO_REUSE_CACHE_CAP knob,
#: 0 = unbounded) instead of the unbounded dict it used to be.
_REUSE_CACHE = LRUCache(env_capacity("REPRO_REUSE_CACHE_CAP", 512),
                        on_evict=_count_reuse_eviction)

#: Shared on-disk layer (:class:`repro.store.ArtifactStore`), or None.
_REUSE_STORE = None


def _intern(table, state):
    """Hash-cons *state*: equal states share one canonical object, so
    fixpoint change-detection degrades to an ``is`` comparison."""
    cached = table.get(state)
    if cached is not None:
        COUNTERS["intern_hits"] += 1
        return cached
    table[state] = state
    COUNTERS["intern_misses"] += 1
    return state


def set_analysis_cache_dir(path, max_bytes=None):
    """Enable (or with None disable) the shared on-disk reuse layer.

    The layer is a checksummed, corruption-quarantining
    :class:`repro.store.ArtifactStore`; *max_bytes* optionally caps it
    with mtime-LRU garbage collection.
    """
    global _REUSE_STORE
    _REUSE_STORE = (None if path is None else
                    ArtifactStore(path, suffix=".pkl",
                                  max_bytes=max_bytes))


def set_analysis_cache_capacity(capacity):
    """Bound (or with None unbound) the in-process reuse table."""
    _REUSE_CACHE.set_capacity(capacity)


def clear_analysis_caches():
    """Drop every in-memory reuse entry and access layout (the disk
    layer is untouched)."""
    _REUSE_CACHE.clear()
    _LAYOUTS.clear()


def reuse_counters() -> dict:
    """The in-process counters plus the disk store's, one flat dict."""
    merged = dict(COUNTERS)
    store_counts = (_REUSE_STORE.counters if _REUSE_STORE is not None
                    else dict.fromkeys(STORE_COUNTER_KEYS, 0))
    for key in STORE_COUNTER_KEYS:
        merged[f"reuse_store_{key}"] = store_counts[key]
    return merged


def _reuse_get(key):
    result = _REUSE_CACHE.get(key)
    if result is not None:
        COUNTERS["reuse_hits"] += 1
        return result
    if _REUSE_STORE is not None:
        # Envelope-checksummed load: corrupt entries quarantine + count.
        result = _REUSE_STORE.load(key)
        if result is not None:
            _REUSE_CACHE[key] = result
            COUNTERS["reuse_hits"] += 1
            COUNTERS["reuse_disk_hits"] += 1
            return result
    COUNTERS["reuse_misses"] += 1
    return None


def _reuse_put(key, result):
    _REUSE_CACHE[key] = result
    if _REUSE_STORE is not None:
        _REUSE_STORE.store(key, result)


# --------------------------------------------------------------------------
# Classification results
# --------------------------------------------------------------------------

AH = "always-hit"
NC = "not-classified"
FM = "first-miss"     # persistence: miss once per scope entry


@dataclass
class AccessClass:
    """Classification of one instruction's memory behaviour."""

    fetch: str = NC
    #: classification of the data read (None when the op reads nothing)
    data: str = None
    #: loop-header addr of the persistence scope for FM fetches
    fetch_scope: int = None
    #: MAY analysis proved the fetch misses this level on every
    #: execution (so it is Always performed at the next level)
    fetch_always_miss: bool = False
    #: likewise for the data read
    data_always_miss: bool = False


@dataclass
class CacheAnalysisResult:
    config: CacheConfig
    #: instruction addr -> AccessClass
    classes: dict = field(default_factory=dict)

    def fetch_class(self, addr) -> str:
        entry = self.classes.get(addr)
        return entry.fetch if entry else NC

    def data_class(self, addr) -> str:
        entry = self.classes.get(addr)
        return entry.data if entry else NC

    def count(self, kind) -> int:
        total = 0
        for entry in self.classes.values():
            total += entry.fetch == kind
            total += entry.data == kind
        return total


# --------------------------------------------------------------------------
# Access layouts: one image's accesses in cache blocks
# --------------------------------------------------------------------------

#: The most recently used layouts, one per (image, stack range, line
#: size, scratchpad split).  A sweep's configurations share one, so a
#: few suffice: the paper sweep builds 3 and the cache-dse workload 39
#: (its programs in turn) with 4 kept as with 16.
_LAYOUTS = LRUCache(4)


def _clip(ranges, spm_size):
    """*ranges* without the part a scratchpad of *spm_size* settles."""
    if not spm_size:
        return ranges
    return tuple((max(lo, spm_size), hi) for lo, hi in ranges
                 if hi > spm_size)


def _spans(ranges, line_size):
    """Inclusive ``(first, last)`` block spans of byte *ranges*."""
    return tuple((lo // line_size, (hi - 1) // line_size)
                 for lo, hi in ranges if hi > lo)


class AccessLayout:
    """One image's accesses in cache blocks, at one line size, behind
    one scratchpad split.

    None of it depends on a cache's set count, associativity or CAC
    maps, so every configuration, persistence variant and level with
    this line size shares one layout (:func:`access_layout`).
    ``nodes`` maps each basic block to one ``(addr, fetch, data, need)``
    record per instruction:

    * *fetch*: the fetched block, plus the second block of a BL that
      straddles a line; None when the scratchpad serves the fetch;
    * *data*: the data access after scratchpad clipping, None when
      nothing reaches a cache: ``("rblock", block, count)`` for a read
      of one block, ``("wblock", block, 1)`` for an exact write,
      ``("span", spans, evict, count)`` for an access anywhere in block
      *spans*, ``("allsets", evict, count)`` for an unknown address
      (*evict* is False for writes, which never allocate);
    * *need*: for a read that can be always-hit, ``(spans, count,
      mask)``: the blocks that must all be resident, how many there are
      and their bits (with :attr:`never` when one lies outside the
      universe, so the read is never always-hit).

    ``blocks`` numbers the universe, every block an access can insert:
    bit *i* of a packed state stands for ``blocks[i]``.
    """

    def __init__(self, cfgs, accesses, line_size, spm_size):
        self.line_size = line_size
        self.spm_size = spm_size
        universe = {}
        # Equal fetch, data and need records are one object: a line
        # holds several instructions, a stack span serves many.
        shared = {None: None}
        rows = {}
        for name, cfg in cfgs.items():
            for baddr, block in cfg.blocks.items():
                node_rows = rows[(name, baddr)] = []
                for addr, instr in block.instrs:
                    fetch = None
                    if addr >= spm_size:
                        first = addr // line_size
                        second = (addr + 2) // line_size
                        fetch = ((first, second) if instr.size == 4
                                 and second != first else (first,))
                        for line in fetch:
                            universe.setdefault(line)
                    access = accesses[addr]
                    data = self._data(access)
                    if data is not None and data[0] != "span" and \
                            data[0] != "allsets":
                        universe.setdefault(data[1])
                    node_rows.append((addr, shared.setdefault(fetch, fetch),
                                      shared.setdefault(data, data), access))
        self.blocks = tuple(universe)
        self.never = 1 << len(self.blocks)
        bit = {line: 1 << i for i, line in enumerate(self.blocks)}
        self.nodes = {}
        for node, node_rows in rows.items():
            records = []
            for addr, fetch, data, access in node_rows:
                need = self._need(access, bit)
                records.append((addr, fetch, data,
                                shared.setdefault(need, need)))
            self.nodes[node] = tuple(records)
        self._loops = {}
        self._graphs = {}

    def _data(self, access):
        if access is None:
            return None
        evict = not access.is_write
        if access.unknown:
            return ("allsets", evict, access.count)
        if access.exact:
            if access.address < self.spm_size:
                return None  # settled by the scratchpad in front
            line = access.address // self.line_size
            return ("rblock", line, 1) if evict else ("wblock", line, 1)
        ranges = _clip(access.ranges, self.spm_size)
        if not ranges:
            return None
        spans = _spans(ranges, self.line_size)
        if evict and len(set(spans)) == 1 and spans[0][0] == spans[0][1]:
            return ("rblock", spans[0][0], access.count)
        return ("span", spans, evict, access.count)

    def _need(self, access, bit):
        if access is None or access.is_write or access.unknown or \
                access.count != 1:
            return None
        ranges = access.ranges
        if not ranges or _clip(ranges, self.spm_size) != ranges:
            return None  # fully or partly in front of the cache
        spans = _spans(ranges, self.line_size)
        lines = {line for first, last in spans
                 for line in range(first, last + 1)}
        mask = 0
        for line in lines:
            mask |= bit.get(line, self.never)
        return (spans, len(lines), mask)

    def natural_loops(self, cfg):
        """:func:`~repro.wcet.loops.find_natural_loops`, once per function."""
        loops = self._loops.get(cfg.name)
        if loops is None:
            loops = self._loops[cfg.name] = find_natural_loops(cfg)
        return loops

    def graph(self, cfgs, entry_name):
        """``(successors, RPO index)`` of the interprocedural graph from
        *entry_name*, built once (the MUST and MAY fixpoints of every
        configuration walk the same graph)."""
        graph = self._graphs.get(entry_name)
        if graph is None:
            succs = _interproc_succs(cfgs)
            graph = self._graphs[entry_name] = (
                succs, _rpo(cfgs, succs, entry_name))
        return graph


def access_layout(image, cfgs, stack_range, line_size, spm_size,
                  accesses=None) -> AccessLayout:
    """The memoised :class:`AccessLayout` of *image* at *line_size*.

    *accesses* (addr -> DataAccess) is resolved here when not supplied.
    """
    key = (image.content_key(), stack_range, line_size, spm_size)
    layout = _LAYOUTS.get(key)
    if layout is not None:
        COUNTERS["layout_reuses"] += 1
        return layout
    COUNTERS["layout_builds"] += 1
    if accesses is None:
        accesses = resolve_all(image, cfgs, stack_range)
    layout = _LAYOUTS[key] = AccessLayout(cfgs, accesses, line_size,
                                          spm_size)
    return layout


def _interproc_succs(cfgs):
    """Successor map over (func_name, block_addr) nodes, including
    call and return edges (context-insensitive)."""
    entry_by_addr = {cfg.entry: name for name, cfg in cfgs.items()}
    succs = {}
    for name, cfg in cfgs.items():
        for baddr, block in cfg.blocks.items():
            node = (name, baddr)
            out = []
            if block.call_target is not None:
                callee = entry_by_addr[block.call_target]
                out.append((callee, cfgs[callee].entry))
                # Return edge: callee exits -> call fall-through.
                for exit_block in cfgs[callee].exit_blocks:
                    ret_node = (callee, exit_block.start)
                    succs.setdefault(ret_node, []).extend(
                        (name, s) for s in block.succs)
            else:
                out.extend((name, s) for s in block.succs)
            succs.setdefault(node, []).extend(out)
    return succs


def _rpo(cfgs, succs, entry_name):
    """node -> reverse-post-order index over the interprocedural graph."""
    entry = (entry_name, cfgs[entry_name].entry)
    seen = {entry}
    order = []
    stack = [(entry, iter(succs.get(entry, ())))]
    while stack:
        node, remaining = stack[-1]
        advanced = False
        for succ in remaining:
            if succ not in seen:
                seen.add(succ)
                stack.append((succ, iter(succs.get(succ, ()))))
                advanced = True
                break
        if not advanced:
            stack.pop()
            order.append(node)
    order.reverse()
    return {node: i for i, node in enumerate(order)}


# --------------------------------------------------------------------------
# Interprocedural fixpoint + classification
# --------------------------------------------------------------------------

#: Opcode of a probe step: classify an access against the state so far.
_PROBE = 4


def _dm_fixpoint_program(steps):
    """A direct-mapped MUST fixpoint program: *steps* without probes,
    runs of definite accesses fused into one ``(0, set_bits, keep)``."""
    fused = []
    setb, keep = 0, -1
    for step in steps:
        opcode = step[0]
        if opcode == _PROBE:
            continue
        if opcode == 0:
            setb = (setb & step[2]) | step[1]
            keep &= step[2]
            continue
        if keep != -1:
            fused.append((0, setb, keep))
            setb, keep = 0, -1
        fused.append(step)
    if keep != -1:
        fused.append((0, setb, keep))
    return tuple(fused)


def _may_fixpoint_program(steps):
    """A MAY fixpoint program: *steps* without probes, runs of inserts
    fused into one OR mask."""
    fused = []
    pending = 0
    for step in steps:
        opcode = step[0]
        if opcode == 0:
            pending |= step[1]
            continue
        if opcode == _PROBE:
            continue
        if pending:
            fused.append((0, pending))
            pending = 0
        fused.append(step)
    if pending:
        fused.append((0, pending))
    return tuple(fused)


class CacheAnalysis:
    """MUST (+ optional persistence) analysis of one cache level.

    The default arguments analyse the paper's single cache: every access
    definitely happens (CAC ``A``) and the cache's ``unified`` flag
    decides whether data traffic touches it.  Deeper levels pass
    *fetch_cac*/*data_cac* maps (addr -> ``"A"``/``"U"``/``"N"``) from
    the level above, *serves_fetch*/*serves_data* to model split I/D
    arrays, and *spm_size* so accesses settled by a scratchpad in front
    never reach the tags.
    """

    def __init__(self, image, cfgs: dict, config: CacheConfig,
                 stack_range, entry_name: str, persistence=False, *,
                 serves_fetch=True, serves_data=None, spm_size=0,
                 fetch_cac=None, data_cac=None, always_miss=False,
                 resolved_accesses=None, intern_tables=None):
        self.image = image
        self.cfgs = cfgs
        self.config = config
        self.stack_range = stack_range
        self.entry_name = entry_name
        self.persistence = persistence
        self.always_miss = always_miss
        self.serves_fetch = serves_fetch
        self.serves_data = (config.unified if serves_data is None
                            else serves_data)
        self.spm_size = spm_size
        self.fetch_cac = fetch_cac
        self.data_cac = data_cac
        # Hash-consing tables, shareable across the levels of one
        # hierarchy so identical out-states are one object everywhere.
        self._intern_must, self._intern_may = (intern_tables
                                               or ({}, {}))
        # What the accesses touch is the image's, shared by every
        # configuration with this line size; *resolved_accesses* (addr
        # -> DataAccess) saves resolving them again when it is built.
        self.layout = access_layout(image, cfgs, stack_range,
                                    config.line_size, spm_size,
                                    resolved_accesses)
        self._compile()

    def _span_sets(self, spans):
        """Sorted set indices the block *spans* map to."""
        num_sets = self.config.num_sets
        sets = set()
        for first, last in spans:
            if last - first + 1 >= num_sets:
                return tuple(range(num_sets))
            sets.update(line % num_sets for line in range(first, last + 1))
        return tuple(sorted(sets))

    # -- packed (bitset) step programs ---------------------------------------

    def _compile(self):
        """Compile every basic block into packed step programs.

        The layout fixes which blocks each access touches; this maps
        them to the set masks of this cache's set count and applies the
        CAC maps.  Each block gets a *classification* program per
        domain: the transfers, with a probe step wherever an access is
        classified — a fetch before its transfer, the second half of a
        BL, a data read before its transfer, and for MAY every CAC-``A``
        fetch and single read.  The fixpoints run the same program
        without its probes.

        MUST step forms: ``(0, bit, smask)`` definite access (the
        repeat count collapses: it is idempotent), ``(1, bit, smask,
        count)`` uncertain access, ``(2, bit, smask)`` write-through
        store, ``(3, mask, evict, count)`` aging; counts are clamped to
        ``assoc``, beyond which they are no-ops.  A direct-mapped cache
        gets a dedicated encoding over a *single* integer state:
        ``(0, set_bits, keep)``, ``(1, bit, keep)`` and ``(3, keep)``;
        writes and no-evict aging vanish (both are identities at assoc
        1), and the fixpoint program fuses runs of definite accesses.
        MAY step forms: ``(0, bits)`` insert, ``(1, top, blocks)`` mark
        sets TOP.  Probe steps are ``(4, what, addr, ...)``.
        """
        layout = self.layout
        domain = PackedCacheDomain(self.config, layout.blocks)
        bits = domain.bit
        set_mask = domain.set_mask
        full = domain.universe_mask
        all_top = domain.all_top_mask
        assoc = self.config.assoc
        num_sets = self.config.num_sets
        dm = assoc == 1
        serves_fetch = self.serves_fetch
        serves_data = self.serves_data
        fetch_cac = self.fetch_cac
        may = self.always_miss
        reach = 4 * assoc  # more blocks cannot all be resident
        data_cac = self.data_cac
        probe = _PROBE
        span_masks = {}
        self._must_progs, self._must_probes = {}, {}
        self._may_progs, self._may_probes = {}, {}
        for name, cfg in self.cfgs.items():
            for baddr in cfg.blocks:
                node = (name, baddr)
                must = []
                may_steps = []
                append = must.append
                for addr, fetch, data, need in layout.nodes[node]:
                    if serves_fetch and fetch is not None:
                        cac = ("A" if fetch_cac is None
                               else fetch_cac.get(addr, "U"))
                        if cac != "N":
                            definite = cac == "A"
                            what = "fetch"
                            inserts = top = 0
                            for line in fetch:
                                bit = bits[line]
                                index = line % num_sets
                                append((probe, what, addr, bit))
                                what = "fetch_second"
                                if dm:
                                    append((0 if definite else 1, bit,
                                            ~set_mask[index]))
                                elif definite:
                                    append((0, bit, set_mask[index]))
                                else:
                                    append((1, bit, set_mask[index], 1))
                                inserts |= bit
                                top |= 1 << index
                            if may:
                                if definite:
                                    # Both halves must miss for the next
                                    # level to be accessed every time.
                                    may_steps.append((probe, "fetch", addr,
                                                      top, inserts))
                                may_steps.append((0, inserts))
                    if not serves_data:
                        continue
                    if need is not None and need[1] <= reach:
                        append((probe, "data", addr, need[2]))
                    if data is None:
                        continue
                    kind = data[0]
                    if kind == "rblock":
                        cac = ("A" if data_cac is None
                               else data_cac.get(addr, "U"))
                        if cac == "N":
                            continue
                        _kind, line, count = data
                        bit = bits[line]
                        index = line % num_sets
                        if dm:
                            append((0 if cac == "A" else 1, bit,
                                    ~set_mask[index]))
                        elif cac == "A":
                            append((0, bit, set_mask[index]))
                        else:
                            append((1, bit, set_mask[index],
                                    min(count, assoc)))
                        if may:
                            if cac == "A" and count == 1:
                                may_steps.append((probe, "data", addr,
                                                  1 << index, bit))
                            may_steps.append((0, bit))
                    elif kind == "wblock":
                        if not dm:
                            line = data[1]
                            append((2, bits[line],
                                    set_mask[line % num_sets]))
                    else:
                        if kind == "span":
                            _kind, spans, evict, count = data
                            masks = span_masks.get(spans)
                            if masks is None:
                                mask = top = 0
                                for index in self._span_sets(spans):
                                    mask |= set_mask[index]
                                    top |= 1 << index
                                masks = span_masks[spans] = (mask, top)
                            mask, top = masks
                        else:
                            _kind, evict, count = data
                            mask, top = full, all_top
                        if evict and data_cac is not None and \
                                data_cac.get(addr, "U") == "N":
                            continue
                        if mask and not dm:
                            append((3, mask, evict, min(count, assoc)))
                        elif mask and evict:
                            append((3, ~mask))
                        if may and evict:
                            may_steps.append((1, top, mask))
                self._must_probes[node] = must = tuple(must)
                self._must_progs[node] = (
                    _dm_fixpoint_program(must) if dm else
                    tuple(step for step in must if step[0] != probe))
                if may:
                    self._may_probes[node] = tuple(may_steps)
                    self._may_progs[node] = _may_fixpoint_program(
                        may_steps)

    @staticmethod
    def _run_must_dm(word, prog, probe=None):
        for step in prog:
            opcode = step[0]
            if opcode == 0:
                word = (word & step[2]) | step[1]
            elif opcode == 1:
                if not word & step[1]:
                    word &= step[2]
            elif opcode == 3:
                word &= step[1]
            else:
                probe(step[1], step[2], word & step[3] == step[3])
        return word

    @staticmethod
    def _run_must_packed(state, prog, assoc, probe=None):
        words = list(state)
        for step in prog:
            opcode = step[0]
            if opcode == 0:
                _must_access(words, assoc, step[1], step[2])
            elif opcode == 1:
                for _ in range(step[3]):
                    _must_uncertain(words, assoc, step[1], step[2])
            elif opcode == 2:
                _must_write(words, assoc, step[1], step[2])
            elif opcode == 3:
                for _ in range(step[3]):
                    _must_age(words, assoc, step[1], step[2])
            else:
                probe(step[1], step[2], words[-1] & step[3] == step[3])
        return tuple(words)

    @staticmethod
    def _run_may_packed(state, prog, probe=None):
        blocks, top = state
        for step in prog:
            opcode = step[0]
            if opcode == 0:
                blocks |= step[1]
            elif opcode == 1:
                top |= step[1]
                blocks |= step[2]
            else:
                probe(step[1], step[2], top & step[3] or blocks & step[4])
        return (blocks, top)

    # -- fixpoint ---------------------------------------------------------------

    def _fixpoint_packed(self, entry_state, run_prog, progs, join):
        """Reverse-post-order worklist fixpoint; returns in-states.

        Nodes are processed in RPO (a priority queue over the RPO
        index), so a change flows through a whole procedure before its
        loop headers are revisited.  States are hash-consed integer
        words: the out-state memo and the join change test are both
        pointer (``is``) comparisons, and an unchanged join costs one
        AND/OR pass plus a dict probe.
        """
        import heapq

        cfgs = self.cfgs
        entry = (self.entry_name, cfgs[self.entry_name].entry)
        in_states = {entry: entry_state}
        succs, rpo = self.layout.graph(cfgs, self.entry_name)
        fallback = len(rpo)

        heap = [(rpo.get(entry, fallback), entry)]
        pending = {entry}
        out_memo = {}
        iterations = 0
        limit = 400 * sum(len(c.blocks) for c in cfgs.values()) + 10_000
        while heap:
            iterations += 1
            if iterations > limit:
                raise RuntimeError("cache fixpoint failed to converge")
            _, node = heapq.heappop(heap)
            pending.discard(node)
            out = run_prog(in_states[node], progs[node])
            if out_memo.get(node) is out:
                continue  # same interned out-state: nothing to push
            out_memo[node] = out
            for succ in succs.get(node, ()):
                current = in_states.get(succ)
                if current is None:
                    in_states[succ] = out
                else:
                    joined = join(current, out)
                    if joined is current:
                        continue
                    in_states[succ] = joined
                if succ not in pending:
                    pending.add(succ)
                    heapq.heappush(heap, (rpo.get(succ, fallback), succ))
        return in_states

    def _must_fixpoint_packed(self):
        table = self._intern_must
        if self.config.assoc == 1:
            run_dm = self._run_must_dm

            def run_prog(state, prog):
                return _intern(table, run_dm(state, prog))

            def join(a, b):
                if a is b:
                    return a
                return _intern(table, a & b)

            entry_state = _intern(table, 0)
        else:
            run_packed = self._run_must_packed
            assoc = self.config.assoc

            def run_prog(state, prog):
                return _intern(table, run_packed(state, prog, assoc))

            def join(a, b):
                if a is b:
                    return a
                return _intern(table, tuple(x & y for x, y in zip(a, b)))

            entry_state = _intern(table, (0,) * assoc)
        return self._fixpoint_packed(entry_state, run_prog,
                                     self._must_progs, join)

    def _may_fixpoint_packed(self):
        table = self._intern_may
        run_may = self._run_may_packed

        def run_prog(state, prog):
            return _intern(table, run_may(state, prog))

        def join(a, b):
            if a is b:
                return a
            return _intern(table, (a[0] | b[0], a[1] | b[1]))

        entry_state = _intern(table, (0, 0))
        return self._fixpoint_packed(entry_state, run_prog,
                                     self._may_progs, join)

    def _reached(self, in_states):
        """``(node, in-state)`` of every reachable block, in CFG order:
        the order classification records accesses in."""
        for name, cfg in self.cfgs.items():
            for baddr in cfg.blocks:
                state = in_states.get((name, baddr))
                if state is not None:
                    yield (name, baddr), state

    def run(self) -> CacheAnalysisResult:
        result = CacheAnalysisResult(config=self.config)
        classes = result.classes

        def must_probe(what, addr, hit):
            entry = classes.get(addr)
            if entry is None:
                entry = classes[addr] = AccessClass()
            if what == "fetch":
                entry.fetch = AH if hit else NC
            elif what == "data":
                entry.data = AH if hit else NC
            elif not hit:  # a BL's second half: both must hit for AH
                entry.fetch = NC

        # Classification: each reachable block's probe program, from
        # the block's fixpoint in-state.
        in_states = self._must_fixpoint_packed()
        assoc = self.config.assoc
        for node, state in self._reached(in_states):
            if assoc == 1:
                self._run_must_dm(state, self._must_probes[node],
                                  must_probe)
            else:
                self._run_must_packed(state, self._must_probes[node],
                                      assoc, must_probe)

        if self.always_miss:
            def may_probe(what, addr, possible):
                entry = classes.get(addr)
                if entry is None:
                    entry = classes[addr] = AccessClass()
                if what == "fetch":
                    entry.fetch_always_miss = not possible
                else:
                    entry.data_always_miss = not possible

            for node, state in self._reached(self._may_fixpoint_packed()):
                self._run_may_packed(state, self._may_probes[node],
                                     may_probe)

        if self.persistence:
            self._apply_persistence(result)
        return result

    # -- persistence (optional ablation) ---------------------------------------

    def _apply_persistence(self, result: CacheAnalysisResult):
        """Upgrade NC fetches to first-miss where a loop scope protects them.

        A fetch line is persistent in a loop if the distinct lines possibly
        touched inside the loop that map to its cache set fit in the set
        (and no unbounded access can reach that set).  Scopes do not cross
        function boundaries; outermost qualifying scope wins.
        """
        num_sets = self.config.num_sets
        for name, cfg in self.cfgs.items():
            loops = self.layout.natural_loops(cfg)
            if not loops:
                continue
            ordered = sorted(loops.values(), key=lambda l: -len(l.body))
            for loop in ordered:
                lines, dirty_sets, clean = self._loop_footprint(cfg, loop)
                if not clean:
                    continue
                per_set = {}
                for line in lines:
                    per_set.setdefault(line % num_sets, set()).add(line)
                for baddr in loop.body:
                    for addr, instr in cfg.blocks[baddr].instrs:
                        entry = result.classes.get(addr)
                        if entry is None or entry.fetch != NC:
                            continue
                        line = self.config.block_of(addr)
                        index = line % num_sets
                        if index in dirty_sets:
                            continue
                        if len(per_set.get(index, ())) <= self.config.assoc:
                            entry.fetch = FM
                            entry.fetch_scope = loop.header

    def _loop_footprint(self, cfg, loop):
        """(fetch/data lines, sets touched by range accesses, analysable)."""
        lines = set()
        dirty_sets = set()
        for baddr in loop.body:
            block = cfg.blocks[baddr]
            if block.call_target is not None:
                # Calls inside the loop: every line the callee (closure)
                # may touch would need collecting; be conservative and
                # give up on this scope.
                return set(), set(), False
            records = self.layout.nodes[(cfg.name, baddr)]
            for (addr, instr), (_addr, _fetch, data, _need) in zip(
                    block.instrs, records):
                lines.add(self.config.block_of(addr))
                if instr.size == 4:
                    lines.add(self.config.block_of(addr + 2))
                if data is None or not self.serves_data:
                    continue
                kind = data[0]
                if kind in ("rblock", "wblock"):
                    lines.add(data[1])
                elif kind == "span":
                    dirty_sets.update(self._span_sets(data[1]))
                else:  # an unknown address
                    return set(), set(), False
        return lines, dirty_sets, True


# --------------------------------------------------------------------------
# Multi-level orchestration (Hardy & Puaut-style CAC chaining)
# --------------------------------------------------------------------------

@dataclass
class LevelClassification:
    """Per-level classification results for one cache level."""

    level: object  # CacheLevel spec
    #: classification of instruction fetches at this level (None when the
    #: level has no instruction side)
    iresult: CacheAnalysisResult = None
    #: classification of data accesses (same object as iresult for a
    #: unified level)
    dresult: CacheAnalysisResult = None


@dataclass
class HierarchyCacheResult:
    """Classifications for every cache level of a pipeline.

    ``primary`` is the outermost level's result — for the paper's
    single-cache systems it is exactly what the old single-level
    analysis produced.
    """

    levels: list = field(default_factory=list)

    @property
    def primary(self) -> CacheAnalysisResult:
        first = self.levels[0]
        return first.iresult if first.iresult is not None else first.dresult

    def fetch_results(self):
        """(CacheLevel, CacheAnalysisResult) along the fetch path."""
        return [(entry.level, entry.iresult) for entry in self.levels
                if entry.iresult is not None]

    def data_results(self):
        """(CacheLevel, CacheAnalysisResult) along the data path."""
        return [(entry.level, entry.dresult) for entry in self.levels
                if entry.dresult is not None]


def _chain_cac(prev_cac, result, addrs, what):
    """CAC for the next level down, given this level's classification.

    ``N`` (never reaches the next level) when the access already never
    reached this one or is guaranteed to hit here; ``A`` when it
    definitely reached this level and the MAY analysis proved it always
    misses; ``U`` otherwise.
    """
    nxt = {}
    for addr in addrs:
        prev = "A" if prev_cac is None else prev_cac.get(addr, "U")
        if prev == "N":
            nxt[addr] = "N"
            continue
        entry = result.classes.get(addr)
        if what == "fetch":
            cls = entry.fetch if entry else NC
            am = entry.fetch_always_miss if entry else False
        else:
            cls = entry.data if entry else None
            am = entry.data_always_miss if entry else False
        if cls == AH:
            nxt[addr] = "N"
        elif prev == "A" and am:
            nxt[addr] = "A"
        else:
            nxt[addr] = "U"
    return nxt


def _cac_fingerprint(cac):
    return None if cac is None else tuple(sorted(cac.items()))


def analyze_hierarchy(image, cfgs, config, stack_range, entry_name,
                      persistence=False, resolved_accesses=None,
                      reuse=True) -> HierarchyCacheResult:
    """Classify every cache level of *config*'s pipeline, outermost first.

    *config* is a :class:`~repro.memory.hierarchy.SystemConfig`.  Each
    level is analysed under the CAC derived from the level above;
    persistence (first-miss) applies to the outermost level only, where
    every access is definite.  *resolved_accesses* (addr -> DataAccess)
    is computed here when not supplied and shared by every level's
    analysis, so address resolution runs once per image rather than
    once per cache level.

    With *reuse* (the default) each per-level run goes through the
    content-addressed reuse cache: the key is the image's content hash
    plus everything else a level's result depends on (its cache config,
    the CAC maps chained from the level above, the SPM clip, the served
    sides, persistence/always-miss), so a sweep
    point that changes only an unrelated level — or a repeat of the
    same point in another worker process, via the shared disk layer —
    skips the fixpoints entirely.
    """
    spm_size = config.spm_size
    specs = config.cache_level_specs
    if resolved_accesses is None:
        resolved_accesses = resolve_all(image, cfgs, stack_range)
    image_key = image.content_key() if reuse else None
    intern_tables = ({}, {})

    def run_level(cache_config, *, outermost, chained, serves_fetch,
                  serves_data, fetch_cac=None, data_cac=None):
        use_persistence = persistence and outermost
        if image_key is not None:
            key = (_CACHE_VERSION, image_key, cache_config,
                   stack_range, entry_name, spm_size, use_persistence,
                   chained, serves_fetch, serves_data,
                   _cac_fingerprint(fetch_cac), _cac_fingerprint(data_cac))
            cached = _reuse_get(key)
            if cached is not None:
                return cached
        result = CacheAnalysis(
            image, cfgs, cache_config, stack_range, entry_name,
            persistence=use_persistence, serves_fetch=serves_fetch,
            serves_data=serves_data, spm_size=spm_size,
            fetch_cac=fetch_cac, data_cac=data_cac, always_miss=chained,
            resolved_accesses=resolved_accesses,
            intern_tables=intern_tables).run()
        if image_key is not None:
            _reuse_put(key, result)
        return result

    fetch_cac = None
    data_cac = None
    out = HierarchyCacheResult()
    addrs = list(resolved_accesses)
    for depth, level in enumerate(specs):
        outermost = depth == 0
        # Always-miss (MAY) facts are only needed to seed the CAC of a
        # deeper level; the innermost analysis can skip that pass.
        chained = depth + 1 < len(specs)
        iresult = dresult = None
        if level.shared:
            iresult = dresult = run_level(
                level.icache, outermost=outermost, chained=chained,
                serves_fetch=True, serves_data=True,
                fetch_cac=fetch_cac, data_cac=data_cac)
        else:
            if level.icache is not None:
                iresult = run_level(
                    level.icache, outermost=outermost, chained=chained,
                    serves_fetch=True, serves_data=False,
                    fetch_cac=fetch_cac)
            if level.dcache is not None:
                dresult = run_level(
                    level.dcache, outermost=False, chained=chained,
                    serves_fetch=False, serves_data=True,
                    data_cac=data_cac)
        out.levels.append(LevelClassification(
            level=level, iresult=iresult, dresult=dresult))
        if not chained:
            break
        if iresult is not None:
            fetch_cac = _chain_cac(fetch_cac, iresult, addrs, "fetch")
        if dresult is not None:
            data_cac = _chain_cac(data_cac, dresult, addrs, "data")
    return out
