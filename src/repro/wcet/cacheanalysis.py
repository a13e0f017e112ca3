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
(FM) with a loop scope when persistence is enabled.

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

from ..isa.opcodes import Op
from ..memory.cache import CacheConfig
from ..store import STORE_COUNTER_KEYS, ArtifactStore, LRUCache, env_capacity
from .accesses import resolve_all, resolve_data_access
from .cfg import FunctionCFG


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


def analysis_cache_dir():
    return None if _REUSE_STORE is None else _REUSE_STORE.root


def analysis_store():
    """The on-disk :class:`~repro.store.ArtifactStore`, or None."""
    return _REUSE_STORE


def set_analysis_cache_capacity(capacity):
    """Bound (or with None unbound) the in-process reuse table."""
    _REUSE_CACHE.set_capacity(capacity)


def clear_analysis_caches():
    """Drop every in-memory reuse entry (the disk layer is untouched)."""
    _REUSE_CACHE.clear()


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
# Interprocedural fixpoint + classification
# --------------------------------------------------------------------------

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
        self._entry_by_addr = {cfg.entry: name
                               for name, cfg in cfgs.items()}
        # Worklist machinery shared by the MUST and MAY fixpoints.
        self._succs = None
        self._rpo_index = None
        # Pre-resolve every instruction's data access and compile it to a
        # cheap "plan" so the fixpoint loop never re-derives address sets.
        # *resolved_accesses* (addr -> DataAccess) lets a multi-level
        # analysis resolve each instruction once and share the result
        # across every level's CacheAnalysis.
        self._data = {}
        self._plan = {}
        self._read_blocks = {}   # addr -> blocks that must all hit for AH
        for cfg in cfgs.values():
            for block in cfg.blocks.values():
                for addr, instr in block.instrs:
                    if resolved_accesses is not None:
                        access = resolved_accesses[addr]
                    else:
                        access = resolve_data_access(
                            instr, addr, image, stack_range)
                    self._data[addr] = access
                    self._plan[addr] = self._compile_plan(access)
                    self._read_blocks[addr] = self._compile_read(access)
        # Per-basic-block transfer programs: the CAC decisions, block
        # numbers and plan lookups above are all static per analysis, so
        # the fixpoint replays a flat step list instead of re-deriving
        # them on every iteration.
        self._must_progs = {}
        self._may_progs = {}
        for name, cfg in cfgs.items():
            for baddr, block in cfg.blocks.items():
                must, may = self._compile_block(block)
                self._must_progs[(name, baddr)] = must
                self._may_progs[(name, baddr)] = may
        self._compile_packed()

    def _cached_ranges(self, ranges):
        """Clip *ranges* to the part behind the cache (above the SPM)."""
        spm = self.spm_size
        if not spm:
            return ranges
        return tuple((max(lo, spm), hi) for lo, hi in ranges if hi > spm)

    def _compile_plan(self, access):
        """Compile a DataAccess into (kind, payload) steps for transfer."""
        if access is None:
            return None
        if not self.serves_data:
            return None  # instruction cache: data never touches it
        if access.unknown:
            return ("allsets", not access.is_write, access.count)
        if access.exact:
            if access.address < self.spm_size:
                return None  # settled by the scratchpad in front
            block = self.config.block_of(access.address)
            return ("wblock" if access.is_write else "rblock", block, 1)
        ranges = self._cached_ranges(access.ranges)
        if not ranges:
            return None
        blocks = set()
        for lo, hi in ranges:
            blocks.update(self._blocks_of_range(lo, hi))
        if len(blocks) == 1 and not access.is_write:
            return ("rblock", next(iter(blocks)), access.count)
        sets = tuple(sorted(self._sets_of_ranges(ranges)))
        if len(sets) == self.config.num_sets:
            return ("allsets", not access.is_write, access.count)
        return ("sets", sets, not access.is_write, access.count)

    def _compile_read(self, access):
        """Blocks that must all be resident for the read to be AH."""
        if access is None or access.is_write or access.unknown or \
                access.count != 1 or not self.serves_data:
            return None
        ranges = self._cached_ranges(access.ranges)
        if not ranges or ranges != access.ranges:
            return None  # fully or partly in front of the cache
        blocks = set()
        for lo, hi in ranges:
            blocks.update(self._blocks_of_range(lo, hi))
        if len(blocks) > 4 * self.config.assoc:
            return None  # cannot all be resident in interesting cases
        return tuple(blocks)

    # -- helpers -------------------------------------------------------------

    def _blocks_of_range(self, lo, hi):
        return self.config.blocks_in_range(lo, hi)

    def _sets_of_ranges(self, ranges):
        sets = set()
        num_sets = self.config.num_sets
        for lo, hi in ranges:
            blocks = self._blocks_of_range(lo, hi)
            if len(blocks) >= num_sets:
                return set(range(num_sets))
            for block in blocks:
                sets.add(block % num_sets)
        return sets

    def _data_cac_for(self, addr):
        if self.data_cac is None:
            return "A"
        return self.data_cac.get(addr, "U")

    # -- compiled transfer programs ---------------------------------------------

    def _compile_block(self, block):
        """Compile one basic block into flat MUST and MAY step lists.

        Everything the per-instruction transfers re-derive on every
        fixpoint iteration — spm clipping, CAC decisions, block numbers,
        plan lookups — is static for one analysis, so it is folded here
        once.  :meth:`_compile_packed` translates both lists into the
        packed programs the fixpoints run; the classification walks
        (:meth:`_transfer_block_packed`/:meth:`_transfer_block_may_packed`)
        apply the same state updates instruction by instruction.
        """
        block_of = self.config.block_of
        fetch_cac = self.fetch_cac
        must = []
        may = []
        for addr, instr in block.instrs:
            if self.serves_fetch and addr >= self.spm_size:
                cac = "A" if fetch_cac is None else fetch_cac.get(addr, "U")
                if cac != "N":
                    opcode = 0 if cac == "A" else 1
                    fetch_block = block_of(addr)
                    must.append((opcode, fetch_block))
                    may.append((0, fetch_block))
                    if instr.size == 4:
                        second = block_of(addr + 2)
                        if second != fetch_block:
                            must.append((opcode, second))
                            may.append((0, second))
            if self.serves_data:
                plan = self._plan[addr]
                if plan is None:
                    continue
                kind = plan[0]
                if kind == "rblock":
                    cac = self._data_cac_for(addr)
                    if cac == "N":
                        continue
                    _kind, target, count = plan
                    must.append((2 if cac == "A" else 3, target, count))
                    may.append((0, target))
                elif kind == "wblock":
                    must.append((4, plan[1]))
                elif kind == "sets":
                    _kind, sets, evict, count = plan
                    if evict and self._data_cac_for(addr) == "N":
                        continue
                    must.append((5, sets, evict, count))
                    if evict:
                        may.append((1, sets))
                else:  # allsets
                    _kind, evict, count = plan
                    if evict and self._data_cac_for(addr) == "N":
                        continue
                    must.append((6, evict, count))
                    if evict:
                        may.append((2,))
        return tuple(must), tuple(may)

    # -- packed (bitset) transfer programs -----------------------------------

    def _compile_packed(self):
        """Translate the logical step lists into packed-bitset programs.

        The block universe is every block the logical programs can
        insert or probe; aging counts are clamped to ``assoc`` (further
        repetitions are no-ops on a finite-age domain).  Direct-mapped
        caches get a dedicated encoding over a *single* integer state:
        runs of consecutive definite accesses fuse into one
        clear-mask/set-bits pair, writes vanish (refresh and
        no-allocate aging are both identities at assoc 1), and
        no-evict aging saturates to the identity.
        """
        universe = []
        for prog in self._must_progs.values():
            for step in prog:
                if step[0] <= 4:
                    universe.append(step[1])
        for prog in self._may_progs.values():
            for step in prog:
                if step[0] == 0:
                    universe.append(step[1])
        domain = self._packed = PackedCacheDomain(self.config, universe)
        assoc = self.config.assoc
        num_sets = self.config.num_sets
        bits = domain.bit
        set_mask = domain.set_mask
        full = domain.universe_mask
        dm = assoc == 1
        self._packed_must = {}
        self._packed_may = {}
        for node, prog in self._must_progs.items():
            steps = []
            for step in prog:
                opcode = step[0]
                if opcode in (0, 2):   # definite access (idempotent, so
                    block = step[1]    # the repeat count collapses)
                    steps.append((0, bits[block],
                                  set_mask[block % num_sets]))
                elif opcode in (1, 3):  # uncertain access
                    block = step[1]
                    count = min(step[2] if opcode == 3 else 1, assoc)
                    steps.append((1, bits[block],
                                  set_mask[block % num_sets], count))
                elif opcode == 4:       # write-through store
                    block = step[1]
                    steps.append((2, bits[block],
                                  set_mask[block % num_sets]))
                elif opcode == 5:
                    _opcode, sets, evict, count = step
                    mask = 0
                    for index in sets:
                        mask |= set_mask[index]
                    if mask:
                        steps.append((3, mask, evict, min(count, assoc)))
                else:
                    _opcode, evict, count = step
                    if full:
                        steps.append((3, full, evict, min(count, assoc)))
            self._packed_must[node] = (self._fuse_dm(steps) if dm
                                       else tuple(steps))
        for node, prog in self._may_progs.items():
            steps = []
            pending = 0  # consecutive inserts fuse into one OR mask
            for step in prog:
                opcode = step[0]
                if opcode == 0:
                    pending |= bits[step[1]]
                    continue
                if pending:
                    steps.append((0, pending))
                    pending = 0
                if opcode == 1:
                    top = blocks = 0
                    for index in step[1]:
                        top |= 1 << index
                        blocks |= set_mask[index]
                    steps.append((1, top, blocks))
                else:
                    steps.append((1, domain.all_top_mask, full))
            if pending:
                steps.append((0, pending))
            self._packed_may[node] = tuple(steps)

    @staticmethod
    def _fuse_dm(steps):
        """Re-encode packed MUST steps for a direct-mapped cache.

        State is one integer (the single age-0 word).  Step forms:
        ``(0, set_bits, keep_mask)`` fused definite-access runs
        (``w = (w & keep) | set_bits``), ``(1, bit, keep_mask)``
        uncertain access, ``(3, keep_mask)`` evicting aging.
        """
        fused = []
        clear = setb = 0
        for step in steps:
            opcode = step[0]
            if opcode == 0:
                _opcode, bit, smask = step
                setb = (setb & ~smask) | bit
                clear |= smask
                continue
            if clear or setb:
                fused.append((0, setb, ~clear))
                clear = setb = 0
            if opcode == 1:
                _opcode, bit, smask, _count = step
                fused.append((1, bit, ~smask))
            elif opcode == 3:
                _opcode, mask, evict, _count = step
                if evict:
                    fused.append((3, ~mask))
            # opcode 2 (write): refresh and no-allocate aging are both
            # identities on a direct-mapped must state -> dropped.
        if clear or setb:
            fused.append((0, setb, ~clear))
        return tuple(fused)

    @staticmethod
    def _run_must_dm(word, prog):
        for step in prog:
            opcode = step[0]
            if opcode == 0:
                word = (word & step[2]) | step[1]
            elif opcode == 1:
                if not word & step[1]:
                    word &= step[2]
            else:
                word &= step[1]
        return word

    @staticmethod
    def _run_must_packed(state, prog, assoc):
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
            else:
                for _ in range(step[3]):
                    _must_age(words, assoc, step[1], step[2])
        return tuple(words)

    @staticmethod
    def _run_may_packed(state, prog):
        blocks, top = state
        for step in prog:
            if step[0] == 0:
                blocks |= step[1]
            else:
                top |= step[1]
                blocks |= step[2]
        return (blocks, top)

    # -- packed classification walks -----------------------------------------
    #
    # The per-instruction transfers of one basic block, with a
    # ``classify`` callback at every classified access.  The differential
    # tests hold them to the dict-domain oracle instruction by
    # instruction.

    def _apply_plan_packed(self, words, plan, addr):
        if plan is None:
            return
        assoc = self.config.assoc
        domain = self._packed
        kind = plan[0]
        if kind == "rblock":
            cac = self._data_cac_for(addr)
            if cac == "N":
                return
            _kind, block, count = plan
            bit = domain.bit[block]
            smask = domain.set_mask[block % self.config.num_sets]
            if cac == "A":  # idempotent: the repeat count collapses
                _must_access(words, assoc, bit, smask)
            else:
                for _ in range(min(count, assoc)):
                    _must_uncertain(words, assoc, bit, smask)
        elif kind == "wblock":
            block = plan[1]
            _must_write(words, assoc, domain.bit[block],
                        domain.set_mask[block % self.config.num_sets])
        elif kind == "sets":
            _kind, sets, evict, count = plan
            if evict and self._data_cac_for(addr) == "N":
                return
            mask = 0
            for index in sets:
                mask |= domain.set_mask[index]
            for _ in range(min(count, assoc)):
                _must_age(words, assoc, mask, evict)
        else:  # allsets
            _kind, evict, count = plan
            if evict and self._data_cac_for(addr) == "N":
                return
            for _ in range(min(count, assoc)):
                _must_age(words, assoc, domain.universe_mask, evict)

    def _transfer_block_packed(self, words, block, classify=None):
        """Apply one basic block's accesses to MUST *words* (in place).

        With *classify*, reports whether each fetch and each classified
        read is guaranteed resident (always-hit) before it happens.
        """
        assoc = self.config.assoc
        domain = self._packed
        bits = domain.bit
        set_mask = domain.set_mask
        num_sets = self.config.num_sets
        block_of = self.config.block_of
        fetch_cac = self.fetch_cac
        top = assoc - 1
        for addr, instr in block.instrs:
            if self.serves_fetch and addr >= self.spm_size:
                cac = "A" if fetch_cac is None else fetch_cac.get(addr, "U")
                if cac != "N":
                    definite = cac == "A"
                    fetch_block = block_of(addr)
                    bit = bits[fetch_block]
                    smask = set_mask[fetch_block % num_sets]
                    if classify is not None:
                        classify(addr, "fetch", bool(words[top] & bit))
                    if definite:
                        _must_access(words, assoc, bit, smask)
                    else:
                        _must_uncertain(words, assoc, bit, smask)
                    if instr.size == 4:
                        second = block_of(addr + 2)
                        if second != fetch_block:
                            bit = bits[second]
                            smask = set_mask[second % num_sets]
                            if classify is not None and \
                                    not words[top] & bit:
                                # Both halves must hit for an AH fetch.
                                classify(addr, "fetch_second", False)
                            if definite:
                                _must_access(words, assoc, bit, smask)
                            else:
                                _must_uncertain(words, assoc, bit, smask)
            if self.serves_data:
                if classify is not None:
                    needed = self._read_blocks[addr]
                    if needed is not None:
                        resident = words[top]
                        hit = True
                        for need in needed:
                            need_bit = bits.get(need)
                            if need_bit is None or not resident & need_bit:
                                hit = False
                                break
                        classify(addr, "data", hit)
                self._apply_plan_packed(words, self._plan[addr], addr)

    def _transfer_block_may_packed(self, state, block, classify=None):
        """Apply one basic block's accesses to a MAY *state* (a mutable
        ``[blocks, top]`` pair of mask words, in place).

        With *classify*, records whether each CAC-``A`` access targets a
        block provably absent — an **always-miss**, i.e. an access that
        is Always performed at the next level down.
        """
        domain = self._packed
        bits = domain.bit
        set_mask = domain.set_mask
        num_sets = self.config.num_sets
        block_of = self.config.block_of
        fetch_cac = self.fetch_cac
        blocks, top = state
        for addr, instr in block.instrs:
            if self.serves_fetch and addr >= self.spm_size:
                cac = "A" if fetch_cac is None else fetch_cac.get(addr, "U")
                if cac != "N":
                    fetch_block = block_of(addr)
                    second = (block_of(addr + 2) if instr.size == 4
                              else fetch_block)
                    if classify is not None and cac == "A":
                        # Both halves must miss for the next level to be
                        # definitely accessed on every execution.
                        miss = not (
                            top >> (fetch_block % num_sets) & 1
                            or blocks & bits[fetch_block]
                            or top >> (second % num_sets) & 1
                            or blocks & bits[second])
                        classify(addr, "fetch", miss)
                    blocks |= bits[fetch_block]
                    if second != fetch_block:
                        blocks |= bits[second]
            if self.serves_data:
                plan = self._plan[addr]
                if plan is None:
                    continue
                kind = plan[0]
                if kind == "rblock":
                    cac = self._data_cac_for(addr)
                    if cac == "N":
                        continue
                    _kind, block_num, count = plan
                    if classify is not None and cac == "A" and count == 1:
                        miss = not (top >> (block_num % num_sets) & 1
                                    or blocks & bits[block_num])
                        classify(addr, "data", miss)
                    blocks |= bits[block_num]
                elif kind == "wblock":
                    pass  # write-through, no allocate: never inserts
                elif kind == "sets":
                    _kind, sets, evict, _count = plan
                    if evict and self._data_cac_for(addr) != "N":
                        for index in sets:
                            top |= 1 << index
                            blocks |= set_mask[index]
                else:  # allsets
                    _kind, evict, _count = plan
                    if evict and self._data_cac_for(addr) != "N":
                        top |= domain.all_top_mask
                        blocks |= domain.universe_mask
        state[0] = blocks
        state[1] = top

    # -- fixpoint ---------------------------------------------------------------

    def _interproc_succs(self):
        """Successor map over (func_name, block_addr) nodes, including
        call and return edges (context-insensitive)."""
        cfgs = self.cfgs
        succs = {}
        for name, cfg in cfgs.items():
            for baddr, block in cfg.blocks.items():
                node = (name, baddr)
                out = []
                if block.call_target is not None:
                    callee = self._entry_by_addr[block.call_target]
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

    def _succs_cached(self):
        if self._succs is None:
            self._succs = self._interproc_succs()
        return self._succs

    def _rpo(self):
        """node -> reverse-post-order index over the interprocedural
        graph (computed once, shared by the MUST and MAY fixpoints)."""
        if self._rpo_index is not None:
            return self._rpo_index
        succs = self._succs_cached()
        entry = (self.entry_name, self.cfgs[self.entry_name].entry)
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
        self._rpo_index = {node: i for i, node in enumerate(order)}
        return self._rpo_index

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
        succs = self._succs_cached()
        rpo = self._rpo()
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
                                     self._packed_must, join)

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
                                     self._packed_may, join)

    def _classify_pass(self, in_states, transfer, classify, prepare):
        for name, cfg in self.cfgs.items():
            for baddr, block in cfg.blocks.items():
                node = (name, baddr)
                if node not in in_states:
                    continue  # unreachable
                transfer(prepare(in_states[node]), block, classify=classify)

    def run(self) -> CacheAnalysisResult:
        in_states = self._must_fixpoint_packed()
        if self.config.assoc == 1:
            def must_prepare(word):
                return [word]
        else:
            must_prepare = list

        # Classification pass.
        result = CacheAnalysisResult(config=self.config)
        classes = result.classes

        def classify(addr, what, hit):
            entry = classes.setdefault(addr, AccessClass())
            if what == "fetch":
                entry.fetch = AH if hit else NC
            elif what == "fetch_second":
                entry.fetch = NC
            else:
                entry.data = AH if hit else NC

        self._classify_pass(in_states, self._transfer_block_packed,
                            classify, must_prepare)

        if self.always_miss:
            def classify_am(addr, what, miss):
                entry = classes.setdefault(addr, AccessClass())
                if what == "fetch":
                    entry.fetch_always_miss = miss
                else:
                    entry.data_always_miss = miss

            self._classify_pass(self._may_fixpoint_packed(),
                                self._transfer_block_may_packed,
                                classify_am, list)

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
        from .loops import find_natural_loops

        num_sets = self.config.num_sets
        for name, cfg in self.cfgs.items():
            loops = find_natural_loops(cfg)
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

    def all_addrs(self):
        """Every instruction address the analysis saw."""
        return self._data.keys()

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
            for addr, instr in block.instrs:
                lines.add(self.config.block_of(addr))
                if instr.size == 4:
                    lines.add(self.config.block_of(addr + 2))
                plan = self._plan[addr]
                if plan is None:
                    continue
                kind = plan[0]
                if kind in ("rblock", "wblock"):
                    lines.add(plan[1])
                elif kind == "sets":
                    dirty_sets |= set(plan[1])
                else:  # allsets
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
        if iresult is not None:
            fetch_cac = _chain_cac(fetch_cac, iresult, addrs, "fetch")
        if dresult is not None:
            data_cac = _chain_cac(data_cac, dresult, addrs, "data")
    return out
