"""The dict abstract cache domain: the packed analysis's reference.

:class:`MustCache` and :class:`MayCache` spell the MUST and MAY
semantics out one block at a time: per cache set a ``block -> maximal
LRU age`` map (absence means "not guaranteed resident"), and a per-set
possibly-resident block set with a TOP sentinel.  The shipped analysis
(``repro.wcet.cacheanalysis``) packs both into bitsets and compiles its
transfers into step programs; :class:`DictCacheAnalysis` runs the same
interprocedural fixpoint and classification over these dicts instead.
The differentials put it in place of ``CacheAnalysis`` and expect
instruction-identical classifications; :func:`must_decode` and
:func:`may_decode` expand packed states for the random-trace
differentials.
"""

import heapq

from repro.memory import CacheConfig
from repro.wcet import cacheanalysis
from repro.wcet.accesses import resolve_data_access
from repro.wcet.cacheanalysis import AH, NC, AccessClass, CacheAnalysisResult


class MustCache:
    """Per-set ``block -> max age`` maps; absence means "not guaranteed"."""

    __slots__ = ("config", "sets")

    def __init__(self, config: CacheConfig, sets=None):
        self.config = config
        self.sets = sets if sets is not None else {}

    def copy(self) -> "MustCache":
        return MustCache(self.config,
                         {s: dict(ages) for s, ages in self.sets.items()})

    def fingerprint(self):
        """Hashable snapshot of the abstract state.

        The fixpoint driver memoizes each node's out-state fingerprint,
        so an unchanged transfer result short-circuits all successor
        joins instead of deep-comparing dicts edge by edge.
        """
        return tuple(sorted(
            (index, tuple(sorted(ages.items())))
            for index, ages in self.sets.items() if ages))

    # -- transfer -----------------------------------------------------------

    def _age_younger(self, ages, block: int, threshold: int):
        """Age (and evict past assoc) every block younger than
        *threshold*, except *block* itself — the LRU aging both the
        definite and the uncertain transfer share."""
        for other, age in list(ages.items()):
            if other != block and age < threshold:
                new_age = age + 1
                if new_age >= self.config.assoc:
                    del ages[other]
                else:
                    ages[other] = new_age

    def access_block(self, block: int, allocate=True):
        """A definite access to *block* (read, or write hit refresh)."""
        config = self.config
        index = (block % config.num_sets)
        ages = self.sets.get(index)
        if ages is None:
            if not allocate:
                return
            ages = self.sets[index] = {}
        old_age = ages.get(block)
        if old_age is None:
            if not allocate:
                # Write miss, no allocation: recency may shift arbitrarily
                # among resident blocks -> age everyone, no eviction.
                for other in ages:
                    ages[other] = min(ages[other] + 1, config.assoc - 1)
                return
            threshold = config.assoc  # everyone ages
        else:
            threshold = old_age
        self._age_younger(ages, block, threshold)
        ages[block] = 0

    def access_block_uncertain(self, block: int):
        """A read of *block* that may or may not occur (CAC ``U``).

        Equivalent to ``join(state after access, state unchanged)`` but
        computed in place: the accessed block never gains residency or
        youth, every other block ages as the definite access would have
        aged it.  Sound whichever way the uncertainty resolves.  (Writes
        never take this path — write-through stores reach every level
        definitely.)
        """
        index = block % self.config.num_sets
        ages = self.sets.get(index)
        if not ages:
            return
        old_age = ages.get(block)
        threshold = self.config.assoc if old_age is None else old_age
        self._age_younger(ages, block, threshold)
        if not ages:
            del self.sets[index]

    def age_set(self, index: int, evict=True):
        """An unknown access may touch set *index*: age everything."""
        ages = self.sets.get(index)
        if not ages:
            return
        for block, age in list(ages.items()):
            new_age = age + 1
            if evict and new_age >= self.config.assoc:
                del ages[block]
            else:
                ages[block] = min(new_age, self.config.assoc - 1)
        if not ages:
            del self.sets[index]

    def contains(self, block: int) -> bool:
        index = block % self.config.num_sets
        return block in self.sets.get(index, ())

    def join_with(self, other: "MustCache") -> bool:
        """In-place must-join (intersection, max age); True if changed."""
        changed = False
        for index in list(self.sets):
            ages = self.sets[index]
            other_ages = other.sets.get(index, {})
            for block in list(ages):
                if block not in other_ages:
                    del ages[block]
                    changed = True
                elif other_ages[block] > ages[block]:
                    ages[block] = other_ages[block]
                    changed = True
            if not ages:
                del self.sets[index]
        return changed


#: Sentinel: a MayCache set that may contain *any* block.
MAY_TOP = "may-top"


class MayCache:
    """Per-set overapproximation of possibly-resident blocks.

    Deliberately coarse: blocks are never evicted (the set only grows),
    so membership is monotone and the fixpoint converges in a couple of
    sweeps.  A block *absent* from the may-state is guaranteed not
    resident — its access is **always-miss**, which is what licenses a
    CAC of ``A`` at the next level down (Hardy & Puaut).  Range and
    unknown accesses may load any block of their sets, modelled by the
    :data:`MAY_TOP` sentinel.
    """

    __slots__ = ("config", "sets")

    def __init__(self, config: CacheConfig, sets=None):
        self.config = config
        self.sets = sets if sets is not None else {}

    def copy(self) -> "MayCache":
        return MayCache(self.config,
                        {s: (blocks if blocks is MAY_TOP else set(blocks))
                         for s, blocks in self.sets.items()})

    def fingerprint(self):
        """Hashable snapshot (see :meth:`MustCache.fingerprint`)."""
        return tuple(sorted(
            (index, MAY_TOP if blocks is MAY_TOP
             else tuple(sorted(blocks)))
            for index, blocks in self.sets.items() if blocks))

    def add_block(self, block: int):
        index = block % self.config.num_sets
        blocks = self.sets.get(index)
        if blocks is MAY_TOP:
            return
        if blocks is None:
            self.sets[index] = {block}
        else:
            blocks.add(block)

    def mark_top(self, index: int):
        self.sets[index] = MAY_TOP

    def mark_all_top(self):
        for index in range(self.config.num_sets):
            self.sets[index] = MAY_TOP

    def may_contain(self, block: int) -> bool:
        blocks = self.sets.get(block % self.config.num_sets)
        return blocks is MAY_TOP or (blocks is not None and block in blocks)

    def join_with(self, other: "MayCache") -> bool:
        """In-place may-join (union); True if changed."""
        changed = False
        for index, theirs in other.sets.items():
            mine = self.sets.get(index)
            if mine is MAY_TOP:
                continue
            if theirs is MAY_TOP:
                self.sets[index] = MAY_TOP
                changed = True
            elif mine is None:
                self.sets[index] = set(theirs)
                changed = True
            elif not theirs <= mine:
                mine |= theirs
                changed = True
        return changed


def must_decode(domain, words) -> MustCache:
    """Expand packed MUST *words* over *domain*'s universe to a dict."""
    state = MustCache(domain.config)
    num_sets = domain.config.num_sets
    for block, bit in domain.bit.items():
        for age, word in enumerate(words):
            if word & bit:
                state.sets.setdefault(block % num_sets, {})[block] = age
                break
    return state


def may_decode(domain, blocks, top) -> MayCache:
    """Expand a packed ``(blocks, top)`` MAY state to a dict."""
    state = MayCache(domain.config)
    for index in range(domain.config.num_sets):
        if top >> index & 1:
            state.mark_top(index)
    for block, bit in domain.bit.items():
        if blocks & bit:
            state.add_block(block)
    return state


class DictCacheAnalysis(cacheanalysis.CacheAnalysis):
    """``CacheAnalysis`` with the dict-domain fixpoint and classification.

    The CAC maps, the interprocedural graph, the order of reachable
    blocks and the persistence pass are the shipped analysis's own.  Every access
    plan, state transfer, join and classification below is this
    module's: plans come from the resolved accesses, not the shipped
    access layout, and the fixpoint applies the per-instruction
    transfers directly, not the shipped analysis's compiled step
    programs.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # The per-access plans, derived from the resolved accesses here
        # rather than read from the shipped access layout.
        self._plan = {}
        self._read_blocks = {}
        for cfg in self.cfgs.values():
            for block in cfg.blocks.values():
                for addr, instr in block.instrs:
                    access = resolve_data_access(instr, addr, self.image,
                                                 self.stack_range)
                    self._plan[addr] = self._compile_plan(access)
                    self._read_blocks[addr] = self._compile_read(access)

    def _cached_ranges(self, ranges):
        """Clip *ranges* to the part behind the cache (above the SPM)."""
        spm = self.spm_size
        if not spm:
            return ranges
        return tuple((max(lo, spm), hi) for lo, hi in ranges if hi > spm)

    def _blocks(self, ranges):
        blocks = set()
        for lo, hi in ranges:
            blocks.update(self.config.blocks_in_range(lo, hi))
        return blocks

    def _compile_plan(self, access):
        """A DataAccess as (kind, payload) for the transfers below."""
        if access is None or not self.serves_data:
            return None
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
        blocks = self._blocks(ranges)
        if len(blocks) == 1 and not access.is_write:
            return ("rblock", next(iter(blocks)), access.count)
        num_sets = self.config.num_sets
        sets = tuple(sorted({block % num_sets for block in blocks}))
        if len(sets) == num_sets:
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
        blocks = self._blocks(ranges)
        if len(blocks) > 4 * self.config.assoc:
            return None  # cannot all be resident in interesting cases
        return tuple(blocks)

    def _data_cac_for(self, addr):
        if self.data_cac is None:
            return "A"
        return self.data_cac.get(addr, "U")

    def _classify_pass(self, in_states, transfer, classify, prepare):
        for (name, baddr), state in self._reached(in_states):
            transfer(prepare(state), self.cfgs[name].blocks[baddr],
                     classify=classify)

    def _apply_plan(self, state: MustCache, plan, addr):
        if plan is None:
            return
        kind = plan[0]
        if kind == "rblock":
            # Reads respect the CAC: an access settled by the level in
            # front never reaches these tags, an uncertain one joins.
            cac = self._data_cac_for(addr)
            if cac == "N":
                return
            _kind, block, count = plan
            if cac == "A":
                for _ in range(count):
                    state.access_block(block)
            else:
                for _ in range(count):
                    state.access_block_uncertain(block)
        elif kind == "wblock":
            # Writes are write-through: they touch every level's tags.
            state.access_block(plan[1], allocate=state.contains(plan[1]))
        elif kind == "sets":
            _kind, sets, evict, count = plan
            if evict and self._data_cac_for(addr) == "N":
                return
            for _ in range(count):
                for index in sets:
                    state.age_set(index, evict=evict)
        else:  # allsets
            _kind, evict, count = plan
            if evict and self._data_cac_for(addr) == "N":
                return
            for _ in range(count):
                for index in list(state.sets):
                    state.age_set(index, evict=evict)

    def _transfer_block(self, state: MustCache, block, classify=None):
        """Apply one basic block's accesses to *state* (in place)."""
        block_of = self.config.block_of
        fetch_cac = self.fetch_cac
        for addr, instr in block.instrs:
            if self.serves_fetch and addr >= self.spm_size:
                cac = "A" if fetch_cac is None else fetch_cac.get(addr, "U")
                if cac != "N":
                    definite = cac == "A"
                    fetch_block = block_of(addr)
                    if classify is not None:
                        classify(addr, "fetch", state.contains(fetch_block))
                    if definite:
                        state.access_block(fetch_block)
                    else:
                        state.access_block_uncertain(fetch_block)
                    if instr.size == 4:
                        second = block_of(addr + 2)
                        if second != fetch_block:
                            if classify is not None and \
                                    not state.contains(second):
                                # Both halves must hit for an AH fetch.
                                classify(addr, "fetch_second", False)
                            if definite:
                                state.access_block(second)
                            else:
                                state.access_block_uncertain(second)
            if self.serves_data:
                if classify is not None:
                    needed = self._read_blocks[addr]
                    if needed is not None:
                        hit = all(state.contains(b) for b in needed)
                        classify(addr, "data", hit)
                self._apply_plan(state, self._plan[addr], addr)

    # -- the MAY side (always-miss facts for the next level's CAC) -----------

    def _transfer_block_may(self, state: MayCache, block, classify=None):
        """Apply one basic block's accesses to a may-state (in place).

        With *classify*, records whether each CAC-``A`` access targets a
        block provably absent — an **always-miss**, i.e. an access that
        is Always performed at the next level down.
        """
        block_of = self.config.block_of
        fetch_cac = self.fetch_cac
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
                        miss = not (state.may_contain(fetch_block)
                                    or state.may_contain(second))
                        classify(addr, "fetch", miss)
                    state.add_block(fetch_block)
                    if second != fetch_block:
                        state.add_block(second)
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
                        classify(addr, "data",
                                 not state.may_contain(block_num))
                    state.add_block(block_num)
                elif kind == "wblock":
                    pass  # write-through, no allocate: never inserts
                elif kind == "sets":
                    _kind, sets, evict, _count = plan
                    if evict and self._data_cac_for(addr) != "N":
                        for index in sets:
                            state.mark_top(index)
                else:  # allsets
                    _kind, evict, _count = plan
                    if evict and self._data_cac_for(addr) != "N":
                        state.mark_all_top()

    def _fixpoint(self, entry_state, transfer):
        """Reverse-post-order worklist fixpoint; returns in-states.

        *transfer* applies one basic block to a state in place.  A node
        whose re-transfer reproduces its previous out-state (same
        fingerprint) pushes nothing to its successors.
        """
        cfgs = self.cfgs
        # Node = (func_name, block_addr). in-states start unknown (None);
        # the program entry starts cold (empty state), which is sound for
        # both directions: nothing guaranteed, nothing possibly resident.
        entry = (self.entry_name, cfgs[self.entry_name].entry)
        in_states = {entry: entry_state}
        succs, rpo = self.layout.graph(cfgs, self.entry_name)
        fallback = len(rpo)

        heap = [(rpo.get(entry, fallback), entry)]
        pending = {entry}
        out_fingerprints = {}
        iterations = 0
        limit = 400 * sum(len(c.blocks) for c in cfgs.values()) + 10_000
        while heap:
            iterations += 1
            if iterations > limit:
                raise RuntimeError("cache fixpoint failed to converge")
            _, node = heapq.heappop(heap)
            pending.discard(node)
            state = in_states[node].copy()
            name, baddr = node
            transfer(state, cfgs[name].blocks[baddr])
            fingerprint = state.fingerprint()
            if out_fingerprints.get(node) == fingerprint:
                continue  # same out-state as last time: nothing to push
            out_fingerprints[node] = fingerprint
            for succ in succs.get(node, ()):
                current = in_states.get(succ)
                if current is None:
                    in_states[succ] = state.copy()
                elif not current.join_with(state):
                    continue
                if succ not in pending:
                    pending.add(succ)
                    heapq.heappush(heap, (rpo.get(succ, fallback), succ))
        return in_states

    def run(self) -> CacheAnalysisResult:
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

        in_states = self._fixpoint(MustCache(self.config),
                                   self._transfer_block)
        self._classify_pass(in_states, self._transfer_block, classify,
                            MustCache.copy)

        if self.always_miss:
            def classify_am(addr, what, miss):
                entry = classes.setdefault(addr, AccessClass())
                if what == "fetch":
                    entry.fetch_always_miss = miss
                else:
                    entry.data_always_miss = miss

            may_states = self._fixpoint(MayCache(self.config),
                                        self._transfer_block_may)
            self._classify_pass(may_states, self._transfer_block_may,
                                classify_am, MayCache.copy)

        if self.persistence:
            self._apply_persistence(result)
        return result
