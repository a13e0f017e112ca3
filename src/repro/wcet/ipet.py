"""Implicit Path Enumeration (IPET): the worst-case path of one function.

The specification is the classic Li/Malik ILP the paper's aiT workflow
solves after microarchitectural analysis: one execution count per basic
block and per edge, flow conservation, a unit entry flow and per-loop
bound constraints; the WCET is the maximum of the total cost::

    maximise   sum(cost_b * x_b) + sum(extra_e * x_e)
               + sum(penalty_L * entries_L)
    subject to x_entry's in-flow = 1
               sum(in-edges of b) = x_b = sum(out-edges of b)
               sum(back-edges of L) <= bound_L * entries_L
               sum(back-edges of L) <= total_L     (#pragma loopbound_total)

:func:`solve_function_ipet` computes that optimum exactly, in Python
ints, with a dynamic program over the loop-nesting forest instead of an
ILP solver:

1. loops collapse innermost first into super-nodes.  One iteration is
   the loop's best header-to-header cycle, and leaving the loop through
   an exit edge is worth ``bound × best cycle + best header→exit path +
   scope penalty``;
2. the function is then a longest path in a DAG.

Costs are cycle counts (non-negative), so every loop runs its full bound.

Totals.  ``total_L`` without a per-entry bound caps iterations that need
no entry at all (the ILP admits them as a circulation), so the loop adds
``total × best cycle`` to every path.  A top-level loop is entered at
most once: its effective bound is ``min(bound, total)``.  A direct child
of a top-level loop with both bounds runs ``min(bound × entries, total)``
iterations over the parent's passes, so the parent enumerates how often
each such child is entered, in time polynomial in its bound.  A total
deeper in the forest raises :class:`IPETError`, as does irreducible
control flow (the ILP would be unbounded).

Ties go to the predecessor met first, visiting each region's nodes in
topological order (lowest address first among ready nodes) and
successors in CFG order; the block counts, on which the WCET-driven
allocator prices objects, follow that rule.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field

from .cfg import FunctionCFG


class IPETError(Exception):
    pass


@dataclass
class IPETResult:
    wcet: int
    #: block start addr -> execution count on the critical path
    block_counts: dict = field(default_factory=dict)


def solve_function_ipet(cfg: FunctionCFG, block_costs: dict,
                        edge_extras: dict, loops: dict,
                        scope_penalties=None) -> IPETResult:
    """Solve IPET for one function.

    * *block_costs*: block addr -> cycles per execution (callee WCETs
      already folded into call blocks);
    * *edge_extras*: (src, dst) -> extra cycles when that edge is taken
      (conditional-branch refill);
    * *loops*: header addr -> :class:`~repro.wcet.loops.Loop` with
      resolved bounds;
    * *scope_penalties*: header addr -> cycles charged once per loop entry
      (first-miss persistence penalties).
    """
    return _ForestDP(cfg, block_costs, edge_extras, loops,
                     scope_penalties or {}).solve()


@dataclass
class _Region:
    """Longest paths inside one loop body (or the whole function).

    States are ``(node, mask)``: a node is a block or the header of a
    collapsed child loop, and the mask records which of the children
    that are coupled to this loop's passes the path has entered.
    """

    children: set
    #: state -> (previous state, edge that left it)
    pred: dict
    #: mask -> (value, state, back edge) of the best cycle
    cycles: dict
    #: exit edge -> {mask: (value, state)}
    exits: dict


@dataclass
class _Plan:
    """How a collapsed loop spends its iterations.  ``values[e]`` is
    their worth plus the path out through exit edge *e*; ``values[None]``
    is their worth alone (a circulation, for a loop without a per-entry
    bound that is never entered)."""

    values: dict
    #: exit edge -> mask per pass (pass-enumerated loops only)
    passes: dict = None
    #: iterations of the best cycle (loops without coupled children)
    cycles: int = 0


class _ForestDP:
    def __init__(self, cfg, costs, extras, loops, penalties):
        self.cfg, self.costs, self.extras = cfg, costs, extras
        self.penalties = penalties
        # Successors, with the virtual exit edge of a terminal block
        # as ``None``.
        self.succs = {addr: list(block.succs) + (
            [None] if block.is_exit or not block.succs else [])
            for addr, block in cfg.blocks.items()}
        if not any(None in succs for succs in self.succs.values()):
            raise IPETError(f"{cfg.name}: no exit blocks (infinite loop?)")
        for header, loop in loops.items():
            if loop.bound is None and loop.bound_total is None:
                raise IPETError(
                    f"{cfg.name}: loop at {header:#x} has no bound")

        ordered = sorted(loops.values(), key=lambda loop: len(loop.body))
        self.loops = {loop.header: loop for loop in ordered}
        self.parent = {}
        for index, loop in enumerate(ordered):
            self.parent[loop.header] = next(
                (outer.header for outer in ordered[index + 1:]
                 if loop.header in outer.body), None)
            outer = self.loops.get(self.parent[loop.header])
            if outer is not None and not loop.body <= outer.body:
                raise self._irreducible()
        self.depth = {}
        for loop in reversed(ordered):
            self.depth[loop.header] = 1 + self.depth.get(
                self.parent[loop.header], 0)
        # Direct children of a top-level loop with both kinds of bound:
        # their iterations are shared out over the parent's passes.
        self.coupled = {
            header for header, loop in self.loops.items()
            if loop.bound is not None and loop.bound_total is not None
            and self.depth[header] == 2}
        self.free = {h for h, loop in self.loops.items()
                     if loop.bound is None}
        self.plans = {}
        self.regions = {}

    def _irreducible(self):
        return IPETError(f"{self.cfg.name}: irreducible control flow "
                         "(a cycle that is not a natural loop)")

    # -- longest paths inside one region ------------------------------------

    def _region(self, header):
        body = self.cfg.blocks if header is None else \
            self.loops[header].body
        children = {h for h, p in self.parent.items() if p == header}
        bits = {h: 1 << i for i, h in enumerate(
            sorted(children & self.coupled))}
        node_of = {addr: addr for addr in body}
        for child in children:
            node_of.update(dict.fromkeys(self.loops[child].body, child))
        # node -> [(edge, successor node or None, value of leaving, back)]
        out = {}
        indegree = dict.fromkeys(set(node_of.values()), 0)
        for addr in sorted(body):
            node = node_of[addr]
            edges = out.setdefault(node, [])
            for succ in self.succs[addr]:
                edge = (addr, succ)
                target = node_of.get(succ) if succ != header else None
                if target == node:
                    continue  # inside one collapsed child
                if target is not None and target != succ:
                    raise self._irreducible()  # enters a loop mid-body
                if target is not None:
                    indegree[target] += 1
                leave = self._exit_value(node, edge) if node in children \
                    else self.extras.get(edge, 0)
                edges.append((edge, target, leave,
                              succ is not None and succ == header))

        start = node_of[self.cfg.entry if header is None else header]
        enter = {node: 0 if node in children else self.costs.get(node, 0)
                 for node in out}
        dist = {(start, 0): enter[start]}
        pred, cycles, exits = {}, {}, {}
        masks = range(1 << len(bits))
        ready = [node for node, count in indegree.items() if not count]
        heapq.heapify(ready)
        visited = 0
        while ready:
            node = heapq.heappop(ready)
            visited += 1
            for _edge, target, _leave, _back in out[node]:
                if target is not None:
                    indegree[target] -= 1
                    if not indegree[target]:
                        heapq.heappush(ready, target)
            for mask in masks:
                state = (node, mask)
                value = dist.get(state)
                if value is None:
                    continue
                for edge, target, leave, back in out[node]:
                    total = value + leave
                    if back:
                        if mask not in cycles or total > cycles[mask][0]:
                            cycles[mask] = (total, state, edge)
                    elif target is None:
                        per_mask = exits.setdefault(edge, {})
                        if mask not in per_mask or \
                                total > per_mask[mask][0]:
                            per_mask[mask] = (total, state)
                    else:
                        nxt = (target, mask | bits.get(target, 0))
                        total += enter[target]
                        if nxt not in dist or total > dist[nxt]:
                            dist[nxt] = total
                            pred[nxt] = (state, edge)
        if visited != len(out):
            raise self._irreducible()
        region = _Region(children=children, pred=pred, cycles=cycles,
                         exits=exits)
        self.regions[header] = region
        return region, sorted(bits)

    def _exit_value(self, header, edge):
        """Value of one pass through loop *header* leaving by *edge*; a
        circulation (no per-entry bound) is charged once, apart."""
        values = self.plans[header].values
        circulation = values[None] if header in self.free else 0
        return values[edge] - circulation + self.penalties.get(header, 0)

    # -- collapsing loops -----------------------------------------------------

    def _collapse(self, header):
        loop = self.loops[header]
        depth = self.depth[header]
        if loop.bound_total is not None and depth > 2:
            raise IPETError(
                f"{self.cfg.name}: loop at {header:#x} has a "
                f"loopbound_total {depth} loops deep; totals are "
                "supported on a top-level loop and on a direct child "
                "of one")
        # Iterations: the tighter bound (a top-level loop is entered at
        # most once; deeper, only a circulation carries a total alone).
        count = min(b for b in (loop.bound, loop.bound_total)
                    if b is not None)
        region, coupled = self._region(header)
        if coupled:
            plan = self._enumerate_passes(count, region, coupled)
        else:
            if header in self.coupled:
                count = 0  # the parent's passes charge the iterations
            cycle = count * region.cycles[0][0]
            values = {edge: cycle + per_mask[0][0]
                      for edge, per_mask in region.exits.items()}
            values[None] = cycle
            plan = _Plan(values=values, cycles=count)
        self.plans[header] = plan

    def _enumerate_passes(self, passes, region, coupled):
        """Plan a top-level loop whose children *coupled* carry both a
        per-entry bound and a total: try every number of entries into
        each child over the loop's *passes* (capped where the child's
        total saturates)."""
        kids = [self.loops[h] for h in coupled]
        kid_cycle = [self.regions[h].cycles[0][0] for h in coupled]
        caps = [0 if kid.bound == 0 else
                min(-(-kid.bound_total // kid.bound), passes + 1)
                for kid in kids]

        def entered(entries, mask):
            return tuple(min(k + (mask >> i & 1), cap) for i, (k, cap)
                         in enumerate(zip(entries, caps)))

        def gain(entries):
            return sum(cycle * min(kid.bound * k, kid.bound_total)
                       for cycle, kid, k in zip(kid_cycle, kids, entries))

        layer = {(0,) * len(kids): 0}
        history = []
        for _ in range(passes):
            nxt, choice = {}, {}
            for entries, value in layer.items():
                for mask, (cycle, _state, _edge) in region.cycles.items():
                    key = entered(entries, mask)
                    if key not in nxt or value + cycle > nxt[key]:
                        nxt[key] = value + cycle
                        choice[key] = (entries, mask)
            layer = nxt
            history.append(choice)

        values, chosen = {}, {}
        for edge in [None, *region.exits]:
            finals = [(0, None)] if edge is None else [
                (path[0], mask) for mask, path in region.exits[edge].items()]
            best = None
            for entries, value in layer.items():
                for exit_value, mask in finals:
                    total = value + exit_value + gain(
                        entries if mask is None else entered(entries, mask))
                    if best is None or total > best[0]:
                        best = (total, entries, mask)
            if best is None:
                continue
            total, entries, mask = best
            masks = [mask]
            for choice in reversed(history):
                entries, cycle_mask = choice[entries]
                masks.append(cycle_mask)
            values[edge] = total
            chosen[edge] = masks
        return _Plan(values=values, passes=chosen)

    # -- the function ---------------------------------------------------------

    def solve(self) -> IPETResult:
        for header in self.loops:  # innermost first
            self._collapse(header)
        root, _ = self._region(None)
        ends = [(*per_mask[0], edge) for edge, per_mask in root.exits.items()]
        if not ends:
            raise IPETError(f"{self.cfg.name}: no path from the entry "
                            "to an exit")
        value, state, edge = max(ends, key=lambda end: end[0])
        counts = {}
        self._count_path(root, state, edge, counts, 1)
        for header in self.free:
            value += self.plans[header].values[None]
            self._count_plan(header, None, counts, 1)
        return IPETResult(wcet=value, block_counts={
            addr: counts.get(addr, 0) for addr in self.cfg.blocks})

    # -- block counts ---------------------------------------------------------

    def _count_path(self, region, state, edge, counts, mult):
        """Add *mult* × the blocks of the best path of *region* that
        ends in *state* and leaves it by *edge*."""
        while True:
            node = state[0]
            if node in region.children:
                self._count_plan(node, edge, counts, mult)
                if node in self.free:
                    self._count_plan(node, None, counts, -mult)
            else:
                counts[node] = counts.get(node, 0) + mult
            if state not in region.pred:
                return
            state, edge = region.pred[state]

    def _count_plan(self, header, edge, counts, mult):
        """Add *mult* × the blocks of loop *header*'s plan for *edge*."""
        plan, region = self.plans[header], self.regions[header]
        if plan.passes is None:
            if plan.cycles:
                _value, state, back = region.cycles[0]
                self._count_path(region, state, back, counts,
                                 mult * plan.cycles)
            if edge is not None:
                self._count_path(region, region.exits[edge][0][1], edge,
                                 counts, mult)
            return
        exit_mask, *cycle_masks = plan.passes[edge]
        for mask in cycle_masks:
            _value, state, back = region.cycles[mask]
            self._count_path(region, state, back, counts, mult)
        if edge is not None:
            self._count_path(region, region.exits[edge][exit_mask][1],
                             edge, counts, mult)
            cycle_masks.append(exit_mask)
        for index, kid in enumerate(sorted(region.children & self.coupled)):
            loop = self.loops[kid]
            entries = sum(mask >> index & 1 for mask in cycle_masks)
            _value, state, back = self.regions[kid].cycles[0]
            self._count_path(self.regions[kid], state, back, counts,
                             mult * min(loop.bound * entries,
                                        loop.bound_total))
