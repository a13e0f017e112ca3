"""IPET vs. exhaustive path enumeration and vs. the ILP on random CFGs.

For loop-free DAGs, the WCET is the longest entry-to-exit path; IPET must
find exactly that.  For single-loop CFGs, brute force unrolls the loop up
to its bound.  On random reducible CFGs with nested loops, exits inside
loop bodies, totals, edge extras and scope penalties, the loop-forest DP
must reach the optimum of the Li/Malik ILP (the specification, solved by
the oracle in ``tests/ilp``), with block counts the ILP accepts.
"""

from hypothesis import given, settings, strategies as st

from repro.wcet.ipet import solve_function_ipet
from repro.wcet.loops import find_natural_loops

from .ilp import Status
from .ilp.formulations import ipet_ilp
from .test_wcet_ipet import make_cfg


def longest_path_dag(edges, costs, edge_costs, entry, exits):
    """Exhaustive longest path on a DAG (memoised DFS)."""
    succs = {}
    for src, dst in edges:
        succs.setdefault(src, []).append(dst)
    memo = {}

    def best_from(node):
        if node in memo:
            return memo[node]
        base = costs.get(node, 0)
        best = base if node in exits else None
        for succ in succs.get(node, ()):
            tail = best_from(succ)
            if tail is None:
                continue
            candidate = base + edge_costs.get((node, succ), 0) + tail
            if best is None or candidate > best:
                best = candidate
        memo[node] = best
        return best

    return best_from(entry)


@st.composite
def random_dag(draw):
    """Random layered DAG with 3-9 nodes, entry 0, all sinks are exits."""
    n = draw(st.integers(3, 9))
    nodes = list(range(n))
    edges = set()
    for src in range(n - 1):
        fanout = draw(st.integers(1, min(3, n - 1 - src)))
        targets = draw(st.lists(
            st.integers(src + 1, n - 1),
            min_size=fanout, max_size=fanout, unique=True))
        for dst in targets:
            edges.add((src, dst))
    # Make every node reachable: link orphans from node 0.
    reachable = {0}
    for src, dst in sorted(edges):
        if src in reachable:
            reachable.add(dst)
    for node in nodes[1:]:
        if node not in reachable:
            edges.add((0, node))
            reachable.add(node)
    succs = {s for s, _ in edges}
    exits = {node for node in nodes if node not in succs}
    costs = {node: draw(st.integers(0, 50)) for node in nodes}
    edge_costs = {}
    for edge in sorted(edges):
        if draw(st.booleans()):
            edge_costs[edge] = draw(st.integers(1, 10))
    return sorted(edges), costs, edge_costs, exits


@settings(max_examples=80, deadline=None)
@given(random_dag())
def test_ipet_equals_longest_path_on_dags(dag):
    edges, costs, edge_costs, exits = dag
    cfg = make_cfg(edges, entry=0, exits=exits)
    result = solve_function_ipet(cfg, costs, edge_costs, {})
    expected = longest_path_dag(edges, costs, edge_costs, 0, exits)
    assert result.wcet == expected


@settings(max_examples=40, deadline=None)
@given(
    body_cost=st.integers(1, 30),
    header_cost=st.integers(0, 10),
    bound=st.integers(0, 12),
    back_extra=st.integers(0, 5),
)
def test_ipet_single_loop_matches_unrolling(body_cost, header_cost,
                                            bound, back_extra):
    # 0 -> 2(header) -> 4(body) -> 2 ... -> 6(exit)
    cfg = make_cfg([(0, 2), (2, 4), (4, 2), (2, 6)], entry=0, exits={6})
    loops = find_natural_loops(cfg)
    loops[2].bound = bound
    costs = {0: 3, 2: header_cost, 4: body_cost, 6: 2}
    edge_costs = {(4, 2): back_extra}
    result = solve_function_ipet(cfg, costs, edge_costs, loops)
    expected = (3 + 2
                + (bound + 1) * header_cost
                + bound * body_cost
                + bound * back_extra)
    assert result.wcet == expected


@st.composite
def structured_cfg(draw):
    """Random reducible CFG from structured code, with bounds and costs.

    Statements are blocks, if/else, conditional ``break`` and ``return``
    (exits inside loop bodies), and while / do-while loops nested up to
    3 deep; the function may open with a loop headed by its entry block.
    Loops get a per-entry bound; top-level loops and their direct
    children may carry a total instead or as well.  In *siblings* mode
    the function opens with a loop whose body starts with two loops that
    both carry a per-entry bound and a total (cocktail sort's shape).
    """
    edges, exits = [], set()
    fresh = iter(range(0, 200, 2))
    budget = [draw(st.integers(6, 22))]
    siblings = draw(st.booleans())

    def stmt(cur, depth, loop_exit, kind=None, at_entry=False,
             body=()):
        kinds = ["block", "if"] + ["loop"] * (depth < 3) * 2 + \
            ["break"] * (loop_exit is not None) + ["return"]
        kind = kind or draw(st.sampled_from(kinds))
        budget[0] -= 1
        if kind == "block":
            nxt = next(fresh)
            edges.append((cur, nxt))
            return nxt
        if kind == "if":
            then, join = next(fresh), next(fresh)
            edges.append((cur, then))
            edges.append((seq(then, depth, loop_exit), join))
            if draw(st.booleans()):
                other = next(fresh)
                edges.append((cur, other))
                edges.append((seq(other, depth, loop_exit), join))
            else:
                edges.append((cur, join))
            return join
        if kind in ("break", "return"):
            if kind == "return":
                loop_exit = next(fresh)
                exits.add(loop_exit)
            nxt = next(fresh)
            edges.append((cur, loop_exit))
            edges.append((cur, nxt))
            return nxt
        header = cur if at_entry else next(fresh)
        if not at_entry:
            edges.append((cur, header))
        after = next(fresh)
        if draw(st.booleans()):   # while: the header tests
            first = next(fresh)
            edges.append((header, first))
            edges.append((seq(first, depth + 1, after, body), header))
            edges.append((header, after))
        else:                     # do-while: the latch tests
            latch = seq(header, depth + 1, after, body)
            edges.append((latch, header))
            edges.append((latch, after))
        return after

    def seq(cur, depth, loop_exit, forced=()):
        for kind in forced:
            cur = stmt(cur, depth, loop_exit, kind)
        for _ in range(draw(st.integers(1 - len(forced) // 2, 3))):
            if budget[0] <= 0:
                break
            cur = stmt(cur, depth, loop_exit)
        return cur

    entry = next(fresh)
    cur = entry
    if siblings or draw(st.booleans()):
        cur = stmt(entry, 0, None, "loop", at_entry=draw(st.booleans()),
                   body=("loop", "loop") if siblings else ())
    exits.add(seq(cur, 0, None))
    cfg = make_cfg(edges, entry=entry, exits=exits)

    loops = find_natural_loops(cfg)
    for header, loop in sorted(loops.items()):
        depth = sum(header in other.body for other in loops.values())
        if depth > 2:
            shapes = ("bound",)
        elif depth == 2 and siblings:
            shapes = ("both",)
        else:
            shapes = ("bound", "bound", "total", "both")
        shape = draw(st.sampled_from(shapes))
        if shape != "total":
            loop.bound = draw(st.integers(0, 3))
        if shape != "bound":
            loop.bound_total = draw(st.integers(0, 7))
    costs = {addr: draw(st.integers(0, 20)) for addr in cfg.blocks}
    extras = {edge: draw(st.integers(1, 5)) for edge in edges
              if draw(st.integers(0, 3)) == 0}
    penalties = {header: draw(st.integers(1, 9)) for header in loops
                 if draw(st.booleans())}
    return cfg, costs, extras, loops, penalties


@settings(max_examples=60, deadline=None)
@given(structured_cfg())
def test_ipet_dp_matches_ilp_oracle(case):
    cfg, costs, extras, loops, penalties = case
    result = solve_function_ipet(cfg, costs, extras, loops, penalties)
    optimum = ipet_ilp(cfg, costs, extras, loops, penalties)
    assert optimum.status == Status.OPTIMAL
    wcet = round(optimum.objective)
    assert result.wcet == wcet
    # The DP's block counts admit a flow that satisfies every constraint
    # of the formulation and is worth the optimum.
    pinned = ipet_ilp(cfg, costs, extras, loops, penalties,
                      counts=result.block_counts)
    assert pinned.status == Status.OPTIMAL
    assert round(pinned.objective) == wcet
