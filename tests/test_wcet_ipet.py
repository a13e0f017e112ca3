"""IPET on hand-built CFGs: flow conservation, bounds, edge costs."""

import pytest

from repro.wcet.cfg import BasicBlock, FunctionCFG
from repro.wcet.ipet import IPETError, solve_function_ipet
from repro.wcet.loops import Loop, find_natural_loops


def make_cfg(edges, entry, exits, name="f"):
    """Build a FunctionCFG skeleton from an edge list (no instructions)."""
    blocks = {}
    nodes = {entry, *exits}
    for src, dst in edges:
        nodes.add(src)
        nodes.add(dst)
    for node in nodes:
        blocks[node] = BasicBlock(start=node)
    for src, dst in edges:
        blocks[src].succs.append(dst)
    for node in exits:
        blocks[node].is_exit = True
    return FunctionCFG(name=name, entry=entry, blocks=blocks, calls=set())


class TestStraightAndDiamond:
    def test_single_block(self):
        cfg = make_cfg([], entry=0, exits={0})
        result = solve_function_ipet(cfg, {0: 42}, {}, {})
        assert result.wcet == 42
        assert result.block_counts[0] == 1

    def test_chain(self):
        cfg = make_cfg([(0, 2), (2, 4)], entry=0, exits={4})
        result = solve_function_ipet(cfg, {0: 10, 2: 20, 4: 30}, {}, {})
        assert result.wcet == 60

    def test_diamond_takes_max_branch(self):
        # 0 -> {2 | 4} -> 6
        cfg = make_cfg([(0, 2), (0, 4), (2, 6), (4, 6)],
                       entry=0, exits={6})
        result = solve_function_ipet(
            cfg, {0: 1, 2: 100, 4: 7, 6: 1}, {}, {})
        assert result.wcet == 1 + 100 + 1
        assert result.block_counts[2] == 1
        assert result.block_counts[4] == 0

    def test_edge_extras_charged_on_taken_edge(self):
        cfg = make_cfg([(0, 2), (0, 4), (2, 6), (4, 6)],
                       entry=0, exits={6})
        # Block 4 is cheaper per se, but its incoming edge carries a
        # refill penalty — the maximisation must include it.
        result = solve_function_ipet(
            cfg, {0: 1, 2: 10, 4: 8, 6: 1},
            {(0, 4): 50}, {})
        assert result.wcet == 1 + 8 + 50 + 1
        assert result.block_counts[4] == 1

    def test_multiple_exits(self):
        cfg = make_cfg([(0, 2), (0, 4)], entry=0, exits={2, 4})
        result = solve_function_ipet(cfg, {0: 1, 2: 5, 4: 9}, {}, {})
        assert result.wcet == 10


class TestLoops:
    def loop_cfg(self):
        # 0 -> 2 (header) -> 4 (body) -> 2 ; 2 -> 6 (exit)
        return make_cfg([(0, 2), (2, 4), (4, 2), (2, 6)],
                        entry=0, exits={6})

    def test_bounded_loop(self):
        cfg = self.loop_cfg()
        loops = find_natural_loops(cfg)
        assert set(loops) == {2}
        loops[2].bound = 10
        result = solve_function_ipet(
            cfg, {0: 1, 2: 2, 4: 5, 6: 1}, {}, loops)
        # header 11 times, body 10 times.
        assert result.wcet == 1 + 11 * 2 + 10 * 5 + 1

    def test_zero_bound_loop(self):
        cfg = self.loop_cfg()
        loops = find_natural_loops(cfg)
        loops[2].bound = 0
        result = solve_function_ipet(
            cfg, {0: 1, 2: 2, 4: 1000, 6: 1}, {}, loops)
        assert result.wcet == 1 + 2 + 1

    def test_total_bound_binds_tighter(self):
        cfg = self.loop_cfg()
        loops = find_natural_loops(cfg)
        loops[2].bound = 10
        loops[2].bound_total = 4
        result = solve_function_ipet(
            cfg, {0: 0, 2: 0, 4: 7, 6: 0}, {}, loops)
        assert result.wcet == 4 * 7

    def test_total_bound_alone(self):
        cfg = self.loop_cfg()
        loops = find_natural_loops(cfg)
        loops[2].bound = None
        loops[2].bound_total = 6
        result = solve_function_ipet(
            cfg, {0: 0, 2: 0, 4: 5, 6: 0}, {}, loops)
        assert result.wcet == 30

    def test_missing_bound_raises(self):
        cfg = self.loop_cfg()
        loops = find_natural_loops(cfg)
        with pytest.raises(IPETError):
            solve_function_ipet(cfg, {}, {}, loops)

    def test_loop_at_entry(self):
        # entry is itself the loop header: bound applies to the virtual
        # entry edge.
        cfg = make_cfg([(0, 2), (2, 0), (0, 4)], entry=0, exits={4})
        loops = find_natural_loops(cfg)
        loops[0].bound = 3
        result = solve_function_ipet(
            cfg, {0: 1, 2: 10, 4: 0}, {}, loops)
        assert result.wcet == 4 * 1 + 3 * 10

    def test_scope_penalty_charged_per_entry(self):
        cfg = self.loop_cfg()
        loops = find_natural_loops(cfg)
        loops[2].bound = 10
        result_plain = solve_function_ipet(
            cfg, {0: 0, 2: 0, 4: 1, 6: 0}, {}, loops)
        result_penalised = solve_function_ipet(
            cfg, {0: 0, 2: 0, 4: 1, 6: 0}, {}, loops,
            scope_penalties={2: 15})
        assert result_penalised.wcet == result_plain.wcet + 15

    def test_nested_loops(self):
        # outer header 2, inner header 4.
        cfg = make_cfg(
            [(0, 2), (2, 4), (4, 6), (6, 4), (4, 8), (8, 2), (2, 10)],
            entry=0, exits={10})
        loops = find_natural_loops(cfg)
        assert set(loops) == {2, 4}
        loops[2].bound = 3
        loops[4].bound = 5
        result = solve_function_ipet(
            cfg, {6: 1}, {}, loops)
        # inner body runs at most 3 * 5 times.
        assert result.wcet == 15

    def test_sibling_totals_under_one_parent(self):
        # Cocktail sort's shape: a top-level loop (2) whose passes enter
        # two inner loops (4, 8) that carry per-entry bounds and totals.
        cfg = make_cfg(
            [(0, 2), (2, 4), (4, 6), (6, 4), (4, 8), (8, 10), (10, 8),
             (8, 12), (12, 2), (2, 14)], entry=0, exits={14})
        loops = find_natural_loops(cfg)
        loops[2].bound = 4
        loops[4].bound, loops[4].bound_total = 5, 7
        loops[8].bound, loops[8].bound_total = 5, 12
        result = solve_function_ipet(cfg, {6: 1, 10: 1}, {}, loops)
        # 4 passes: min(5 * 4, 7) + min(5 * 4, 12) inner iterations.
        assert result.wcet == 7 + 12
        assert result.block_counts[6] == 7
        assert result.block_counts[10] == 12
        assert result.block_counts[12] == 4

    def test_total_three_loops_deep_raises(self):
        cfg = make_cfg(
            [(0, 2), (2, 4), (4, 6), (6, 8), (8, 6), (6, 10), (10, 4),
             (4, 12), (12, 2), (2, 14)], entry=0, exits={14})
        loops = find_natural_loops(cfg)
        for header in (2, 4, 6):
            loops[header].bound = 3
        loops[6].bound_total = 5
        with pytest.raises(IPETError, match="f: loop at 0x6 has a "
                           "loopbound_total 3 loops deep"):
            solve_function_ipet(cfg, {8: 1}, {}, loops)

    def test_irreducible_cycle_raises(self):
        # 2 <-> 4 is entered at both ends: no natural loop covers it.
        cfg = make_cfg([(0, 2), (0, 4), (2, 4), (4, 2), (4, 6)],
                       entry=0, exits={6})
        with pytest.raises(IPETError, match="irreducible"):
            solve_function_ipet(cfg, {2: 1, 4: 1}, {},
                                find_natural_loops(cfg))

    def test_no_exit_raises(self):
        cfg = make_cfg([(0, 2), (2, 0)], entry=0, exits=set())
        loops = find_natural_loops(cfg)
        loops[0].bound = 5
        with pytest.raises(IPETError):
            solve_function_ipet(cfg, {0: 1, 2: 1}, {}, loops)
