"""Whole-program WCET analysis: IPET values and the soundness guarantee."""

import pytest

from repro.isa import Label
from repro.isa import instruction as ins
from repro.link import FunctionCode, Program, link
from repro.memory import CacheConfig, SystemConfig
from repro.minic import compile_source
from repro.sim import simulate
from repro.wcet import WCETError, analyze_wcet
from repro.wcet.ipet import IPETError

from .helpers import run_main


def both(source, config, **wcet_kwargs):
    compiled = compile_source(source)
    image = link(compiled.program)
    sim = simulate(image, config)
    wcet = analyze_wcet(image, config, **wcet_kwargs)
    return sim, wcet


class TestExactCases:
    """Programs whose worst case equals the simulated path."""

    def test_straightline_exact(self):
        sim, wcet = both("int main(void) { return 2 + 3; }",
                         SystemConfig.uncached())
        assert wcet.wcet == sim.cycles

    def test_counted_loop_exact(self):
        source = """
        int main(void) {
            int i;
            int t = 0;
            for (i = 0; i < 37; i++) { t += i; }
            return t & 255;
        }
        """
        sim, wcet = both(source, SystemConfig.uncached())
        assert wcet.wcet == sim.cycles

    def test_nested_loops_exact(self):
        source = """
        int main(void) {
            int i; int j; int t = 0;
            for (i = 0; i < 6; i++) {
                for (j = 0; j < 7; j++) { t += 1; }
            }
            return t;
        }
        """
        sim, wcet = both(source, SystemConfig.uncached())
        assert wcet.wcet == sim.cycles

    def test_call_chain_exact(self):
        source = """
        int f(int x) { return x + 1; }
        int g(int x) { return f(x) + f(x); }
        int main(void) { return g(3); }
        """
        sim, wcet = both(source, SystemConfig.uncached())
        assert wcet.wcet == sim.cycles

    def test_branch_takes_max(self):
        # WCET must assume the expensive branch; sim takes the cheap one.
        source = """
        int pay(int n) {
            int i; int t = 0;
            for (i = 0; i < 50; i++) { t += i; }
            return t;
        }
        int main(void) {
            int x = 0;
            if (x) { return pay(1); }
            return 0;
        }
        """
        sim, wcet = both(source, SystemConfig.uncached())
        assert wcet.wcet > sim.cycles * 3

    def test_loop_total_bound_used(self):
        source = """
        int main(void) {
            int i; int j; int t = 0;
            for (i = 1; i < 9; i++) {
                j = 0;
                #pragma loopbound 8
                #pragma loopbound_total 12
                while (j < i) { j = j + 1; t = t + 1; }
            }
            return t;
        }
        """
        compiled = compile_source(source)
        image = link(compiled.program)
        wcet_with_total = analyze_wcet(image, SystemConfig.uncached())
        # Re-link without the total fact to measure its effect.
        for func in compiled.program.functions:
            func.loop_totals.clear()
        image2 = link(compiled.program)
        wcet_without = analyze_wcet(image2, SystemConfig.uncached())
        assert wcet_with_total.wcet < wcet_without.wcet


class TestSoundness:
    CONFIGS = [
        SystemConfig.uncached(),
        SystemConfig.cached(CacheConfig(size=128)),
        SystemConfig.cached(CacheConfig(size=1024)),
        SystemConfig.cached(CacheConfig(size=1024, assoc=2)),
        SystemConfig.cached(CacheConfig(size=512, unified=False)),
    ]

    @pytest.mark.parametrize("config", CONFIGS,
                             ids=lambda c: c.name + (
                                 "i" if c.cache and not c.cache.unified
                                 else ""))
    @pytest.mark.parametrize("key", ["adpcm", "multisort", "sort_wc"])
    def test_wcet_bounds_simulation(self, key, config):
        from repro.benchmarks import get
        image = link(compile_source(get(key).source()).program)
        sim = simulate(image, config)
        wcet = analyze_wcet(image, config)
        assert wcet.wcet >= sim.cycles

    @pytest.mark.parametrize("key", ["adpcm", "multisort"])
    def test_persistence_still_sound_and_tighter(self, key):
        from repro.benchmarks import get
        config = SystemConfig.cached(CacheConfig(size=1024))
        image = link(compile_source(get(key).source()).program)
        sim = simulate(image, config)
        plain = analyze_wcet(image, config, persistence=False)
        persist = analyze_wcet(image, config, persistence=True)
        assert sim.cycles <= persist.wcet <= plain.wcet

    def test_spm_allocation_preserves_soundness(self):
        from repro.benchmarks import get
        from repro.workflow import Workflow
        workflow = Workflow(get("adpcm").source())
        for size in (128, 1024):
            point = workflow.config_point(SystemConfig.scratchpad(size))
            assert point.wcet.wcet >= point.sim.cycles


class TestFrontendMemo:
    def test_frontend_table_is_bounded(self):
        """The frontend memo, and with it each image's IPET memo, keeps
        the 64 most recently analysed images; an evicted image is
        analysed afresh to the same bound."""
        from repro.wcet import analyzer
        analyzer.clear_analysis_caches()
        config = SystemConfig.cached(CacheConfig(size=256))
        images = [link(compile_source(
            f"int main(void) {{ return {k}; }}").program)
            for k in range(65)]
        wcets = [analyze_wcet(image, config).wcet for image in images]
        assert len(analyzer._FRONTEND_CACHE) == 64
        misses = analyzer.COUNTERS["frontend_misses"]
        assert analyze_wcet(images[0], config).wcet == wcets[0]
        assert analyzer.COUNTERS["frontend_misses"] == misses + 1

    def test_ipet_memo_is_bounded(self):
        """One frontend keeps the 512 most recently solved IPET
        problems; an evicted one is solved again to the same result."""
        from repro.wcet import analyzer
        image = link(compile_source("""
        int main(void) {
            int i; int t = 0;
            for (i = 0; i < 9; i++) { t += i; }
            return t & 255;
        }""").program)
        front = analyzer._Frontend(image, "_start")
        blocks = sorted(front.cfgs["main"].blocks)

        def solve(k):
            costs = {baddr: 1 for baddr in blocks}
            costs[blocks[-1]] = k
            return front.ipet("main", costs, {}, {})

        first = solve(0)
        for k in range(1, 513):
            solve(k)
        assert len(front._ipet) == 512
        misses = analyzer.COUNTERS["ipet_misses"]
        again = solve(0)
        assert analyzer.COUNTERS["ipet_misses"] == misses + 1
        assert (again.wcet, again.block_counts) == \
            (first.wcet, first.block_counts)


class TestDiagnostics:
    def test_unknown_entry(self):
        image = link(compile_source("int main(void) {return 0;}").program)
        with pytest.raises(WCETError):
            analyze_wcet(image, SystemConfig.uncached(), entry="nope")

    def test_recursion_detected(self):
        source = """
        int f(int n) { if (n <= 0) { return 0; } return f(n - 1); }
        int main(void) { return f(3); }
        """
        image = link(compile_source(source).program)
        with pytest.raises(Exception) as excinfo:
            analyze_wcet(image, SystemConfig.uncached())
        assert "recursi" in str(excinfo.value).lower()

    def test_report_format(self):
        image = link(compile_source("int main(void) {return 0;}").program)
        result = analyze_wcet(image, SystemConfig.uncached())
        report = result.report()
        assert "WCET(_start)" in report
        assert "main" in report

    def test_block_counts_exposed(self):
        image = link(compile_source("int main(void) {return 0;}").program)
        result = analyze_wcet(image, SystemConfig.uncached())
        assert "main" in result.block_counts
        assert all(count >= 0
                   for counts in result.block_counts.values()
                   for count in counts.values())

    def test_total_three_loops_deep_rejected(self):
        # Totals are supported on a top-level loop and on its direct
        # children; deeper, the analysis must refuse rather than bound.
        source = """
        int deep3(int n) {
            int i; int j; int k; int t = 0;
            for (i = 0; i < 4; i++) {
                for (j = 0; j < 4; j++) {
                    k = n;
                    #pragma loopbound 8
                    #pragma loopbound_total 20
                    while (k > 0) { k = k - 1; t = t + 1; }
                }
            }
            return t;
        }
        int main(void) { return deep3(3); }
        """
        image = link(compile_source(source).program)
        (header,) = image.loop_totals
        with pytest.raises(IPETError,
                           match=f"deep3: loop at {header:#x} has a "
                           "loopbound_total 3 loops deep"):
            analyze_wcet(image, SystemConfig.uncached())

    def test_infinite_loop_rejected(self):
        from repro.wcet import LoopError
        func = FunctionCode("_start", [
            Label("_start"), Label("spin"), ins.b("spin")])
        image = link(Program(functions=[func]))
        # Rejected as an unbounded loop (before IPET even runs).
        with pytest.raises((IPETError, LoopError)):
            analyze_wcet(image, SystemConfig.uncached())
