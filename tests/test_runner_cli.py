"""The repro-experiments runner CLI."""

import pytest

from repro.experiments import EXPERIMENTS
from repro.experiments.runner import main


class TestRunnerCli:
    def test_experiment_registry_complete(self):
        # One regeneration target per paper artefact + ablations.
        assert set(EXPERIMENTS) == {
            "table1", "table2", "fig2", "fig3", "fig4", "fig5", "fig6",
            "worstcase", "ablation_cacheconfig", "ablation_multilevel",
            "ablation_persistence", "ablation_wcet_alloc",
            "geometry_grid",
        }

    def test_single_experiment(self, capsys):
        assert main(["table1", "--fast"]) == 0
        out = capsys.readouterr().out
        assert "===== table1" in out
        assert "Scratchpad" in out

    def test_multiple_experiments(self, capsys):
        assert main(["table1", "table2", "--fast"]) == 0
        out = capsys.readouterr().out
        assert "===== table1" in out and "===== table2" in out

    def test_unknown_experiment_rejected(self):
        with pytest.raises(SystemExit):
            main(["not_an_experiment"])

    def test_jobs_flag_accepted(self, capsys):
        from repro.experiments import common
        try:
            assert main(["table1", "--fast", "--jobs", "2"]) == 0
        finally:
            common.set_jobs(1)
        assert "===== table1" in capsys.readouterr().out


class TestParallelSweepLayer:
    """evaluate_points must merge worker results deterministically."""

    def _rows(self, points):
        return [p.row() for p in points]

    def test_parallel_matches_serial(self):
        from repro.experiments import common
        from repro.experiments.common import task
        from repro.memory import CacheConfig, SystemConfig
        tasks = [
            task("crc", SystemConfig.uncached()),
            task("crc", SystemConfig.cached(CacheConfig(size=256))),
            task("crc", SystemConfig.cached(CacheConfig(size=512))),
            task("crc", SystemConfig.scratchpad(128)),
            task("crc", SystemConfig.hybrid(128, CacheConfig(size=256))),
            task("crc", SystemConfig.two_level(CacheConfig(size=256),
                                               CacheConfig(size=1024))),
            task("crc", SystemConfig.split_l1(
                CacheConfig(size=256, unified=False),
                CacheConfig(size=256))),
        ]
        serial = self._rows(common.evaluate_points(tasks))
        common.set_jobs(2)
        try:
            parallel = self._rows(common.evaluate_points(tasks))
        finally:
            common.set_jobs(1)
        assert parallel == serial


class TestConsistency:
    """Sim and analyser must agree exactly on branch-free code.

    On straight-line programs there is no path or cache uncertainty in an
    uncached system, so any discrepancy is a timing-model divergence —
    the one thing the whole methodology depends on not happening.
    """

    @pytest.mark.parametrize("body", [
        "t = 1;",
        "t = a * b;",
        "t = a / (b + 1);",                      # runtime call
        "t = buf[3]; buf[4] = t;",
        "t = (a << 3) ^ (b >> 2); t = t % 7;",
        "t = helper(a) + helper(b);",
    ])
    def test_straightline_exact_equality(self, body):
        from repro.link import link
        from repro.memory import SystemConfig
        from repro.minic import compile_source
        from repro.sim import simulate
        from repro.wcet import analyze_wcet
        source = f"""
        int buf[8];
        int helper(int x) {{ return x + buf[1]; }}
        int main(void) {{
            int a = 13;
            int b = 5;
            int t;
            {body}
            return t & 255;
        }}
        """
        image = link(compile_source(source).program)
        config = SystemConfig.uncached()
        sim = simulate(image, config)
        wcet = analyze_wcet(image, config)
        # Division introduces a data-dependent early-out in __divu?  No:
        # the shift-subtract loop always runs 32 iterations, and the
        # quotient-bit branch is the only conditional — IPET assumes the
        # longer side, simulation may take the shorter one.
        assert wcet.wcet >= sim.cycles
        if "/" not in body and "%" not in body:
            assert wcet.wcet == sim.cycles
