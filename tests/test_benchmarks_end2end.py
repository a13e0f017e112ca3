"""Benchmark programs: oracle agreement and configuration independence.

Two properties per benchmark:

* the compiled binary computes exactly what the bit-exact Python reference
  says it should (end-to-end over the whole toolchain);
* results are identical across every memory configuration — the memory
  hierarchy may change *timing* but never *values* (this would have caught
  any coherence bug in the cache or SPM paths).
"""

import pytest

from repro.benchmarks import BENCHMARKS, get, table2_rows
from repro.link import link
from repro.memory import CacheConfig, SystemConfig
from repro.minic import compile_source
from repro.sim import simulate
from repro.workflow import Workflow

from .oracles import benchmarks as models

ALL_KEYS = sorted(BENCHMARKS)


@pytest.fixture(scope="module")
def compiled():
    return {key: compile_source(get(key).source()) for key in ALL_KEYS}


class TestOracles:
    @pytest.mark.parametrize("key", ALL_KEYS)
    def test_matches_python_reference(self, compiled, key):
        image = link(compiled[key].program)
        result = simulate(image, SystemConfig.uncached())
        expected_console, expected_exit = getattr(
            models, f"{key}_expected")()
        assert result.console == expected_console
        assert result.exit_code == expected_exit


class TestConfigurationIndependence:
    CONFIGS = [
        SystemConfig.uncached(),
        SystemConfig.cached(CacheConfig(size=64)),
        SystemConfig.cached(CacheConfig(size=2048, assoc=2)),
        SystemConfig.cached(CacheConfig(size=512, unified=False)),
    ]

    @pytest.mark.parametrize("key", ALL_KEYS)
    def test_results_identical_across_configs(self, compiled, key):
        image = link(compiled[key].program)
        reference = simulate(image, SystemConfig.uncached())
        for config in self.CONFIGS[1:]:
            result = simulate(image, config)
            assert result.console == reference.console, config.name
            assert result.exit_code == reference.exit_code

    @pytest.mark.parametrize("key", ["adpcm", "multisort"])
    def test_spm_placement_does_not_change_results(self, compiled, key):
        workflow = Workflow(get(key).source())
        reference = workflow.config_point(SystemConfig.uncached()).sim
        for size in (128, 2048):
            point = workflow.config_point(SystemConfig.scratchpad(size))
            assert point.sim.console == reference.console
            assert point.sim.exit_code == reference.exit_code


class TestSuiteMetadata:
    def test_table2_contents(self):
        rows = dict(table2_rows())
        assert set(rows) == {"G.721", "ADPCM", "MultiSort"}
        assert "MediaBench" in rows["G.721"]

    def test_sources_load(self):
        for key in ALL_KEYS:
            assert len(get(key).source()) > 100

    @pytest.mark.parametrize("key", ALL_KEYS)
    def test_loop_bounds_all_present(self, compiled, key):
        """Every loop in every benchmark must carry a usable bound."""
        from repro.wcet import analyze_wcet
        image = link(compiled[key].program)
        # analyze_wcet raises LoopError if any bound is missing.
        result = analyze_wcet(image, SystemConfig.uncached())
        assert result.wcet > 0


class TestBenchmarkShape:
    def test_g721_is_the_biggest(self, compiled):
        sizes = {key: sum(f.size for f in compiled[key].program.functions)
                 for key in ALL_KEYS}
        assert sizes["g721"] == max(sizes.values())

    def test_multisort_checks_its_own_output(self, compiled):
        # check_sorted() failures exit with small codes 1..6; the golden
        # run must exit via the checksum path.
        image = link(compiled["multisort"].program)
        result = simulate(image, SystemConfig.uncached())
        assert result.exit_code not in range(1, 7)

    def test_division_runtime_only_where_used(self, compiled):
        multisort_funcs = {f.name for f in
                           compiled["multisort"].program.functions}
        adpcm_funcs = {f.name for f in compiled["adpcm"].program.functions}
        assert "__mods" in multisort_funcs   # uses % and /
        assert "__divu" not in adpcm_funcs   # shift-based, no division
