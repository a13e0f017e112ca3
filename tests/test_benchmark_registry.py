"""Registry drift guard: sources and `BENCHMARKS` must stay in sync.

The benchmark programs live as ``.mc`` data files, the registry commits
their golden ``(console, exit code)`` pairs, and the bit-exact Python
reference models live in ``tests/oracles/benchmarks.py``; nothing but
these tests ties the three together.  Every registry entry must have a
readable source file, the source must compile, and the reference model,
the committed pair and an actual simulator run must agree — so neither
the registry, the sources nor the reference models can drift apart
unnoticed.
"""

import pytest

from repro.benchmarks import BENCHMARKS, get
from repro.link import link
from repro.memory import SystemConfig
from repro.minic import compile_source
from repro.sim import simulate

from .oracles import benchmarks as models

ALL_KEYS = sorted(BENCHMARKS)


@pytest.fixture(scope="module")
def compiled():
    return {key: compile_source(get(key).source()) for key in ALL_KEYS}


class TestRegistry:
    @pytest.mark.parametrize("key", ALL_KEYS)
    def test_source_is_readable(self, key):
        bench = get(key)
        assert bench.source_file.endswith(".mc")
        source = bench.source()
        assert isinstance(source, str) and source.strip(), \
            f"{key}: empty or unreadable source {bench.source_file!r}"

    @pytest.mark.parametrize("key", ALL_KEYS)
    def test_source_compiles(self, compiled, key):
        program = compiled[key].program
        names = {func.name for func in program.functions}
        assert "main" in names and "_start" in names

    @pytest.mark.parametrize("key", ALL_KEYS)
    def test_expected_contract(self, key):
        console, exit_code = get(key).expected()
        assert isinstance(console, list)
        assert all(isinstance(line, str) for line in console)
        assert 0 <= exit_code <= 255

    @pytest.mark.parametrize("key", ALL_KEYS)
    def test_expected_matches_simulator_run(self, compiled, key):
        image = link(compiled[key].program)
        result = simulate(image, SystemConfig.uncached())
        committed = get(key).expected()
        assert getattr(models, f"{key}_expected")() == committed, \
            f"{key}: reference model and committed pair disagree"
        assert (result.console, result.exit_code) == committed, \
            f"{key}: committed pair and simulator disagree"
