"""The seeded workload generator: determinism, self-checks, harness.

Tier-1 smoke coverage for :mod:`repro.gen` — a handful of seeds through
the full soundness harness plus the generator's contract guarantees
(byte-identical output per seed, structural termination, embedded
self-check).  The thousands-of-seeds sweep lives in the ``fuzz`` tier
(``tests/test_fuzz_generated.py``).
"""

import os
import subprocess
import sys

import pytest

from repro.gen import (
    SIZE_PROFILES,
    SoundnessFailure,
    check_program,
    check_seed,
    check_spm_placement,
    generate,
    write_corpus,
)
from repro.gen.progen import wrap32
from repro.link import link
from repro.memory import SystemConfig
from repro.minic import compile_source
from repro.sim import simulate

from .oracles import check_domains, check_misses


class TestDeterminism:
    def test_same_seed_same_bytes(self):
        for seed in (0, 7, 12345):
            first = generate(seed, "small")
            second = generate(seed, "small")
            assert first.source == second.source
            assert first.expected_checksum == second.expected_checksum
            assert first.expected_console == second.expected_console

    def test_byte_identical_across_processes(self):
        """The acceptance guarantee: repro-gen output is reproducible
        from the seed alone, including in a fresh interpreter (no
        hash-randomization or dict-order dependence)."""
        script = ("import sys; sys.path.insert(0, 'src'); "
                  "from repro.gen import generate; "
                  "sys.stdout.write(generate(42, 'small').source)")
        runs = [subprocess.run([sys.executable, "-c", script],
                               capture_output=True, text=True, check=True,
                               env={**os.environ,
                                    "PYTHONHASHSEED": str(n)}).stdout
                for n in (0, 1)]
        assert runs[0] == runs[1] == generate(42, "small").source

    def test_different_seeds_differ(self):
        sources = {generate(seed, "small").source for seed in range(8)}
        assert len(sources) == 8

    def test_sizes_scale(self):
        small = generate(5, "small").source
        large = generate(5, "large").source
        assert len(large) > len(small)

    def test_unknown_size_rejected(self):
        with pytest.raises(ValueError, match="unknown size"):
            generate(0, "jumbo")


class TestSelfCheck:
    @pytest.mark.parametrize("seed", range(6))
    def test_small_seeds_self_check(self, seed):
        program = generate(seed, "small")
        image = link(compile_source(program.source).program)
        result = simulate(image, SystemConfig.uncached())
        assert result.exit_code == program.expected_exit == 42
        assert tuple(result.console) == program.expected_console
        assert result.console[-2:] == ["O", "K"]

    @pytest.mark.parametrize("size", sorted(SIZE_PROFILES))
    def test_each_size_compiles_and_passes(self, size):
        program = generate(99, size)
        image = link(compile_source(program.source).program)
        assert simulate(image, SystemConfig.uncached()).exit_code == 42

    def test_checksum_is_nonnegative_int(self):
        program = generate(3, "small")
        assert 0 <= program.expected_checksum <= 0x7FFFFFFF
        assert str(program.expected_checksum) in program.source


class TestHarness:
    @pytest.mark.parametrize("seed", (0, 17))
    def test_full_tiers_on_default_shapes(self, seed):
        summary = check_seed(seed, "small")
        assert summary["exit"] == 42
        assert len(summary["cycles"]) >= 4   # >= 4 hierarchy shapes
        check_misses(generate(seed, "small"))

    def test_spm_placement(self):
        check_spm_placement(generate(8, "small"))

    def test_domain_differential_tier(self):
        check_domains(generate(2, "small"))

    def test_failure_message_names_seed(self):
        import dataclasses
        broken = dataclasses.replace(generate(4, "small"),
                                     expected_exit=7)
        with pytest.raises(SoundnessFailure, match="repro-gen --seed 4"):
            check_program(broken)


class TestCorpusAndCli:
    def test_write_corpus(self, tmp_path):
        paths = write_corpus(tmp_path, range(3), "small")
        assert [p.rsplit("/", 1)[-1] for p in paths] == \
            [f"gen_small_{seed:06d}.mc" for seed in range(3)]
        text = (tmp_path / "gen_small_000001.mc").read_text()
        assert text == generate(1, "small").source

    def test_cli_prints_source(self, capsys):
        from repro.gen.cli import main
        assert main(["--seed", "6"]) == 0
        out = capsys.readouterr().out
        assert out == generate(6, "small").source

    def test_cli_check_passes(self, capsys):
        from repro.gen.cli import main
        assert main(["--seed", "9", "--check", "--quiet"]) == 0
        assert "1/1 seeds passed" in capsys.readouterr().out

    def test_cli_bad_seed_range(self):
        from repro.gen.cli import main
        with pytest.raises(SystemExit):
            main(["--seeds", "5:5"])

    def test_repro_cc_gen_delegates(self, capsys):
        from repro.cli import main
        assert main(["gen", "--seed", "6"]) == 0
        assert capsys.readouterr().out == generate(6, "small").source


def test_wrap32_is_twos_complement():
    assert wrap32(0x80000000) == -0x80000000
    assert wrap32(0x7FFFFFFF) == 0x7FFFFFFF
    assert wrap32(-1 << 40) == 0
    assert wrap32(0xFFFFFFFF) == -1
