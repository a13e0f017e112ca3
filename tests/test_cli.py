"""The repro-cc command-line front end."""

import pytest

from repro.cli import main
from repro.link import link
from repro.memory import CacheConfig, SystemConfig
from repro.minic import compile_source

from .oracles import record

SOURCE = """
int data[16];
int main(void) {
    int i; int t = 0;
    for (i = 0; i < 16; i++) { data[i] = i * 3; }
    for (i = 0; i < 16; i++) { t += data[i]; }
    __print_int(t);
    return t & 255;
}
"""


@pytest.fixture()
def source_file(tmp_path):
    path = tmp_path / "task.c"
    path.write_text(SOURCE)
    return str(path)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out


class TestRun:
    def test_plain(self, source_file, capsys):
        code, out = run_cli(capsys, "run", source_file)
        assert code == 0
        assert "360" in out                 # printed checksum
        assert "# cycles:" in out

    def test_spm(self, source_file, capsys):
        _code, out = run_cli(capsys, "run", source_file, "--spm", "512")
        assert "scratchpad" in out

    def test_cache_stats_printed(self, source_file, capsys):
        _code, out = run_cli(capsys, "run", source_file,
                             "--cache", "256")
        assert "miss rate" in out

    def test_record_misses_reports_hottest_fetch_misses(self, source_file,
                                                        capsys):
        _code, plain = run_cli(capsys, "run", source_file, "--cache", "256")
        code, out = run_cli(capsys, "run", source_file, "--cache", "256",
                            "--record-misses")
        assert code == 0
        assert out.startswith(plain)
        recorded = record(link(compile_source(SOURCE).program),
                          SystemConfig.cached(CacheConfig(size=256)))
        worst = sorted(recorded.fetch_misses.items(),
                       key=lambda kv: (-kv[1], kv[0]))[:5]
        assert len(worst) == 5
        assert out[len(plain):].splitlines() == (
            ["# hottest fetch-miss addresses:"]
            + [f"#   {addr:#010x}  {count} misses" for addr, count in worst])

    def test_record_misses_without_a_cache(self, source_file, capsys):
        _code, plain = run_cli(capsys, "run", source_file, "--spm", "256")
        code, out = run_cli(capsys, "run", source_file, "--spm", "256",
                            "--record-misses")
        assert code == 0
        assert out == plain

    def test_spm_and_cache_conflict(self, source_file, capsys):
        with pytest.raises(SystemExit):
            main(["run", source_file, "--spm", "64", "--cache", "64"])
        # A geometry no cache can have is an option error too.
        for geometry in (["--cache", "100"],
                         ["--cache", "256", "--assoc", "0"],
                         ["--cache", "256", "--assoc", "-2"]):
            with pytest.raises(SystemExit, match="invalid memory pipeline"):
                main(["run", source_file, *geometry])
        with pytest.raises(SystemExit, match="not divisible"):
            main(["sweep", source_file, "--sizes", "256", "--assoc", "3"])


class TestWcet:
    def test_report(self, source_file, capsys):
        code, out = run_cli(capsys, "wcet", source_file)
        assert code == 0
        assert "WCET(_start)" in out
        assert "stack bound" in out

    def test_cache_classification_line(self, source_file, capsys):
        _code, out = run_cli(capsys, "wcet", source_file,
                             "--cache", "512", "--persistence")
        assert "always-hit" in out

    def test_compare(self, source_file, capsys):
        _code, out = run_cli(capsys, "compare", source_file,
                             "--spm", "256")
        assert "WCET / sim ratio" in out


class TestInspection:
    def test_map(self, source_file, capsys):
        _code, out = run_cli(capsys, "map", source_file)
        assert "data" in out and "main" in out

    def test_disasm(self, source_file, capsys):
        _code, out = run_cli(capsys, "disasm", source_file)
        assert "main:" in out
        assert "push {lr}" in out
        assert "pop {pc}" in out

    def test_annotations(self, source_file, capsys):
        _code, out = run_cli(capsys, "annotations", source_file,
                             "--spm", "128")
        assert "# Scratchpad" in out
        assert "LOOP-BOUND" in out

    def test_wcet_driven_alloc_option(self, source_file, capsys):
        _code, out = run_cli(capsys, "compare", source_file,
                             "--spm", "256", "--alloc", "wcet")
        assert "scratchpad" in out
