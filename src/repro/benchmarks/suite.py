"""Benchmark registry — the paper's Table 2.

================ =========================================================
Name             Description
================ =========================================================
G.721            Speech encoding and decoding, CCITT ADPCM reference
                 implementation (MediaBench)
ADPCM            Adaptive Differential PCM coder/decoder, IMA/DVI variant
                 (MediaBench)
MultiSort        A mix of sorting algorithms commonly found in many
                 applications
SortWC           Insertion sort with a known worst-case input (precision
                 check, §4 of the paper)
================ =========================================================
"""

from __future__ import annotations

from dataclasses import dataclass
from importlib import resources


@dataclass(frozen=True)
class Benchmark:
    """One registered benchmark program."""

    name: str
    source_file: str
    description: str
    #: the one console line the program prints, and its exit code
    console: str
    exit_code: int
    #: part of the paper's Table 2 (BubbleWC is the §4 side experiment)
    in_table2: bool = True

    def source(self) -> str:
        package = resources.files("repro.benchmarks") / "sources"
        return (package / self.source_file).read_text()

    def expected(self):
        """``(expected console lines, expected exit code)``."""
        return [self.console], self.exit_code


BENCHMARKS = {
    "g721": Benchmark(
        name="G.721",
        source_file="g721.mc",
        description=("Speech encoding and decoding, CCITT ADPCM "
                     "reference implementation (MediaBench)"),
        console="750771",
        exit_code=179,
    ),
    "adpcm": Benchmark(
        name="ADPCM",
        source_file="adpcm.mc",
        description=("Adaptive Differential PCM coder/decoder, "
                     "IMA/DVI variant (MediaBench)"),
        console="157417",
        exit_code=233,
    ),
    "multisort": Benchmark(
        name="MultiSort",
        source_file="multisort.mc",
        description=("A mix of sorting algorithms commonly found in "
                     "many applications"),
        console="8104",
        exit_code=168,
    ),
    "fir": Benchmark(
        name="FIR",
        source_file="fir.mc",
        description=("35-tap FIR filter, fixed point "
                     "(Malardalen-style, extended suite)"),
        console="278479",
        exit_code=207,
        in_table2=False,
    ),
    "crc": Benchmark(
        name="CRC",
        source_file="crc.mc",
        description=("CRC-16/CCITT, bit-serial and table-driven "
                     "(Malardalen-style, extended suite)"),
        console="46970",
        exit_code=122,
        in_table2=False,
    ),
    "matmult": Benchmark(
        name="MatMult",
        source_file="matmult.mc",
        description=("12x12 integer matrix multiplication "
                     "(Malardalen-style, extended suite)"),
        console="49978",
        exit_code=58,
        in_table2=False,
    ),
    "sort_wc": Benchmark(
        name="SortWC",
        source_file="sort_wc.mc",
        description=("Insertion sort with a known worst-case input "
                     "(WCET precision check)"),
        console="17440",
        exit_code=32,
        in_table2=False,
    ),
}


def get(name: str) -> Benchmark:
    return BENCHMARKS[name]


def table2_rows():
    """The rows of the paper's Table 2."""
    return [(b.name, b.description)
            for b in BENCHMARKS.values() if b.in_table2]
