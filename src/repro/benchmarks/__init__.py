"""Benchmark programs (the paper's Table 2) and their expected outputs."""

from .suite import BENCHMARKS, Benchmark, get, table2_rows

__all__ = ["BENCHMARKS", "Benchmark", "get", "table2_rows"]
