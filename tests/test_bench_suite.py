"""Structure checks for the unified benchmark suite.

The suite's *numbers* are machine-dependent and guarded by the CI
bench-smoke job (``bench_suite.py --check``); these tests assert the
semantic anchors and report shapes so a refactor cannot silently drop a
measured point or change what a run simulates.
"""

import json
import sys
from pathlib import Path

import pytest

_BENCH_DIR = Path(__file__).parent.parent / "benchmarks"
sys.path.insert(0, str(_BENCH_DIR))

import bench_suite  # noqa: E402


@pytest.fixture(scope="module")
def sim_report():
    return bench_suite.bench_simulator(rounds=1)


EXECUTE_LABELS = ("uncached", "l1", "l1+l2", "split-i/d")


def test_simulator_report_shape(sim_report):
    expected = set(EXECUTE_LABELS)
    expected |= {f"{label} (replay)" for label in EXECUTE_LABELS}
    expected |= {f"{label} (replay)"
                 for label in bench_suite.ASSOC_REPLAY_CONFIGS}
    expected |= {"trace-record", "sweep-x8 (replay)",
                 "geometry-grid (replay)", "trace-rle-load"}
    assert set(sim_report) == expected
    for entry in sim_report.values():
        assert entry["instructions_per_sec"] > 0
        assert entry["seconds"] > 0
    assert sim_report["sweep-x8 (replay)"]["points"] == 8
    assert sim_report["geometry-grid (replay)"]["points"] == 32
    assert sim_report["trace-rle-load"]["rle_bytes"] \
        < sim_report["trace-rle-load"]["ops_bytes"]
    assert sim_report["trace-record"]["accesses"] > 0


def test_simulator_semantic_anchors(sim_report):
    committed = json.loads(
        (_BENCH_DIR / "BENCH_hierarchy.json").read_text())
    for label in EXECUTE_LABELS:
        # Cycles and instruction counts are simulation facts, not
        # timings: they must match the committed trajectory baseline —
        # on the execute rows and on their trace-replay twins.
        entry = sim_report[label]
        assert entry["sim_cycles"] == committed[label]["sim_cycles"]
        assert entry["instructions"] == committed[label]["instructions"]
        replayed = sim_report[f"{label} (replay)"]
        assert replayed["sim_cycles"] == committed[label]["sim_cycles"]
    # The replay-only set-associative rows are anchored on the committed
    # simulator report (the bench asserts each against execution).
    committed = json.loads(
        (_BENCH_DIR / "BENCH_simulator.json").read_text())
    for label in bench_suite.ASSOC_REPLAY_CONFIGS:
        label = f"{label} (replay)"
        assert sim_report[label]["sim_cycles"] == \
            committed[label]["sim_cycles"]


def test_wcet_report_anchors():
    report = bench_suite.bench_wcet(rounds=1)
    committed = json.loads((_BENCH_DIR / "BENCH_wcet.json").read_text())
    assert set(report) == set(committed)
    for label, entry in report.items():
        assert entry["wcet_cycles"] == committed[label]["wcet_cycles"]
        assert entry["seconds"] > 0
        # The cold round can never beat the reuse-cache-warm best.
        assert entry["cold_seconds"] >= entry["seconds"]


def test_store_report_shape():
    report = bench_suite.bench_store(rounds=1)
    entry = report["store-overhead"]
    assert entry["payload_bytes"] > 0
    assert entry["pairs"] >= 24
    assert entry["raw_seconds"] > 0
    assert entry["store_seconds"] > 0
    # The estimator is a per-pair median, so the ratio must be
    # consistent with the two totals it summarises (same cycle count).
    assert 0.5 < entry["overhead_ratio"] < 2.0


def test_wcet_points_cover_all_shapes_and_benchmarks():
    labels = {label for label, _bench, _config in bench_suite.WCET_POINTS}
    assert len(labels) == 12
    for bench in ("g721", "adpcm", "multisort"):
        for shape in ("uncached", "l1-256", "l1+l2", "split-i/d"):
            assert f"{bench}/{shape}" in labels


def test_experiments_baseline_matches_runner():
    from repro.experiments.runner import EXPERIMENTS

    committed = json.loads(
        (_BENCH_DIR / "BENCH_experiments.json").read_text())
    assert set(committed) == set(EXPERIMENTS) | {"total"}
    for entry in committed.values():
        # Individual experiments may round to 0.00 s (fig4 reuses
        # fig3's cached points entirely), but never go negative.
        assert entry["seconds"] >= 0
    assert committed["total"]["seconds"] > 0
