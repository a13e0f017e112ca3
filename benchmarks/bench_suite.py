"""Unified performance suite: simulator throughput + WCET analysis time.

Measures the two hot paths this repo's experiments are built on and
writes one JSON artefact per engine, next to this file:

* ``BENCH_simulator.json`` — simulated instructions per host second for
  the ADPCM executable across every hierarchy depth (the same configs as
  :mod:`bench_hierarchy`), plus the speedup factor versus the committed
  ``BENCH_hierarchy.json`` trajectory baseline.  Each config also gets
  a ``<label> (replay)`` row — re-pricing the recorded trace instead of
  re-executing — and two set-associative shapes (``l1-4way``,
  ``l1+l2-4way``) get replay rows only, alongside a one-off
  ``trace-record`` row, a
  ``sweep-x8 (replay)`` row for the single-pass Mattson kernel serving
  all eight paper cache sizes at once (its throughput counts the
  trace's instructions once per size served), a
  ``geometry-grid (replay)`` row pricing a 32-point
  (size × associativity) instruction-cache grid in one pass (asserted
  equal to per-point replay), and a ``trace-rle-load`` row unpickling
  the run-length-encoded trace and expanding its ops;
* ``BENCH_wcet.json`` — wall seconds for a whole-program WCET analysis
  on every hierarchy shape × {g721, adpcm, multisort} point, plus the
  computed bound (so an accidental semantic change shows up in review).
  Each point records ``cold_seconds`` (first run after
  ``clear_analysis_caches()``: the full CFG + fixpoint + IPET cost) and
  ``seconds`` (best of the remaining rounds, i.e. the warm path a sweep
  actually pays, with the content-addressed reuse caches hitting);
* ``BENCH_experiments.json`` — wall seconds per full-sweep experiment
  (the ``repro-experiments`` artefact regeneration), the end-to-end
  number the two baselines above exist to protect;
* ``BENCH_store.json`` — the ``ArtifactStore`` full-cycle cost versus
  the raw-pickle disk idiom it replaced, as a paired median ratio.
  Unlike the other sections this gate is same-run (store vs raw on the
  same host, seconds apart), so it holds on any machine.
* ``BENCH_serve.json`` — daemon round-trip throughput for the
  ``repro-serve-load`` standard request mix against a freshly spawned
  ``repro-serve`` daemon, with every response verified byte-identical
  to direct evaluation.  The throughput number is what the dedup +
  memo machinery buys (most of the mix coalesces); correctness is a
  hard in-run gate (any verification failure aborts the section).

Every timing is the best of ``--rounds`` (default 3)
``time.perf_counter`` runs (experiments run once: they are long and
internally averaged enough to be stable), so one-off scheduler noise
doesn't contaminate the committed baselines.

CI runs ``python benchmarks/bench_suite.py --check``, which re-measures
and fails when any point regresses by more than ``--tolerance`` (default
30%) against the committed baselines — the bench-smoke job.

Usage::

    PYTHONPATH=src python benchmarks/bench_suite.py            # write
    PYTHONPATH=src python benchmarks/bench_suite.py --check    # compare
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import sys
import tempfile
import time
from pathlib import Path

from repro.benchmarks import get
from repro.link import link
from repro.memory import CacheConfig, SystemConfig
from repro.minic import compile_source
import pickle

from repro.sim import (record_trace, replay, replay_grid, replay_sweep,
                       simulate)
from repro.wcet.analyzer import analyze_wcet, clear_analysis_caches
from repro.workflow import PAPER_SIZES

from bench_hierarchy import CONFIGS as SIM_CONFIGS

_HERE = Path(__file__).parent
SIM_BASELINE = _HERE / "BENCH_hierarchy.json"
SIM_REPORT = _HERE / "BENCH_simulator.json"
WCET_REPORT = _HERE / "BENCH_wcet.json"
EXPERIMENTS_REPORT = _HERE / "BENCH_experiments.json"
STORE_REPORT = _HERE / "BENCH_store.json"
SERVE_REPORT = _HERE / "BENCH_serve.json"

#: The four hierarchy shapes every WCET benchmark is analysed under.
WCET_SHAPES = (
    ("uncached", lambda: SystemConfig.uncached()),
    ("l1-256", lambda: SystemConfig.cached(CacheConfig(size=256))),
    ("l1+l2", lambda: SystemConfig.two_level(CacheConfig(size=256),
                                             CacheConfig(size=1024))),
    ("split-i/d", lambda: SystemConfig.split_l1(
        CacheConfig(size=256, unified=False), CacheConfig(size=256))),
)

WCET_BENCHMARKS = ("g721", "adpcm", "multisort")

#: Set-associative LRU shapes timed on the replay path only (the
#: execute rows keep the ``bench_hierarchy`` trajectory's configs).
#: Their rows time the set-associative numpy kernel, so a regression in
#: it fails ``--check``.
ASSOC_REPLAY_CONFIGS = {
    "l1-4way": SystemConfig.cached(CacheConfig(size=1024, assoc=4)),
    "l1+l2-4way": SystemConfig.two_level(
        CacheConfig(size=1024), CacheConfig(size=4096, assoc=4)),
}

#: (label, benchmark, SystemConfig) points for the WCET timing section.
WCET_POINTS = tuple(
    (f"{bench}/{shape}", bench, make_config())
    for bench in WCET_BENCHMARKS
    for shape, make_config in WCET_SHAPES
)

_IMAGES = {}


def _image(key):
    if key not in _IMAGES:
        _IMAGES[key] = link(compile_source(get(key).source()).program)
    return _IMAGES[key]


def _best_of(rounds, func):
    """(best seconds, last result) over *rounds* timed runs."""
    best = None
    result = None
    for _ in range(rounds):
        start = time.perf_counter()
        result = func()
        elapsed = time.perf_counter() - start
        if best is None or elapsed < best:
            best = elapsed
    return best, result


def _best_of_scaled(rounds, func, min_seconds=0.002):
    """Like :func:`_best_of`, but repeats *func* inside each round until
    a round lasts at least *min_seconds*, reporting per-call seconds.

    The O(1) replay paths finish in microseconds; timing a single call
    there would gate CI on scheduler noise rather than on the kernel.
    """
    start = time.perf_counter()
    result = func()
    probe = time.perf_counter() - start
    repeats = max(1, int(min_seconds / max(probe, 1e-9)))
    if repeats == 1:
        best, result = _best_of(max(rounds - 1, 1), func)
        return min(probe, best), result
    best = None
    for _ in range(rounds):
        start = time.perf_counter()
        for _ in range(repeats):
            result = func()
        elapsed = (time.perf_counter() - start) / repeats
        if best is None or elapsed < best:
            best = elapsed
    return best, result


def bench_simulator(rounds=3) -> dict:
    """Throughput per hierarchy config, with speedup vs. the committed
    BENCH_hierarchy.json baseline when one is present.

    Execute-per-config rows measure the engine; the replay rows measure
    the trace path the sweeps actually take — one ``trace-record`` run
    (engine + stream capture), then per-config replays of that trace,
    then the single-pass sweep kernel pricing all eight paper sizes in
    one walk.  Replay results are asserted equal to execution, so a
    kernel that silently diverged would fail the bench, not just slow
    down.
    """
    baseline = {}
    if SIM_BASELINE.exists():
        baseline = json.loads(SIM_BASELINE.read_text())
    image = _image("adpcm")
    report = {}
    for label, config in SIM_CONFIGS.items():
        seconds, result = _best_of(
            rounds, lambda config=config: simulate(image, config))
        per_sec = round(result.instructions / seconds)
        entry = {
            "sim_cycles": result.cycles,
            "instructions": result.instructions,
            "seconds": round(seconds, 4),
            "instructions_per_sec": per_sec,
        }
        base = baseline.get(label, {}).get("instructions_per_sec")
        if base:
            entry["speedup_vs_baseline"] = round(per_sec / base, 2)
        report[label] = entry

    seconds, trace = _best_of(rounds, lambda: record_trace(image, 0))
    report["trace-record"] = {
        "accesses": trace.accesses,
        "seconds": round(seconds, 4),
        "instructions_per_sec": round(trace.instructions / seconds),
    }
    for label, config in SIM_CONFIGS.items():
        seconds, result = _best_of_scaled(
            rounds, lambda config=config: replay(trace, config))
        assert result.cycles == report[label]["sim_cycles"], label
        report[f"{label} (replay)"] = {
            "sim_cycles": result.cycles,
            "seconds": round(seconds, 6),
            "instructions_per_sec": round(result.instructions / seconds),
        }
    for label, config in ASSOC_REPLAY_CONFIGS.items():
        seconds, result = _best_of_scaled(
            rounds, lambda config=config: replay(trace, config))
        assert result.cycles == simulate(image, config).cycles, label
        report[f"{label} (replay)"] = {
            "sim_cycles": result.cycles,
            "seconds": round(seconds, 6),
            "instructions_per_sec": round(result.instructions / seconds),
        }
    sweep_configs = [SystemConfig.cached(CacheConfig(size=size))
                     for size in PAPER_SIZES]
    seconds, results = _best_of_scaled(
        rounds, lambda: replay_sweep(trace, sweep_configs))
    report["sweep-x8 (replay)"] = {
        "points": len(results),
        "seconds": round(seconds, 4),
        "instructions_per_sec": round(
            trace.instructions * len(results) / seconds),
    }
    grid_configs = [
        SystemConfig.cached(CacheConfig(size=size, assoc=assoc,
                                        unified=False))
        for size in (128, 256, 512, 1024, 2048, 4096, 8192, 16384)
        for assoc in (1, 2, 4, 8)]
    seconds, results = _best_of_scaled(
        rounds, lambda: replay_grid(trace, grid_configs))
    for config, result in zip(grid_configs, results):
        assert result.cycles == replay(trace, config).cycles, config
    report["geometry-grid (replay)"] = {
        "points": len(results),
        "seconds": round(seconds, 4),
        "instructions_per_sec": round(
            trace.instructions * len(results) / seconds),
    }
    payload = pickle.dumps(trace)
    seconds, expanded = _best_of_scaled(
        rounds, lambda: len(pickle.loads(payload).ops))
    assert expanded == trace.accesses
    report["trace-rle-load"] = {
        "ops_bytes": trace.accesses * 8,
        "rle_bytes": len(payload),
        "seconds": round(seconds, 6),
        "instructions_per_sec": round(trace.instructions / seconds),
    }
    return report


def bench_wcet(rounds=3) -> dict:
    """WCET analysis wall time per (benchmark × hierarchy shape) point.

    Each point is timed cold (analysis caches cleared first: the full
    CFG reconstruction + cache fixpoints + IPET cost) and then warm
    (best of the remaining rounds, with the content-addressed reuse
    caches hitting — what a configuration sweep actually pays per
    repeated point).  ``seconds`` is the best overall round, matching
    how sweeps consume the analyser; ``cold_seconds`` keeps the
    no-cache cost honest and regression-guarded too.
    """
    report = {}
    for label, bench, config in WCET_POINTS:
        image = _image(bench)
        clear_analysis_caches()
        run = lambda image=image, config=config: analyze_wcet(image, config)
        start = time.perf_counter()
        result = run()
        cold = time.perf_counter() - start
        best, result = _best_of(max(rounds - 1, 1), run)
        report[label] = {
            "wcet_cycles": result.wcet,
            "seconds": round(min(cold, best), 4),
            "cold_seconds": round(cold, 4),
        }
    return report


def bench_store(rounds=3) -> dict:
    """ArtifactStore full-cycle cost against the raw-pickle disk idiom
    it replaced (sha256 digest path, ``pickle.dumps`` to a tmp file,
    ``os.replace``, then read + ``pickle.loads`` — no verification).

    Both sides do the identical dumps/rename/read/loads work on the
    recorded ADPCM trace; the store adds its checksummed envelope (one
    word-sum pass over the payload per direction) and counter
    bookkeeping.  Cycles are timed in raw/store pairs with alternating
    order and summarised by per-cycle medians: ``os.replace`` swings
    2-3x with filesystem journal state, which best-of or averaging
    would smear into the comparison, while pairing and medians cancel
    it.  The gate (in :func:`check`) is same-run — store total within
    5% of the raw total plus the suite's standard few-ms slack — so it
    needs no committed baseline and cannot drift with the host.
    """
    from repro.store import ArtifactStore

    trace = record_trace(_image("adpcm"), 0)
    key = ("bench", "store-overhead")
    with tempfile.TemporaryDirectory(prefix="bench-store-") as root:
        raw_dir = os.path.join(root, "raw")
        os.makedirs(raw_dir)
        store = ArtifactStore(os.path.join(root, "store"), suffix=".pkl")

        def raw_cycle():
            digest = hashlib.sha256(repr(key).encode()).hexdigest()
            path = os.path.join(raw_dir, digest + ".pkl")
            blob = pickle.dumps(trace, pickle.HIGHEST_PROTOCOL)
            tmp = path + ".tmp"
            with open(tmp, "wb") as handle:
                handle.write(blob)
            os.replace(tmp, path)
            with open(path, "rb") as handle:
                return pickle.loads(handle.read())

        def store_cycle():
            store.store(key, trace)
            return store.load(key)

        assert raw_cycle().accesses == trace.accesses
        assert store_cycle().accesses == trace.accesses  # and warm both
        pairs = max(24, 16 * rounds)
        raw_times, store_times = [], []
        for index in range(pairs):
            first, second = ((raw_cycle, store_cycle) if index % 2 == 0
                             else (store_cycle, raw_cycle))
            start = time.perf_counter()
            first()
            middle = time.perf_counter()
            second()
            end = time.perf_counter()
            if index % 2 == 0:
                raw_times.append(middle - start)
                store_times.append(end - middle)
            else:
                store_times.append(middle - start)
                raw_times.append(end - middle)
        payload_bytes = len(pickle.dumps(trace, pickle.HIGHEST_PROTOCOL))
        counters = dict(store.counters)
    assert counters["corrupt"] == 0 and counters["write_errors"] == 0
    ratio = statistics.median(
        s / r for s, r in zip(store_times, raw_times))
    return {"store-overhead": {
        "payload_bytes": payload_bytes,
        "pairs": pairs,
        "raw_seconds": round(statistics.median(raw_times) * pairs, 6),
        "store_seconds": round(statistics.median(store_times) * pairs, 6),
        "overhead_ratio": round(ratio, 4),
    }}


def bench_serve() -> dict:
    """Daemon round-trip throughput for the standard serve load mix.

    Spawns a real ``repro-serve`` daemon (own process, fresh private
    cache), drives it with ``repro-serve-load``'s deterministic
    request mix, and records client-side throughput and latency.  The
    load generator verifies every response byte-identical to direct
    evaluation and requires a clean SIGTERM drain — any failure aborts
    the section rather than committing a number for a broken daemon.
    The ``served`` breakdown (computed / coalesced / memo) is recorded
    as a snapshot of the dedup economics, not gated: the exact split
    races with client scheduling.
    """
    from repro.serve import loadgen

    mix = ["--requests", "120", "--clients", "4",
           "--benches", "crc,fir", "--workers", "2", "--seed", "1234"]
    code, metrics, failures = loadgen.run_load(
        loadgen.build_parser().parse_args(mix))
    if code != 0:
        raise RuntimeError(f"serve load run failed: {failures}")
    return {"serve-load": {
        "requests": metrics["requests"],
        "clients": metrics["clients"],
        "throughput_rps": metrics["throughput_rps"],
        "latency_p50_ms": metrics["latency_ms"]["p50"],
        "latency_p95_ms": metrics["latency_ms"]["p95"],
        "served": metrics["served"],
        "distinct_keys_verified": metrics["distinct_keys_verified"],
    }}


def bench_experiments() -> dict:
    """Wall time of every full-sweep experiment, runner-style.

    Experiments share the process-wide workflow and analysis caches
    exactly as ``repro-experiments`` does, so the committed numbers
    reflect (and guard) the cross-point reuse the analyser caches buy.
    Runs each experiment once — a full sweep is long enough to be
    timing-stable, and CI cannot afford best-of-N here.
    """
    from repro.experiments.runner import EXPERIMENTS

    report = {}
    total = 0.0
    for name, run in EXPERIMENTS.items():
        start = time.perf_counter()
        run(fast=False)
        seconds = time.perf_counter() - start
        report[name] = {"seconds": round(seconds, 2)}
        total += seconds
    report["total"] = {"seconds": round(total, 2)}
    return report


def _check_seconds(kind, label, measured, base, floor, slack=0.0,
                   gate=True) -> bool:
    """Print one seconds-based comparison; True when it regressed.

    *slack* is an absolute allowance on top of the relative floor: the
    warm WCET entries are single-digit milliseconds, where a GC pause
    or noisy-neighbor blip on a hosted runner dwarfs a 30% margin.  A
    few ms of slack keeps those gates jitter-proof while still failing
    on the cliff that matters (warm collapsing to the 10-80 ms cold
    path when a reuse cache dies).  With ``gate=False`` the comparison
    is printed as ``info`` and never counts as a regression.
    """
    if not base:
        return False
    # Throughput ratio: committed seconds / measured seconds.
    ratio = base / measured if measured else 1.0
    if not gate:
        status = "info"
    elif measured <= base / floor + slack:
        status = "ok"
    else:
        status = "REGRESSION"
    print(f"{kind} {label:24} {measured:.4f}s"
          f"  ({ratio:.2f}x committed)  {status}")
    return status == "REGRESSION"


def check(sim_report, wcet_report, experiments_report, tolerance,
          store_report=None, serve_report=None) -> int:
    """Compare fresh measurements against the committed baselines.

    Returns the number of regressions beyond *tolerance* (a fraction:
    0.3 means "fail when >30% slower than the committed number").
    """
    failures = 0
    floor = 1.0 - tolerance
    if store_report is not None:
        # Same-run gate, no committed baseline: the raw side ran on the
        # same host seconds earlier, so the 5% bound is on the envelope
        # itself.  The few-ms slack matches the warm-WCET gates — both
        # totals are tens of ms, where one GC pause outweighs 5%.
        entry = store_report["store-overhead"]
        bound = entry["raw_seconds"] * 1.05 + 0.005
        status = ("ok" if entry["store_seconds"] <= bound
                  else "REGRESSION")
        print(f"stor store-overhead        store {entry['store_seconds']:.4f}s"
              f" vs raw {entry['raw_seconds']:.4f}s over"
              f" {entry['pairs']} cycles  (median cycle ratio"
              f" {entry['overhead_ratio']:.3f}; gate 1.05x + 5ms)  {status}")
        failures += status != "ok"
    if serve_report is not None:
        if SERVE_REPORT.exists():
            committed = json.loads(SERVE_REPORT.read_text())
            for label, entry in serve_report.items():
                base = committed.get(label, {}).get("throughput_rps")
                if not base:
                    continue
                # Correctness already gated in-run (the load generator
                # verified every response and the drain); the committed
                # baseline only guards round-trip throughput.
                ratio = entry["throughput_rps"] / base
                status = "ok" if ratio >= floor else "REGRESSION"
                print(f"srv  {label:12} {entry['throughput_rps']:>8}"
                      f" req/s  ({ratio:.2f}x committed)  {status}")
                failures += status != "ok"
        else:
            print(f"serve baseline {SERVE_REPORT.name} missing; "
                  "nothing to check")
    if SIM_REPORT.exists():
        committed = json.loads(SIM_REPORT.read_text())
        for label, entry in sim_report.items():
            base = committed.get(label, {}).get("instructions_per_sec")
            if not base:
                continue
            ratio = entry["instructions_per_sec"] / base
            status = "ok" if ratio >= floor else "REGRESSION"
            print(f"sim  {label:12} {entry['instructions_per_sec']:>9}"
                  f" instr/s  ({ratio:.2f}x committed)  {status}")
            failures += status != "ok"
    else:
        print(f"sim  baseline {SIM_REPORT.name} missing; nothing to check")
    if WCET_REPORT.exists():
        committed = json.loads(WCET_REPORT.read_text())
        for label, entry in wcet_report.items():
            base = committed.get(label, {})
            failures += _check_seconds(
                "wcet", label, entry["seconds"], base.get("seconds"),
                floor, slack=0.005)
            if "cold_seconds" in entry and base.get("cold_seconds"):
                failures += _check_seconds(
                    "wcet", label + " (cold)", entry["cold_seconds"],
                    base["cold_seconds"], floor, slack=0.005)
    else:
        print(f"wcet baseline {WCET_REPORT.name} missing; nothing to check")
    if experiments_report is not None:
        if EXPERIMENTS_REPORT.exists():
            committed = json.loads(EXPERIMENTS_REPORT.read_text())
            for label, entry in experiments_report.items():
                # Only the aggregate is a gate: individual experiments
                # are short and cross-coupled through the shared
                # caches, too noisy for a hard floor.
                failures += _check_seconds(
                    "swp ", label, entry["seconds"],
                    committed.get(label, {}).get("seconds"), floor,
                    gate=label == "total")
        else:
            print(f"sweep baseline {EXPERIMENTS_REPORT.name} missing; "
                  "nothing to check")
    return failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Measure simulator + WCET throughput; write or "
                    "check the BENCH_*.json baselines.")
    parser.add_argument("--rounds", type=int, default=3,
                        help="timed runs per point, best kept (default 3)")
    parser.add_argument("--check", action="store_true",
                        help="compare against committed BENCH_*.json "
                             "instead of rewriting them")
    parser.add_argument("--tolerance", type=float, default=0.30,
                        help="allowed throughput regression fraction for "
                             "--check (default 0.30)")
    parser.add_argument("--skip-experiments", action="store_true",
                        help="skip the full-sweep wall-time section "
                             "(it regenerates every paper artefact)")
    args = parser.parse_args(argv)

    sim_report = bench_simulator(args.rounds)
    wcet_report = bench_wcet(args.rounds)
    store_report = bench_store(args.rounds)
    serve_report = bench_serve()
    experiments_report = (None if args.skip_experiments
                          else bench_experiments())

    if args.check:
        failures = check(sim_report, wcet_report, experiments_report,
                         args.tolerance, store_report, serve_report)
        if failures:
            print(f"{failures} benchmark(s) regressed beyond "
                  f"{100 * args.tolerance:.0f}%")
            return 1
        print("bench-smoke: no regressions")
        return 0

    SIM_REPORT.write_text(json.dumps(sim_report, indent=2) + "\n")
    WCET_REPORT.write_text(json.dumps(wcet_report, indent=2) + "\n")
    STORE_REPORT.write_text(json.dumps(store_report, indent=2) + "\n")
    SERVE_REPORT.write_text(json.dumps(serve_report, indent=2) + "\n")
    if experiments_report is not None:
        EXPERIMENTS_REPORT.write_text(
            json.dumps(experiments_report, indent=2) + "\n")
    for label, entry in sim_report.items():
        speedup = entry.get("speedup_vs_baseline")
        extra = f"  ({speedup}x baseline)" if speedup else ""
        print(f"sim  {label:12} {entry['instructions_per_sec']:>9} "
              f"instr/s{extra}")
    for label, entry in wcet_report.items():
        print(f"wcet {label:20} {entry['seconds']:.4f}s warm / "
              f"{entry['cold_seconds']:.4f}s cold "
              f"(WCET {entry['wcet_cycles']} cycles)")
    entry = store_report["store-overhead"]
    print(f"stor store-overhead  median cycle ratio "
          f"{entry['overhead_ratio']:.3f} vs raw pickle "
          f"({entry['payload_bytes']} byte payload)")
    for label, entry in serve_report.items():
        print(f"srv  {label:15} {entry['throughput_rps']} req/s "
              f"(p50 {entry['latency_p50_ms']}ms, "
              f"p95 {entry['latency_p95_ms']}ms, "
              f"served {entry['served']})")
    for label, entry in (experiments_report or {}).items():
        print(f"swp  {label:20} {entry['seconds']:.2f}s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
