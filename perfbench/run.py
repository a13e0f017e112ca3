"""The reproduction's benchmark: one command, four workloads.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload paper-sweep --seed 1 \
        --seconds 20 --trace 0

Workloads (see ``perfbench/README.md`` for why each exists):

* ``paper-sweep`` — all 13 paper experiments, full sweeps, serially, in
  a fresh process (the seed does not apply: the inputs are the paper's);
* ``cache-dse``   — a seeded cache design-space exploration in a fresh
  process;
* ``serve-cold``  — seeded distinct requests to a private daemon;
* ``serve-memo``  — repeated keys answered from the daemon's memo.

A run repeats passes of its workload until ``--seconds`` is used (at
least one pass), checks every output, and prints as its last line one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
With ``--trace 0`` the metrics are the end-to-end ones; with
``--trace 1`` the run makes one untraced and one traced pass and
reports the per-layer ones.  Lines starting with ``#`` before it carry
the host fingerprint, sample counts and the in-run spread.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from common import (REFERENCE_PROBE_S, ROOT, SAMPLE_INTERVAL_S,  # noqa: E402
                    SRC, WORK, host_fingerprint, probe, quantile,
                    repeat_passes, repro_available, run_child,
                    scaled_segments, spread)
from spans import program_self_s  # noqa: E402

#: The tail percentile, p90, which has at least ten samples beyond it in
#: a pass of 100 or more operations.  paper-sweep has 13 samples a pass,
#: short of that; it is reported regardless.  A memo round of 2 000
#: would allow p99, but that tail measures the host's scheduler: its
#: run-to-run spread was twice that of p50.
TAIL_Q = 0.90

#: Probes taken before and after each pass of a traced run, to scale the
#: two passes' times for ``trace_overhead_ratio``.
BRACKET_PROBES = 25

#: ``(name, unit)`` of every end-to-end metric, reported by every workload.
END_TO_END = (
    ("wall_s", "s"),
    ("ops_per_s", "1/s"),
    ("p50_ms", "ms"),
    ("tail_ms", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)

EXPERIMENT_NAMES = (
    "table1", "table2", "fig2", "fig3", "fig4", "fig5", "fig6",
    "worstcase", "ablation_cacheconfig", "ablation_multilevel",
    "ablation_persistence", "ablation_wcet_alloc", "geometry_grid")

#: Traced layers reported as ``<layer>_s`` (self time) and ``_calls``.
TIMED_LAYERS = (
    "minic.compile", "link.link", "sim.execute", "sim.profile",
    "sim.trace_record", "sim.replay", "sim.replay_sweep",
    "sim.replay_grid", "spm.alloc_energy", "spm.alloc_wcet",
    "wcet.driver", "wcet.frontend", "wcet.cache_fixpoint", "wcet.ipet",
    "serve.request")
#: Layers that also count configurations priced (``<layer>_points``).
POINT_LAYERS = ("sim.replay", "sim.replay_sweep", "sim.replay_grid")
#: ``ratio name -> (hits counter, misses counter)``, with base counts.
HIT_RATIOS = {
    "sim.trace": ("trace_hits", "trace_misses"),
    "wcet.frontend": ("frontend_hits", "frontend_misses"),
    "wcet.ipet": ("ipet_hits", "ipet_misses"),
    "wcet.reuse": ("reuse_hits", "reuse_misses"),
}
SERVE_COUNTERS = ("computed", "memo_hits", "coalesced", "sheds", "failed")


def _per_layer_names():
    names = []
    for layer in TIMED_LAYERS:
        names += [(f"{layer}_s", "s"), (f"{layer}_calls", "count")]
        if layer in POINT_LAYERS:
            names.append((f"{layer}_points", "count"))
    names.append(("sim.execute_minstr_per_s", "Minstr/s"))
    for ratio in HIT_RATIOS:
        names += [(f"{ratio}_hit_ratio", "ratio"),
                  (f"{ratio}_lookups", "count")]
    names += [(f"experiments.{name}_s", "s") for name in EXPERIMENT_NAMES]
    names += [("experiments.self_s", "s"), ("workflow.self_s", "s"),
              ("serve.ping_p50_ms", "ms")]
    names += [(f"serve.cold_{op}_p50_ms", "ms")
              for op in ("compile", "wcet", "simulate", "sweep", "grid")]
    names += [(f"serve.{name}", "count") for name in SERVE_COUNTERS]
    names += [("serve.pool_retries", "count"), ("store.entries", "count"),
              ("store.bytes", "bytes"), ("unattributed_s", "s"),
              ("trace_overhead_ratio", "ratio")]
    return tuple(names)


PER_LAYER = _per_layer_names()


# -- passes ------------------------------------------------------------------
#
# Every pass returns ``spans`` (``[start, end]`` of its timed segments, in
# order), ``op_segments`` (which of them are operations), ``samples``
# (``[start, duration]`` host-speed probes; none on ``serve-memo``),
# ``ops``, ``problems`` / ``failed_ops``, ``rss_mb``, ``setup_s`` and
# ``setup_probes_s``.  A workload is ``(run_pass, setup_probe, minimum
# passes)``: serve-cold runs at least twice, the others at least once.

def _child_pass(kind):
    def run_pass(seed, index, traced):
        return run_child({"kind": kind, "seed": seed, "trace": traced})

    def setup_probe(seed):
        return run_child({"kind": kind, "seed": seed, "probe": True})
    return run_pass, setup_probe, 1


def _serve_requests(seed, mode):
    import serve_load
    if mode == "cold":
        return serve_load.make_requests(seed)
    return serve_load.make_requests(seed, generated=(),
                                    keep=serve_load.small_answer)


def _serve_pass(mode):
    def run_pass(seed, index, traced):
        import serve_load
        requests = _serve_requests(seed, mode)
        if mode == "cold":
            result = serve_load.cold_pass(requests, f"c{index}")
        else:
            result = serve_load.memo_pass(requests, seed, f"m{index}")
        result["requests"] = requests
        return result

    def setup_probe(seed):
        import serve_load
        daemon = serve_load.Daemon("probe", serve_load.served_benches(
            _serve_requests(seed, mode)))
        daemon.close()
        return {"setup_s": daemon.setup_s, "setup_probes_s": daemon.probes}
    return run_pass, setup_probe, 2 if mode == "cold" else 1


WORKLOADS = {
    "paper-sweep": _child_pass("sweep"),
    "cache-dse": _child_pass("dse"),
    "serve-cold": _serve_pass("cold"),
    "serve-memo": _serve_pass("memo"),
}


def _check_serve(passes):
    """Verify every served answer; fills each pass's ``failed_ops``.

    A key with a wrong answer fails once a pass; on ``serve-memo`` each
    timed answer that did not come from the memo fails too.
    """
    import serve_load
    requests = passes[0]["requests"]
    records = [record for result in passes for record in result["records"]]
    problems = serve_load.verify(requests, records)
    for result in passes:
        keys = {record[0] for record in result["records"]}
        wrong = sorted(keys & set(problems))
        not_memo = result.get("not_memo_ops", [])
        result["failed_ops"] = wrong + not_memo
        result["problems"] = ([f"{key}: {problems[key]}" for key in wrong]
                              + [f"{op}: not served from the memo"
                                 for op in not_memo])


# -- metrics -----------------------------------------------------------------

def _scaled(duration, probes, scale=True):
    """*duration* at the reference host speed, from the probes around it."""
    if not scale:
        return duration
    return duration * REFERENCE_PROBE_S / statistics.fmean(probes)


def _segments(result, scale=True):
    """A pass's segment times, probe time removed, scaled if sampled."""
    samples = result.get("samples", [])
    return scaled_segments(result["spans"], samples, SAMPLE_INTERVAL_S,
                           scale=scale and bool(samples))


def _end_to_end(workload, passes, setups, scale=True):
    """The end-to-end metrics over a run's passes.

    The host's speed drifts by a third or more over tens of seconds, so
    each segment is scaled to the reference host speed by the probes
    taken around it.  Passes repeat the same operations on the same
    inputs, so each operation counts with its fastest scaled time
    across the passes: the pass time is the sum of those, and the
    latency percentiles are taken over them.  ``serve-memo`` is not
    scaled (see ``serve_load.memo_pass``): it reports the median over
    its rounds of each round's time and percentiles.
    """
    if workload == "serve-memo":
        rounds = [(end - start, latencies) for result in passes
                  for (start, end), latencies in zip(
                      result["spans"], result["round_latencies"])]
        wall = statistics.median(seconds for seconds, _ in rounds)
        p50 = statistics.median(quantile(latencies, 0.5)
                                for _, latencies in rounds)
        p_tail = statistics.median(quantile(latencies, TAIL_Q)
                                   for _, latencies in rounds)
    else:
        segments = [_segments(result, scale) for result in passes]
        fastest = list(map(min, zip(*segments)))
        latencies = [fastest[index] for index in passes[0]["op_segments"]]
        wall = sum(fastest)
        p50 = quantile(latencies, 0.5)
        p_tail = quantile(latencies, TAIL_Q)
    return {
        "wall_s": wall,
        "ops_per_s": passes[0]["ops"] / wall,
        "p50_ms": 1e3 * p50,
        "tail_ms": 1e3 * p_tail,
        "setup_s": statistics.median(
            _scaled(setup["setup_s"], setup["setup_probes_s"], scale)
            for setup in setups),
        "peak_rss_mb": statistics.median(r["rss_mb"] for r in passes),
    }


def _ratio(hits, misses):
    return hits / (hits + misses) if hits + misses else 0.0


def _bracketed(run_pass, seed, index, traced):
    """A pass with :data:`BRACKET_PROBES` host-speed probes before and
    after it, outside its timed segments."""
    before = [probe() for _ in range(BRACKET_PROBES)]
    result = run_pass(seed, index, traced)
    result["pass_probes_s"] = before + [probe()
                                        for _ in range(BRACKET_PROBES)]
    return result


def _bracketed_wall(result):
    """A bracketed pass's time at the reference host speed."""
    wall = sum(_segments(result, scale=False))
    return wall * REFERENCE_PROBE_S / statistics.median(
        result["pass_probes_s"])


def _per_layer(traced, untraced):
    """Per-layer metrics of the traced pass; 0 where a layer is unused.

    Layer times are raw host seconds: they are shares of one pass, not
    comparisons across runs.  ``unattributed_s`` is the pass time the
    wrapped program layers do not explain: the benchmark's root spans'
    own time (glue in the experiments or ``Workflow``) plus the gaps
    between them.  ``trace_overhead_ratio`` compares the two passes,
    each scaled by the probes around it.
    """
    values = dict.fromkeys((name for name, _ in PER_LAYER), 0)
    layers = traced.get("layers", {})
    for layer in TIMED_LAYERS:
        entry = layers.get(layer)
        if entry:
            values[f"{layer}_s"] = entry["self_s"]
            values[f"{layer}_calls"] = entry["calls"]
            if layer in POINT_LAYERS:
                values[f"{layer}_points"] = entry["work"]
    execute = layers.get("sim.execute")
    if execute and execute["self_s"]:
        values["sim.execute_minstr_per_s"] = \
            execute["work"] / execute["self_s"] / 1e6
    counters = traced.get("counters", {})
    for ratio, (hits, misses) in HIT_RATIOS.items():
        found, lost = counters.get(hits, 0), counters.get(misses, 0)
        values[f"{ratio}_hit_ratio"] = _ratio(found, lost)
        values[f"{ratio}_lookups"] = found + lost
    for name in EXPERIMENT_NAMES:
        entry = layers.get(f"experiments.{name}")
        if entry:
            values[f"experiments.{name}_s"] = entry["total_s"]
    for prefix in ("experiments", "workflow"):
        values[f"{prefix}.self_s"] = sum(
            entry["self_s"] for layer, entry in layers.items()
            if layer.startswith(prefix + "."))
    wall = sum(_segments(traced, scale=False))
    if "stats" in traced:
        _serve_layers(values, traced)
    else:
        values["unattributed_s"] = wall - program_self_s(layers)
    values["trace_overhead_ratio"] = (_bracketed_wall(traced)
                                      / _bracketed_wall(untraced))
    return values


def _serve_layers(values, traced):
    values["serve.ping_p50_ms"] = traced["ping_p50_ms"]
    latencies = [record[2] for record in traced["records"]]
    values["serve.request_s"] = sum(latencies)
    values["serve.request_calls"] = len(latencies)
    if "not_memo_ops" not in traced:  # the cold phase: per-op medians
        by_op = {}
        for _, op, latency, _ in traced["records"]:
            by_op.setdefault(op, []).append(latency)
        for op, samples in by_op.items():
            values[f"serve.cold_{op}_p50_ms"] = 1e3 * quantile(samples, 0.5)
    counters = traced["stats"]["counters"]
    for name in SERVE_COUNTERS:
        values[f"serve.{name}"] = counters[name]
    values["serve.pool_retries"] = traced["stats"]["supervisor"].get(
        "retries", 0)
    values["store.entries"] = traced["stats"]["store_entries"]
    values["store.bytes"] = traced["stats"]["store_bytes"]
    values["unattributed_s"] = traced["unattributed_s"]


# -- the run -----------------------------------------------------------------

def run(workload, seed, seconds, trace):
    run_pass, setup_probe, minimum = WORKLOADS[workload]
    if trace:
        passes = [_bracketed(run_pass, seed, 0, False),
                  _bracketed(run_pass, seed, 1, True)]
    else:
        passes = repeat_passes(lambda i: run_pass(seed, i, False), seconds,
                               minimum)
    if workload.startswith("serve-"):
        _check_serve(passes)
    setups = list(passes)
    while not trace and len(setups) < 3:
        setups.append(setup_probe(seed))
    attempted = sum(result.get("attempted", result["ops"])
                    for result in passes)
    failed = min(attempted, sum(len(result["failed_ops"])
                                for result in passes))
    if trace:
        metrics = _per_layer(passes[1], passes[0])
        units = dict(PER_LAYER)
    else:
        metrics = _end_to_end(workload, passes, setups)
        units = dict(END_TO_END)
    raw_walls = [sum(_segments(result, scale=False)) for result in passes]
    unscaled = ({} if trace
                else _end_to_end(workload, passes, setups, scale=False))
    info = {
        "unscaled": unscaled,
        "workload": workload,
        "seed": seed,
        "seed_applies": workload != "paper-sweep",
        "passes": len(passes),
        "ops_per_pass": passes[0]["ops"],
        "setup_samples": len(setups),
        "raw_wall_s_per_pass": raw_walls,
        "raw_wall_s_spread": spread(raw_walls),
        "host_speed_per_pass": [
            REFERENCE_PROBE_S / statistics.fmean(d for _, d in r["samples"])
            for r in passes if r.get("samples")],
        "problems": [p for r in passes for p in r["problems"]][:20],
    }
    if "not_memo_ops" in passes[0]:
        info["answers_not_from_memo"] = sum(len(r["not_memo_ops"])
                                            for r in passes)
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }
    return info, result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Run one workload of the reproduction's benchmark.")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not repro_available():
        print("perfbench: src/repro is missing; run from the root of a "
              "checkout of the repository", file=sys.stderr)
        return 2
    os.chdir(ROOT)
    sys.path.insert(0, SRC)
    os.makedirs(WORK, exist_ok=True)
    info, result = run(args.workload, args.seed, args.seconds,
                       bool(args.trace))
    print("# host " + json.dumps(host_fingerprint(), sort_keys=True))
    print("# info " + json.dumps(info, sort_keys=True))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
