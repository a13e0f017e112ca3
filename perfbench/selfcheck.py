"""Small-input self-check of the benchmark's own code.

Usage, from the root of a checkout::

    python3 perfbench/selfcheck.py

Runs every correctness gate on tiny inputs (a seeded DSE over two suite
programs and one generated one, three paper experiments, a handful of
served requests), proves each gate rejects a tampered output, and
checks the span arithmetic and that the tracer wraps functions where
their callers look them up.  Exits 0 when every check holds; takes
well under a minute.
"""

from __future__ import annotations

import copy
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from common import ROOT, SRC, WORK, repro_available, run_child  # noqa: E402

FAILURES = []


def expect(condition, message):
    print(("ok    " if condition else "FAIL  ") + message, flush=True)
    if not condition:
        FAILURES.append(message)


def check_span_arithmetic():
    from spans import Tracer
    tracer = Tracer()
    # outer [0, 100] holds inner [10, 40] and [50, 60]; inner [10, 40]
    # holds leaf [20, 25]
    tracer.records = [["outer", 0, 100, -1, 0], ["inner", 10, 40, 0, 3],
                      ["leaf", 20, 25, 1, 0], ["inner", 50, 60, 0, 4]]
    layers = tracer.layers()
    expect(abs(layers["outer"]["self_s"] - 60e-9) < 1e-15,
           "outer self time excludes both children")
    expect(abs(layers["inner"]["self_s"] - 35e-9) < 1e-15
           and layers["inner"]["calls"] == 2
           and layers["inner"]["work"] == 7,
           "a layer sums self time, calls and work over its spans")
    expect(abs(sum(e["self_s"] for e in layers.values()) - 100e-9) < 1e-15,
           "self times add up to the root span")


def check_wrapping():
    import repro.sim.simulator
    import repro.workflow
    from spans import Tracer
    original = repro.workflow.simulate
    tracer = Tracer()
    tracer.install()
    try:
        expect(repro.workflow.simulate is not original
               and repro.workflow.simulate.__wrapped__ is original,
               "simulate is wrapped where Workflow looks it up")
        expect(repro.sim.simulator.simulate is original,
               "the defining module is left alone")
    finally:
        tracer.uninstall()
    expect(repro.workflow.simulate is original, "uninstall restores")


def _unattributed_share(result):
    """Share of a traced pass outside the wrapped program layers."""
    from spans import program_self_s
    wall = sum(end - start for start, end in result["spans"])
    return (wall - program_self_s(result["layers"])) / wall


def check_dse():
    import dse
    spec = {"kind": "dse", "seed": 7, "trace": True,
            "suite": ["crc", "sort_wc"],
            "generated": [["medium", 1, 3_000]]}
    result = run_child(spec)
    expect(not result["problems"], f"tiny DSE passes every gate "
                                   f"{result['problems'][:3]}")
    expect(len(result["op_segments"]) == result["ops"] == 3 * 13,
           "one timed segment per point and grid")
    layers = result["layers"]
    for layer in ("minic.compile", "link.link", "sim.trace_record",
                  "sim.replay", "sim.replay_grid", "wcet.driver",
                  "wcet.frontend", "wcet.cache_fixpoint", "wcet.ipet"):
        expect(layers.get(layer, {}).get("calls", 0) > 0,
               f"traced DSE reaches {layer}")
    expect(_unattributed_share(result) < 0.05,
           "wrapped layers explain over 95% of the DSE pass")

    programs = dse.make_inputs(7, suite=["crc"], generated=())
    outcome = dse.run_pass(programs)
    expect(not outcome["problems"] and not dse.check(outcome["evaluated"]),
           "in-process DSE passes its gates")
    program, workflow, points, grid = outcome["evaluated"][0]
    bad = copy.copy(points[0])
    bad.sim = copy.copy(points[0].sim)
    bad.sim.cycles = points[0].wcet.wcet + 1
    bad.sim.console = ["wrong"]
    problems = dse.check([(program, workflow, [bad] + points[1:], grid)])
    messages = " ".join(message for _, message in problems)
    expect("wcet" in messages and "console" in messages
           and "replay != simulate" in messages,
           "DSE gates catch wcet < sim, a wrong console and a bad replay")
    problems = dse.check([(program, workflow, points, dict(list(
        grid.items())[1:]))])
    expect(bool(problems), "DSE gate catches a grid with a missing cell")


def check_sweep():
    import child
    names = ["table1", "worstcase", "geometry_grid"]
    result = run_child({"kind": "sweep", "trace": True,
                        "experiments": names})
    expect(not result["problems"],
           f"three paper experiments match their digests "
           f"{result['problems'][:3]}")
    layers = result["layers"]
    expect(all(f"experiments.{name}" in layers for name in names),
           "every experiment is a root span")
    expect(layers.get("wcet.driver", {}).get("calls", 0) > 0
           and layers.get("sim.replay_grid", {}).get("calls", 0) > 0,
           "experiment spans nest the pipeline layers")
    expect(_unattributed_share(result) < 0.05,
           "wrapped layers explain over 95% of the experiments")
    with open(child.DIGESTS) as handle:
        digests = json.load(handle)
    problems = child.digest_problems({"table1": "tampered"}, False,
                                     digests)
    expect([op for op, _ in problems] == ["table1"],
           "digest gate catches a changed artefact")


def check_serve():
    import run
    import serve_load
    requests = serve_load.make_requests(3, suite=["crc"],
                                        generated=(("small", 1, 2_000),))
    expect(len(requests) == 18 and len({r["bench"] for _, r in requests})
           == 2, "one request per pool entry and served program")
    cold = serve_load.cold_pass(requests, "selfcheck-cold")
    expect(all(record[3].get("served") == "computed"
               for record in cold["records"]),
           "distinct cold requests are all computed")
    memo_requests = [(key, request) for key, request in requests
                     if serve_load.small_answer(request)]
    memo = serve_load.memo_pass(memo_requests, 3, "selfcheck-memo",
                                rounds=2, per_round=100)
    expect(not memo["not_memo_ops"],
           "repeated keys are all answered from the memo")
    expect(memo["stats"]["counters"]["memo_hits"] >= 200,
           "stats op reports the memo hits")
    records = cold["records"] + memo["records"]
    expect(not serve_load.verify(requests, records),
           "every served answer equals direct evaluation")
    key, op, latency, response = records[0]
    tampered = dict(response, result={"tampered": True})
    problems = serve_load.verify(requests,
                                 [(key, op, latency, tampered)] + records)
    expect(list(problems) == [key], "serve gate catches a wrong answer")
    missed = dict(memo, requests=memo_requests,
                  not_memo_ops=[f"{key}@1.0"])
    run._check_serve([missed])
    expect(missed["failed_ops"] == [f"{key}@1.0"],
           "an answer not from the memo counts as failed")
    expect(not os.path.exists(os.path.join(WORK, f"d{os.getpid()}"
                                                 "-selfcheck-cold")),
           "the daemon's files are gone after its pass")


def main() -> int:
    if not repro_available():
        print("selfcheck: src/repro is missing", file=sys.stderr)
        return 2
    os.chdir(ROOT)
    sys.path.insert(0, SRC)
    os.makedirs(WORK, exist_ok=True)
    for check in (check_span_arithmetic, check_wrapping, check_dse,
                  check_sweep, check_serve):
        check()
    print(f"selfcheck: {len(FAILURES)} failure(s)")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
