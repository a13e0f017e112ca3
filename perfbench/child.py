"""One measured pass in a fresh interpreter: the paper sweep or the DSE.

Run by ``perfbench/run.py`` as ``python3 perfbench/child.py '<spec>'``
with ``src/`` on ``PYTHONPATH``, so compile, trace and analysis caches
start cold as they do for a user.  The child imports the program and
builds its inputs, prints ``READY``, runs the timed pass (traced when
the spec asks for it), checks the outputs outside the timed window and
prints one JSON line with the result.

Spec keys: ``kind`` (``sweep`` or ``dse``), ``trace`` (bool), ``seed``
and, for small self-check runs, ``experiments`` / ``suite`` /
``generated`` to shrink the inputs.
"""

from __future__ import annotations

import hashlib
import json
import os
import resource
import sys
import time
from contextlib import nullcontext

from common import SpeedSampler
from spans import Tracer

DIGESTS = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                       "paper_digests.json")


def _ready(spec):
    """Signal the end of set-up; a set-up probe stops here."""
    print("READY", flush=True)
    if spec.get("probe"):
        sys.exit(0)


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _counters() -> dict:
    from repro.sim.trace import trace_counters
    from repro.wcet.analyzer import analysis_counters
    return {**trace_counters(), **analysis_counters()}


def sweep(spec, tracer) -> dict:
    """Every ``EXPERIMENTS`` entry with ``fast=False``, serially."""
    from repro.experiments.runner import EXPERIMENTS
    names = spec.get("experiments") or list(EXPERIMENTS)
    with open(DIGESTS) as handle:
        digests = json.load(handle)
    _ready(spec)
    if tracer is not None:
        tracer.install()
    texts, spans, problems = {}, [], []
    # No sampler while tracing: its probes would land in the layer spans.
    with SpeedSampler(enabled=tracer is None) as sampler:
        for name in names:
            began = time.perf_counter()
            try:
                with (tracer.span(f"experiments.{name}") if tracer
                      else nullcontext()):
                    texts[name] = EXPERIMENTS[name](fast=False)["text"]
            except Exception as error:  # the op fails, the sweep goes on
                problems.append((name, repr(error)))
            spans.append([began, time.perf_counter()])
    rss = _peak_rss_mb()
    if tracer is not None:
        tracer.uninstall()
    problems += digest_problems(texts, names == list(EXPERIMENTS), digests)
    return {"spans": spans, "op_segments": list(range(len(names))),
            "samples": sampler.samples, "ops": len(names),
            "problems": problems, "rss_mb": rss}


def digest_problems(texts, complete, digests) -> list:
    """The sweep's gate: every text must hash to the recorded digest,
    and so must the concatenation of all 13 when the sweep is complete
    (the first 16 hex digits of that one are ``9a6d5929d397e036``)."""
    problems = [(name, "text differs from the recorded artefact")
                for name, text in texts.items()
                if hashlib.sha256(text.encode()).hexdigest()
                != digests["experiments"][name]]
    if complete:
        joined = "".join(texts.values()).encode()
        if hashlib.sha256(joined).hexdigest() != digests["all"]:
            problems.append(("all", "concatenated texts differ from the "
                                    "recorded digest"))
    return problems


def dse(spec, tracer) -> dict:
    import dse as workload
    suite = spec.get("suite")
    generated = spec.get("generated", workload.GENERATED)
    programs = workload.make_inputs(spec["seed"], suite=suite,
                                    generated=generated)
    _ready(spec)
    if tracer is not None:
        tracer.install()
    # No sampler while tracing: its probes would land in the layer spans.
    with SpeedSampler(enabled=tracer is None) as sampler:
        outcome = workload.run_pass(programs, tracer)
    rss = _peak_rss_mb()
    if tracer is not None:
        tracer.uninstall()
    problems = outcome["problems"] + workload.check(outcome["evaluated"])
    return {"spans": outcome["spans"],
            "op_segments": outcome["op_segments"],
            "samples": sampler.samples, "ops": workload.op_count(programs),
            "problems": problems, "rss_mb": rss}


def main() -> int:
    spec = json.loads(sys.argv[1])
    tracer = Tracer() if spec.get("trace") else None
    result = {"sweep": sweep, "dse": dse}[spec["kind"]](spec, tracer)
    result["failed_ops"] = sorted({op for op, _ in result["problems"]})
    result["problems"] = [f"{op}: {message}"
                          for op, message in result["problems"]]
    if tracer is not None:
        result["layers"] = tracer.layers()
        result["counters"] = _counters()
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
