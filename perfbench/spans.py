"""Outside-in tracing: spans around the program's public entry points.

The benchmark wraps functions *where their callers look them up*: the
experiments and :class:`repro.workflow.Workflow` resolve ``simulate``,
``link``, ``analyze_wcet`` and friends through their own module
globals, so wrapping ``repro.sim.simulator.simulate`` would miss every
call, while wrapping ``repro.workflow.simulate`` sees them all.

Spans are kept in memory as flat records ``[layer, start_ns, end_ns,
parent, work]`` and summarised once the pass is over.  A layer's self
time is its span's duration minus the durations of its direct child
spans; spans nest strictly because the traced pass is single-threaded.
"""

from __future__ import annotations

import importlib
import time
from contextlib import contextmanager


def _simulate_layer(args, kwargs):
    return "sim.profile" if kwargs.get("profile") else "sim.execute"


def _instructions(args, kwargs, result):
    return result.instructions


def _one_point(args, kwargs, result):
    return 1


def _points(args, kwargs, result):
    return len(result)


#: ``(module, attribute, layer, work)``: *layer* is a name or a function
#: of the call's arguments; *work* optionally counts the work a call did
#: (instructions executed, configurations priced).
TARGETS = (
    ("repro.workflow", "compile_source", "minic.compile", None),
    ("repro.workflow", "link", "link.link", None),
    ("repro.spm.wcet_driven", "link", "link.link", None),
    ("repro.experiments.fig2_annotations", "link", "link.link", None),
    ("repro.workflow", "simulate", _simulate_layer, _instructions),
    ("repro.sim.trace", "record_trace", "sim.trace_record", None),
    ("repro.workflow", "replay", "sim.replay", _one_point),
    ("repro.workflow", "replay_sweep", "sim.replay_sweep", _points),
    ("repro.workflow", "replay_grid", "sim.replay_grid", _points),
    ("repro.workflow", "allocate_energy_optimal", "spm.alloc_energy",
     None),
    ("repro.workflow", "allocate_wcet_driven", "spm.alloc_wcet", None),
    ("repro.workflow", "analyze_wcet", "wcet.driver", None),
    ("repro.spm.wcet_driven", "analyze_wcet", "wcet.driver", None),
    ("repro.wcet.analyzer", "build_all_cfgs", "wcet.frontend", None),
    ("repro.wcet.analyzer", "stack_region", "wcet.frontend", None),
    ("repro.wcet.analyzer", "resolve_all", "wcet.frontend", None),
    ("repro.wcet.annotations", "build_all_cfgs", "wcet.frontend", None),
    ("repro.wcet.cacheanalysis", "resolve_all", "wcet.frontend", None),
    ("repro.wcet.analyzer", "analyze_hierarchy", "wcet.cache_fixpoint",
     None),
    ("repro.wcet.analyzer", "solve_function_ipet", "wcet.ipet", None),
)


#: Prefixes of the spans the benchmark opens around its own operations;
#: every other layer is a wrapped entry point of the program.
ROOT_PREFIXES = ("experiments.", "workflow.")


def program_self_s(layers: dict) -> float:
    """Self time of the wrapped program layers in a :meth:`Tracer.layers`
    summary: the share of a pass the wrapped entry points explain.  Glue
    in the experiments or in ``Workflow`` stays with the root spans."""
    return sum(entry["self_s"] for layer, entry in layers.items()
               if not layer.startswith(ROOT_PREFIXES))


class Tracer:
    """In-memory span recorder with attribute-level wrapping."""

    def __init__(self):
        self.records = []
        self._stack = []
        self._installed = []

    def _open(self, layer):
        parent = self._stack[-1] if self._stack else -1
        record = [layer, 0, 0, parent, 0]
        self._stack.append(len(self.records))
        self.records.append(record)
        record[1] = time.perf_counter_ns()
        return record

    def _close(self, record):
        record[2] = time.perf_counter_ns()
        self._stack.pop()

    @contextmanager
    def span(self, layer: str):
        """A span opened by the benchmark's own code (a root operation)."""
        record = self._open(layer)
        try:
            yield record
        finally:
            self._close(record)

    def wrap(self, layer, function, work=None):
        """*function* with every call recorded as a span of *layer*."""
        def traced(*args, **kwargs):
            name = layer(args, kwargs) if callable(layer) else layer
            record = self._open(name)
            try:
                result = function(*args, **kwargs)
            finally:
                self._close(record)
            if work is not None:
                record[4] = work(args, kwargs, result)
            return result

        traced.__wrapped__ = function
        return traced

    def install(self, targets=TARGETS):
        """Wrap every target in place; :meth:`uninstall` undoes it."""
        for module_name, attribute, layer, work in targets:
            module = importlib.import_module(module_name)
            original = getattr(module, attribute)
            setattr(module, attribute, self.wrap(layer, original, work))
            self._installed.append((module, attribute, original))

    def uninstall(self):
        while self._installed:
            module, attribute, original = self._installed.pop()
            setattr(module, attribute, original)

    def layers(self) -> dict:
        """``layer -> {calls, self_s, total_s, work}`` over all spans."""
        child_ns = [0] * len(self.records)
        for _, start, end, parent, _ in self.records:
            if parent >= 0:
                child_ns[parent] += end - start
        summary = {}
        for index, (layer, start, end, _, work) in enumerate(self.records):
            entry = summary.setdefault(
                layer, {"calls": 0, "self_s": 0.0, "total_s": 0.0,
                        "work": 0})
            entry["calls"] += 1
            entry["self_s"] += (end - start - child_ns[index]) / 1e9
            entry["total_s"] += (end - start) / 1e9
            entry["work"] += work
        return summary
