"""Shared helpers: checkout paths, child processes, statistics, host facts."""

from __future__ import annotations

import bisect
import importlib.metadata
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time

#: Root of the checkout (the directory above ``perfbench/``).
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
HERE = os.path.join(ROOT, "perfbench")
#: Scratch space for sockets and daemon caches (ignored by git).
WORK = os.path.join(HERE, ".work")


#: :func:`probe`'s duration on the reference host (a quiet 2-vCPU
#: Intel Xeon VM, CPython 3.11).  Timings are scaled by this over the
#: probes taken around them; see ``README.md``, "Host noise".
REFERENCE_PROBE_S = 1.6e-3

#: How often :class:`SpeedSampler` probes the host.
SAMPLE_INTERVAL_S = 0.1


def probe() -> float:
    """Time a fixed pure-Python loop: the host's speed right now."""
    start = time.perf_counter()
    acc, table = 0, {}
    for i in range(15_000):
        table[i & 255] = acc
        acc = (acc * 31 + i) & 0xFFFF
    return time.perf_counter() - start


class SpeedSampler:
    """Probe the host every :data:`SAMPLE_INTERVAL_S` from a timer signal.

    ``samples`` collects ``[start, duration]`` pairs.  The probes run
    inside whatever the process is timing; :func:`scaled_segments`
    subtracts them again.
    """

    def __init__(self, enabled: bool = True):
        self.enabled = enabled
        self.samples = []
        self._previous = None

    def _sample(self, signum, frame):
        start = time.perf_counter()
        self.samples.append([start, probe()])

    def __enter__(self):
        if self.enabled:
            self._previous = signal.signal(signal.SIGALRM, self._sample)
            signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S,
                             SAMPLE_INTERVAL_S)
        return self

    def __exit__(self, *exc):
        if self.enabled:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, self._previous)


def scaled_segments(spans, samples, window, scale=True) -> list:
    """Durations of ``[start, end]`` *spans* at the reference host speed.

    Probe time inside a span is subtracted; the span is then scaled by
    :data:`REFERENCE_PROBE_S` over the mean of the probes taken within
    *window* seconds of it and the nearest probe beyond each end.  With
    ``scale=False`` only the subtraction happens.
    """
    starts = [sample[0] for sample in samples]
    durations = []
    for start, end in spans:
        inside = samples[bisect.bisect_left(starts, start):
                         bisect.bisect_right(starts, end)]
        duration = end - start - sum(d for _, d in inside)
        if scale:
            # A long native call delays the timer signal, so the window
            # may hold no probe: the nearest one on each side then counts.
            first = max(0, bisect.bisect_left(starts, start - window) - 1)
            last = bisect.bisect_right(starts, end + window) + 1
            speed = statistics.fmean(d for _, d in samples[first:last])
            duration *= REFERENCE_PROBE_S / speed
        durations.append(duration)
    return durations


def repro_available() -> bool:
    """Whether the program under test is present in this checkout."""
    return os.path.isfile(os.path.join(SRC, "repro", "__init__.py"))


def child_env() -> dict:
    """Environment for processes that import ``repro`` from ``src/``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [SRC] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def quantile(values, q: float) -> float:
    """Linear-interpolated quantile of *values* (``0 <= q <= 1``)."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("quantile of no samples")
    position = q * (len(ordered) - 1)
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def spread(values) -> float:
    """Interquartile range over median (0 for fewer than two values)."""
    if len(values) < 2:
        return 0.0
    q1, median, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / median if median else 0.0


def run_child(spec: dict, timeout: float = 170.0) -> dict:
    """Run one ``child.py`` pass in a fresh interpreter.

    The child prints ``READY`` once its imports and inputs are done and
    then one JSON line with the pass result.  The set-up time is taken
    here, from spawn to ``READY``, so it includes interpreter start-up
    as a user would see it; host-speed probes bracket it.  A spec with
    ``probe`` set stops at ``READY``: a set-up time only.
    """
    command = [sys.executable, os.path.join(HERE, "child.py"),
               json.dumps(spec)]
    probes = [probe()]
    start = time.perf_counter()
    process = subprocess.Popen(command, stdout=subprocess.PIPE,
                               env=child_env(), cwd=ROOT, text=True)
    try:
        ready = process.stdout.readline()
        setup_s = time.perf_counter() - start
        probes.append(probe())
        if ready.strip() != "READY":
            raise RuntimeError(f"child failed before READY: {ready!r}")
        out, _ = process.communicate(timeout=timeout)
    finally:
        if process.poll() is None:
            process.kill()
        process.wait()
    if process.returncode != 0:
        raise RuntimeError(f"child exited {process.returncode}")
    result = ({} if spec.get("probe")
              else json.loads(out.strip().splitlines()[-1]))
    result.update(setup_s=setup_s, setup_probes_s=probes)
    return result


def repeat_passes(run_pass, seconds: float, minimum: int) -> list:
    """Run passes until the next one would overrun *seconds*, and at
    least *minimum* of them."""
    results = []
    start = time.perf_counter()
    while True:
        results.append(run_pass(len(results)))
        elapsed = time.perf_counter() - start
        if (len(results) >= minimum
                and elapsed + elapsed / len(results) > seconds):
            return results


def tree_peak_rss_mb(pid: int) -> float:
    """Sum of peak resident set sizes over *pid* and its descendants."""
    total_kb = 0
    pending = [pid]
    while pending:
        current = pending.pop()
        try:
            with open(f"/proc/{current}/status") as handle:
                for line in handle:
                    if line.startswith("VmHWM:"):
                        total_kb += int(line.split()[1])
            task_dir = f"/proc/{current}/task"
            for task in os.listdir(task_dir):
                with open(f"{task_dir}/{task}/children") as handle:
                    pending.extend(int(child) for child in
                                   handle.read().split())
        except OSError:
            continue  # the process exited while we looked
    return total_kb / 1024.0


def host_fingerprint() -> dict:
    """The facts a timing depends on, recorded with every result."""
    model = "unknown"
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        numpy_version = importlib.metadata.version("numpy")
    except importlib.metadata.PackageNotFoundError:
        numpy_version = "missing"
    return {
        "nproc": os.cpu_count(),
        "cpu_model": model,
        "python": platform.python_version(),
        "numpy": numpy_version,
        "platform": platform.platform(),
    }
