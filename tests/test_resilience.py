"""Resilience under injected faults (PR 8).

The invariant every test here circles: **under every injected fault,
the produced artefacts are byte-identical to a fault-free cold run** —
the system degrades (retries, quarantines, recomputes, warns) but is
never *wrong*.  Three layers are exercised:

* :mod:`repro.store` — the checksummed, corruption-quarantining
  artifact store behind both disk cache layers, plus the bounded
  :class:`~repro.store.LRUCache` fronting the in-process layers;
* the fault hooks of :mod:`repro.testing.faults` (env-driven so they
  survive into ``evaluate_points`` worker processes);
* the hardened parallel scheduler in
  :mod:`repro.experiments.common` — per-unit timeout, retry with
  backoff, pool-rebuild recovery, deterministic merge, structured
  :class:`~repro.experiments.common.SweepFailure` reports.
"""

import os
import pickle
import shlex
import subprocess
import sys
import time
import zlib

import pytest

from repro.store import (
    STORE_COUNTER_KEYS,
    ArtifactStore,
    LRUCache,
    env_capacity,
    envelope,
    open_envelope,
)
from repro.testing.faults import (
    FaultInjected,
    corrupt_file,
    reset_fault_counters,
    truncate_file,
)

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@pytest.fixture(autouse=True)
def _no_leftover_faults(monkeypatch):
    """Every test starts (and leaves) with fault injection disarmed."""
    monkeypatch.delenv("REPRO_FAULT_STORE_WRITE", raising=False)
    monkeypatch.delenv("REPRO_FAULT_UNIT", raising=False)
    monkeypatch.delenv("REPRO_FAULT_SERVE", raising=False)
    reset_fault_counters()
    yield
    reset_fault_counters()


# --------------------------------------------------------------------------
# The envelope
# --------------------------------------------------------------------------

class TestEnvelope:
    def test_round_trip(self):
        for payload in (b"", b"x", b"payload " * 1000):
            assert open_envelope(envelope(payload)) == payload

    def test_rejects_foreign_and_short_blobs(self):
        assert open_envelope(b"") is None
        assert open_envelope(b"not a pickle") is None
        assert open_envelope(b"repro-store 9 " + b"0" * 40) is None

    def test_rejects_bit_flip(self):
        blob = bytearray(envelope(b"the payload bytes"))
        blob[-3] ^= 0x01
        assert open_envelope(bytes(blob)) is None

    def test_rejects_truncation(self):
        blob = envelope(b"the payload bytes")
        for cut in (1, len(blob) // 2, len(blob) - 1):
            assert open_envelope(blob[:cut]) is None

    def test_rejects_trailing_garbage(self):
        assert open_envelope(envelope(b"payload") + b"x") is None

    def test_reads_crc32_envelopes_of_older_installs(self):
        # Writers emit word-sum ("s") envelopes only; a crc32 ("c")
        # envelope is an older install's entry and must still verify.
        payload = b"an older entry"
        header = envelope(payload)[:-len(payload)]
        blob = (header[:14] + b"c%016x" % zlib.crc32(payload)
                + header[31:] + payload)
        assert open_envelope(blob) == payload
        flipped = bytearray(blob)
        flipped[-1] ^= 0x01
        assert open_envelope(bytes(flipped)) is None


# --------------------------------------------------------------------------
# The artifact store
# --------------------------------------------------------------------------

class TestArtifactStore:
    def test_round_trip_and_sharded_layout(self, tmp_path):
        store = ArtifactStore(tmp_path, suffix=".trace.pkl")
        value = {"rows": list(range(100)), "name": "adpcm"}
        assert store.store(("k", 1), value)
        path = store.path_for(("k", 1))
        shard = os.path.basename(os.path.dirname(path))
        assert len(shard) == 2 and set(shard) <= set("0123456789abcdef")
        assert path.endswith(".trace.pkl")
        assert store.load(("k", 1)) == value
        assert store.counters["writes"] == 1
        assert store.counters["hits"] == 1
        assert store.load(("k", 2)) is None
        assert store.counters["misses"] == 1

    def test_bit_flip_quarantined_not_served(self, tmp_path):
        store = ArtifactStore(tmp_path)
        store.store("key", [1, 2, 3])
        path = store.path_for("key")
        corrupt_file(path)
        assert store.load("key") is None
        assert store.counters["corrupt"] == 1
        assert not os.path.exists(path)
        assert os.listdir(store.corrupt_dir())  # moved aside, not lost

    def test_truncation_quarantined(self, tmp_path):
        store = ArtifactStore(tmp_path)
        store.store("key", list(range(1000)))
        truncate_file(store.path_for("key"))
        assert store.load("key") is None
        assert store.counters["corrupt"] == 1

    def test_valid_envelope_bad_pickle_quarantined(self, tmp_path):
        # Checksum fine, content unusable: corrupt-for-our-purposes.
        store = ArtifactStore(tmp_path)
        path = store.path_for("key")
        assert store.write(path, b"this is not a pickle")
        assert store.load("key") is None
        assert store.counters["corrupt"] == 1
        assert store.counters["hits"] == 0

    def test_stale_tmp_files_reaped(self, tmp_path):
        store = ArtifactStore(tmp_path)
        store.store("key", 1)
        shard = os.path.dirname(store.path_for("key"))
        stale = os.path.join(shard, "dead.pkl.tmp999")
        fresh = os.path.join(shard, "live.pkl.tmp888")
        for orphan in (stale, fresh):
            with open(orphan, "wb") as handle:
                handle.write(b"partial")
        old = time.time() - 3600
        os.utime(stale, (old, old))
        assert store.reap_tmp() == 1  # grace period spares the fresh one
        assert not os.path.exists(stale)
        assert os.path.exists(fresh)
        assert store.reap_tmp(max_age=0.0) == 1
        assert store.counters["reaped"] == 2
        # Tmp orphans are never visible as entries.
        assert store.stats()["entries"] == 1

    def test_first_write_reaps_crash_orphans(self, tmp_path):
        orphan = tmp_path / "crashed.pkl.tmp123"
        orphan.write_bytes(b"partial")
        old = time.time() - 3600
        os.utime(orphan, (old, old))
        store = ArtifactStore(tmp_path)
        store.store("key", 1)
        assert not orphan.exists()
        assert store.counters["reaped"] == 1

    def test_gc_evicts_oldest_mtime_first(self, tmp_path):
        store = ArtifactStore(tmp_path)
        blob = b"x" * 100
        for index in range(4):
            store.store(index, blob)
            when = time.time() - (100 - index)  # 0 is oldest
            path = store.path_for(index)
            os.utime(path, (when, when))
        size = os.path.getsize(store.path_for(0))
        evicted = store.gc(max_bytes=2 * size)
        assert evicted == 2
        assert store.load(0) is None and store.load(1) is None
        assert store.load(2) is not None and store.load(3) is not None
        assert store.counters["evictions"] == 2

    def test_write_cap_triggers_gc(self, tmp_path):
        blob = b"x" * 100
        probe = ArtifactStore(tmp_path / "probe")
        probe.store(0, blob)
        size = os.path.getsize(probe.path_for(0))
        store = ArtifactStore(tmp_path / "capped", max_bytes=4 * size)
        for index in range(64):  # auto-gc runs every 64 writes
            store.store(index, blob)
        assert store.stats()["bytes"] <= 4 * size
        assert store.counters["evictions"] >= 60

    def test_verify_quarantines_and_counts(self, tmp_path):
        store = ArtifactStore(tmp_path)
        for index in range(3):
            store.store(index, index)
        corrupt_file(store.path_for(1))
        outcome = store.verify()
        assert outcome == {"checked": 3, "quarantined": 1}
        assert store.verify() == {"checked": 2, "quarantined": 0}
        assert store.stats()["quarantined_files"] == 1

    def test_clear_removes_entries_keeps_quarantine(self, tmp_path):
        store = ArtifactStore(tmp_path)
        for index in range(3):
            store.store(index, index)
        corrupt_file(store.path_for(0))
        assert store.load(0) is None  # quarantined
        assert store.clear() == 2
        assert store.stats()["entries"] == 0
        assert store.stats()["quarantined_files"] == 1

    def test_stats_shape(self, tmp_path):
        store = ArtifactStore(tmp_path)
        stats = store.stats()
        assert stats["entries"] == 0 and stats["bytes"] == 0
        assert stats["degraded"] is False
        assert set(stats["counters"]) == set(STORE_COUNTER_KEYS)


class TestWriteFaults:
    """Injected disk failures: degraded, never wrong."""

    def test_torn_write_detected_and_recomputed(self, tmp_path,
                                                monkeypatch):
        value = list(range(500))
        store = ArtifactStore(tmp_path)
        monkeypatch.setenv("REPRO_FAULT_STORE_WRITE", "torn@1")
        assert store.store("key", value)  # committed... torn
        assert store.load("key") is None  # detected, quarantined
        assert store.counters["corrupt"] == 1
        assert store.store("key", value)  # fault spent: clean rewrite
        assert store.load("key") == value

    @pytest.mark.parametrize("kind", ["enospc", "erofs"])
    def test_disk_failure_degrades_to_memory_only(self, tmp_path,
                                                  monkeypatch, kind):
        store = ArtifactStore(tmp_path)
        monkeypatch.setenv("REPRO_FAULT_STORE_WRITE", f"{kind}@1+")
        with pytest.warns(RuntimeWarning, match="memory-only"):
            for index in range(5):  # store() never raises
                assert store.store(index, index) is False
        # Three consecutive failures degrade; later writes are skipped.
        assert store.degraded
        assert store.counters["write_errors"] == 3
        assert store.counters["write_skips"] == 2
        assert store.stats()["entries"] == 0  # no torn junk left behind

    def test_degraded_store_still_reads(self, tmp_path, monkeypatch):
        store = ArtifactStore(tmp_path)
        store.store("early", "value")
        monkeypatch.setenv("REPRO_FAULT_STORE_WRITE", "enospc@1+")
        with pytest.warns(RuntimeWarning):
            for index in range(3):
                store.store(index, index)
        assert store.degraded
        assert store.load("early") == "value"  # a full disk still serves


# --------------------------------------------------------------------------
# Bounded in-process caches
# --------------------------------------------------------------------------

class TestLRUCache:
    def test_capacity_bound_and_eviction_order(self):
        evicted = []
        cache = LRUCache(capacity=2,
                         on_evict=lambda: evicted.append(1))
        cache["a"] = 1
        cache["b"] = 2
        assert cache.get("a") == 1  # refresh: "b" is now LRU
        cache["c"] = 3
        assert len(cache) == 2
        assert "b" not in cache and "a" in cache and "c" in cache
        assert cache.evictions == 1 and evicted == [1]

    def test_unbounded_by_default(self):
        cache = LRUCache()
        for index in range(1000):
            cache[index] = index
        assert len(cache) == 1000 and cache.evictions == 0

    def test_set_capacity_evicts_immediately(self):
        cache = LRUCache()
        for index in range(10):
            cache[index] = index
        cache.set_capacity(3)
        assert len(cache) == 3 and cache.evictions == 7
        assert 9 in cache and 0 not in cache

    def test_env_capacity_knob(self, monkeypatch):
        assert env_capacity("REPRO_TEST_CAP", 64) == 64
        monkeypatch.setenv("REPRO_TEST_CAP", "8")
        assert env_capacity("REPRO_TEST_CAP", 64) == 8
        monkeypatch.setenv("REPRO_TEST_CAP", "0")
        assert env_capacity("REPRO_TEST_CAP", 64) is None  # unbounded
        monkeypatch.setenv("REPRO_TEST_CAP", "junk")
        assert env_capacity("REPRO_TEST_CAP", 64) == 64


class TestBoundedCacheLayers:
    """The process-wide cache layers respect their capacity knobs."""

    @pytest.fixture
    def trace_mod(self):
        from repro.sim import trace as trace_mod
        saved_counters = dict(trace_mod.COUNTERS)
        saved_cap = trace_mod._TRACE_CACHE.capacity
        saved_memo_cap = trace_mod._MEMO_CAP
        saved_store = trace_mod._TRACE_STORE
        trace_mod.clear_trace_caches()
        yield trace_mod
        trace_mod._TRACE_STORE = saved_store
        trace_mod.set_trace_cache_capacity(saved_cap)
        trace_mod.set_stream_memo_capacity(saved_memo_cap)
        trace_mod.clear_trace_caches()
        trace_mod.COUNTERS.clear()
        trace_mod.COUNTERS.update(saved_counters)

    def _image(self, filler: int):
        from repro.link import link
        from repro.minic import compile_source
        source = f"""
        int main(void) {{
            int acc = {filler};
            int i;
            for (i = 0; i < 4; i = i + 1) acc = acc + i;
            return acc & 255;
        }}
        """
        return link(compile_source(source).program)

    def test_trace_table_bounded_with_observable_evictions(
            self, trace_mod):
        trace_mod.set_trace_cache_capacity(1)
        trace_mod.COUNTERS["trace_evictions"] = 0
        trace_mod.trace_for(self._image(1), 0)
        trace_mod.trace_for(self._image(2), 0)
        assert len(trace_mod._TRACE_CACHE) == 1
        assert trace_mod.COUNTERS["trace_evictions"] == 1
        assert trace_mod.trace_counters()["trace_evictions"] == 1

    def test_stream_memo_bounded(self, trace_mod):
        trace_mod.set_stream_memo_capacity(2)
        trace = trace_mod.trace_for(self._image(3), 0)
        for key in range(10):
            trace._memo[("probe", key)] = key
        assert len(trace._memo) == 2
        assert trace._memo.evictions == 8

    def test_reuse_table_bounded(self):
        from repro.wcet import cacheanalysis
        saved_cap = cacheanalysis._REUSE_CACHE.capacity
        saved_counters = dict(cacheanalysis.COUNTERS)
        try:
            cacheanalysis.clear_analysis_caches()
            cacheanalysis.set_analysis_cache_capacity(2)
            cacheanalysis.COUNTERS["reuse_evictions"] = 0
            for key in range(5):
                cacheanalysis._reuse_put(("bound-probe", key), key)
            assert len(cacheanalysis._REUSE_CACHE) == 2
            assert cacheanalysis.COUNTERS["reuse_evictions"] == 3
            assert cacheanalysis.reuse_counters()["reuse_evictions"] == 3
        finally:
            cacheanalysis.set_analysis_cache_capacity(saved_cap)
            cacheanalysis.clear_analysis_caches()
            cacheanalysis.COUNTERS.clear()
            cacheanalysis.COUNTERS.update(saved_counters)


# --------------------------------------------------------------------------
# The hardened parallel scheduler
# --------------------------------------------------------------------------

def _crc_tasks():
    from repro.experiments.common import task
    from repro.memory import CacheConfig, SystemConfig
    return [
        task("crc", SystemConfig.uncached()),
        task("crc", SystemConfig.cached(CacheConfig(size=256))),
        task("crc", SystemConfig.cached(CacheConfig(size=512))),
        task("crc", SystemConfig.scratchpad(128)),
    ]


@pytest.fixture
def scheduler():
    from repro.experiments import common
    saved = (common._TIMEOUT, common._RETRIES, common._BACKOFF)
    yield common
    common._TIMEOUT, common._RETRIES, common._BACKOFF = saved
    common.set_jobs(1)


def _rows(points):
    return [point.row() for point in points]


class TestSchedulerFaults:
    """Crash / hang / flaky units through ``evaluate_points --jobs``."""

    def test_worker_crash_recovers_pool_and_matches_serial(
            self, scheduler, monkeypatch, tmp_path):
        baseline = _rows(scheduler.evaluate_points(_crc_tasks()))
        monkeypatch.setenv("REPRO_FAULT_UNIT",
                           f"crash@1@{tmp_path / 'once'}")
        scheduler.set_jobs(2)
        scheduler.set_resilience(backoff=0.01)
        rows = _rows(scheduler.evaluate_points(_crc_tasks()))
        assert rows == baseline  # pool rebuilt, unit re-run, merge intact
        assert (tmp_path / "once").exists()  # the crash really fired

    def test_hung_worker_killed_by_unit_timeout(
            self, scheduler, monkeypatch, tmp_path):
        baseline = _rows(scheduler.evaluate_points(_crc_tasks()))
        monkeypatch.setenv("REPRO_FAULT_UNIT",
                           f"hang@1@{tmp_path / 'once'}")
        scheduler.set_jobs(2)
        scheduler.set_resilience(timeout=3.0, backoff=0.01)
        start = time.monotonic()
        rows = _rows(scheduler.evaluate_points(_crc_tasks()))
        assert rows == baseline
        assert time.monotonic() - start < 120  # killed, not slept out
        assert (tmp_path / "once").exists()

    def test_flaky_unit_retried_then_succeeds(
            self, scheduler, monkeypatch, tmp_path):
        baseline = _rows(scheduler.evaluate_points(_crc_tasks()))
        monkeypatch.setenv("REPRO_FAULT_UNIT",
                           f"raise@1@{tmp_path / 'once'}")
        scheduler.set_jobs(2)
        scheduler.set_resilience(backoff=0.01)
        rows = _rows(scheduler.evaluate_points(_crc_tasks()))
        assert rows == baseline
        assert (tmp_path / "once").exists()

    def test_exhausted_retries_raise_structured_failure(
            self, scheduler, monkeypatch):
        monkeypatch.setenv("REPRO_FAULT_UNIT", "raise@1+")
        scheduler.set_jobs(2)
        scheduler.set_resilience(retries=1, backoff=0.01)
        with pytest.raises(scheduler.SweepFailure) as exc:
            scheduler.evaluate_points(_crc_tasks())
        failure = exc.value
        assert failure.failures  # every unit exhausted
        record = failure.failures[0]
        assert record["bench"] == "crc"
        assert record["attempts"] == 2  # 1 try + 1 retry
        assert "rerun_unit" in record["repro"]
        assert "PYTHONPATH=src" in record["repro"]
        report = failure.report()
        assert "exhausted" in report and "repro:" in report
        assert f"0/{len(_crc_tasks())} points completed" in report
        assert failure.results == [None] * len(_crc_tasks())

    def test_partial_results_merged_on_failure(
            self, scheduler, monkeypatch, tmp_path):
        # Poison only the second unit each process runs: the others
        # must still complete and land at their task indices.
        baseline = _rows(scheduler.evaluate_points(_crc_tasks()))
        monkeypatch.setenv("REPRO_FAULT_UNIT", "raise@2+")
        scheduler.set_resilience(retries=0, backoff=0.0)
        scheduler.set_jobs(2)
        with pytest.raises(scheduler.SweepFailure) as exc:
            scheduler.evaluate_points(_crc_tasks())
        results = exc.value.results
        assert any(point is not None for point in results)
        assert any(point is None for point in results)
        done = [point.row() for point in results if point is not None]
        assert all(row in baseline for row in done)

    def test_rerun_unit_accepts_report_repr(self, scheduler, capsys):
        from repro.experiments.common import plan_units, rerun_unit, task
        from repro.memory import CacheConfig, SystemConfig
        tasks = _crc_tasks() + [task("crc", SystemConfig.two_level(
            CacheConfig(size=256), CacheConfig(size=1024)))]
        direct = _rows(scheduler.evaluate_points(tasks))
        units = plan_units(tasks)
        # The uncached unit, the 256/512 cache batch, the scratchpad
        # unit and the L1+L2 unit.
        assert [unit[0] for unit in units] == [(0,), (1, 2), (3,), (4,)]
        capsys.readouterr()
        for unit in units:
            points = rerun_unit(str(unit))
            want = [direct[index] for index in unit[0]]
            assert _rows(points) == want
            # The report's repro line is one shell command that runs
            # the same rerun.
            record = scheduler._unit_failure(unit, 1, "injected")
            env, python, flag, code = shlex.split(record["repro"])
            assert (env, python, flag) == ("PYTHONPATH=src", "python", "-c")
            exec(code, {})
            out = capsys.readouterr().out.splitlines()
            assert out == [str(row) for row in want] * 2

    def test_serial_fault_free_unaffected(self, scheduler):
        # The serial path must not grow scheduling overhead: no pool,
        # no retries, plain plan-order execution.
        rows = _rows(scheduler.evaluate_points(_crc_tasks()))
        assert len(rows) == len(_crc_tasks())


class TestRunnerFailureReporting:
    def test_runner_reports_and_continues(self, monkeypatch, capsys):
        from repro.experiments import common, runner
        from repro.memory import SystemConfig

        def boom(fast=False):
            spm = common.task("crc", SystemConfig.scratchpad(128))
            unit = ((0,), (spm,))
            raise common.SweepFailure(
                [common._unit_failure(unit, 3, "injected")], [None])

        monkeypatch.setitem(runner.EXPERIMENTS, "table1", boom)
        assert runner.main(["table1", "table2", "--fast"]) == 1
        captured = capsys.readouterr()
        assert "===== table1" in captured.err and "FAILED" in captured.err
        assert "unit bench=crc configs=spm128 " in captured.err
        assert "repro:" in captured.err
        assert "FAILED experiments: table1" in captured.err
        assert "===== table2" in captured.out  # later experiments ran

    def test_timeout_and_retries_flags(self, scheduler, monkeypatch):
        from repro.experiments import runner
        calls = []
        monkeypatch.setitem(runner.EXPERIMENTS, "table1",
                            lambda fast: (calls.append(1) or
                                          {"text": "ok"}))
        assert runner.main(["table1", "--timeout", "0",
                            "--retries", "5"]) == 0
        assert scheduler._TIMEOUT is None
        assert scheduler._RETRIES == 5


# --------------------------------------------------------------------------
# The headline differential: faults never change the artefacts
# --------------------------------------------------------------------------

class TestFaultDifferential:
    def test_serial_torn_store_writes_do_not_change_results(
            self, scheduler, monkeypatch, tmp_path):
        """Serial sweep with every disk-cache write torn: the store
        quarantines on read-back and the sweep recomputes — same rows."""
        from repro.sim import trace as trace_mod
        from repro.wcet import cacheanalysis
        baseline = _rows(scheduler.evaluate_points(_crc_tasks()))
        saved_trace = trace_mod._TRACE_STORE
        saved_reuse = cacheanalysis._REUSE_STORE
        try:
            trace_mod.set_trace_cache_dir(tmp_path / "traces")
            cacheanalysis.set_analysis_cache_dir(tmp_path / "analysis")
            trace_mod.clear_trace_caches()
            cacheanalysis.clear_analysis_caches()
            monkeypatch.setenv("REPRO_FAULT_STORE_WRITE", "torn@1+")
            rows = _rows(scheduler.evaluate_points(_crc_tasks()))
        finally:
            trace_mod._TRACE_STORE = saved_trace
            cacheanalysis._REUSE_STORE = saved_reuse
            trace_mod.clear_trace_caches()
            cacheanalysis.clear_analysis_caches()
        assert rows == baseline

    def test_runner_artefacts_identical_after_worker_crash(
            self, tmp_path):
        """Cold ``repro-experiments fig4 --fast``: fault-free versus a
        worker crash mid-sweep with ``--jobs 2`` — stdout must be
        byte-identical once elapsed-seconds stamps are normalised."""
        def run(extra_args, extra_env):
            env = dict(os.environ)
            env.pop("REPRO_FAULT_UNIT", None)
            env.pop("REPRO_FAULT_STORE_WRITE", None)
            env["PYTHONPATH"] = os.path.join(REPO, "src")
            env.update(extra_env)
            proc = subprocess.run(
                [sys.executable, "-m", "repro.experiments.runner",
                 "fig4", "--fast"] + extra_args,
                capture_output=True, text=True, env=env, cwd=REPO,
                timeout=600)
            assert proc.returncode == 0, proc.stderr
            import re
            return re.sub(r"\(\d+(\.\d+)?s\)", "(Xs)", proc.stdout)

        baseline = run([], {})
        crashed = run(
            ["--jobs", "2"],
            {"REPRO_FAULT_UNIT": f"crash@1@{tmp_path / 'once'}"})
        assert (tmp_path / "once").exists()  # the fault really fired
        assert crashed == baseline


# --------------------------------------------------------------------------
# The repro-cc cache subcommand
# --------------------------------------------------------------------------

class TestCacheCli:
    def _store(self, tmp_path):
        store = ArtifactStore(tmp_path)
        for index in range(4):
            store.store(index, {"payload": index})
        return store

    def test_stats(self, tmp_path, capsys):
        from repro.cli import main
        self._store(tmp_path)
        assert main(["cache", "stats", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "# entries:     4" in out
        assert "# quarantined: 0" in out

    def test_verify_flags_corruption(self, tmp_path, capsys):
        from repro.cli import main
        store = self._store(tmp_path)
        assert main(["cache", "verify", str(tmp_path)]) == 0
        corrupt_file(store.path_for(2))
        assert main(["cache", "verify", str(tmp_path)]) == 1
        assert "quarantined 1" in capsys.readouterr().out

    def test_gc_requires_cap_and_enforces_it(self, tmp_path, capsys):
        from repro.cli import main
        with pytest.raises(SystemExit):
            main(["cache", "gc", str(tmp_path)])
        self._store(tmp_path)
        assert main(["cache", "gc", str(tmp_path),
                     "--max-bytes", "1"]) == 0
        assert "# evicted 4" in capsys.readouterr().out

    def test_clear(self, tmp_path, capsys):
        from repro.cli import main
        self._store(tmp_path)
        assert main(["cache", "clear", str(tmp_path)]) == 0
        assert "# removed 4" in capsys.readouterr().out
        assert ArtifactStore(tmp_path).stats()["entries"] == 0

    def test_missing_directory_rejected(self, tmp_path):
        from repro.cli import main
        with pytest.raises(SystemExit):
            main(["cache", "stats", str(tmp_path / "nope")])


# --------------------------------------------------------------------------
# End-to-end: the disk caches survive fault + reuse cycles intact
# --------------------------------------------------------------------------

class TestStoreTraceIntegration:
    def test_trace_layer_survives_corruption_cycle(self, tmp_path):
        from repro.link import link
        from repro.minic import compile_source
        from repro.sim import trace as trace_mod
        source = """
        int main(void) {
            int i; int acc = 0;
            for (i = 0; i < 8; i = i + 1) acc = acc + i;
            return acc & 255;
        }
        """
        image = link(compile_source(source).program)
        saved = trace_mod._TRACE_STORE
        try:
            trace_mod.set_trace_cache_dir(tmp_path)
            trace_mod.clear_trace_caches()
            first = trace_mod.trace_for(image, 0)
            # Corrupt every committed entry; reload must quarantine,
            # re-record, and agree exactly with the first recording.
            for entry in tmp_path.rglob("*.trace.pkl"):
                truncate_file(str(entry))
            trace_mod.clear_trace_caches()
            again = trace_mod.trace_for(image, 0)
            assert again.ops == first.ops
            assert again.base_cycles == first.base_cycles
            store = trace_mod.trace_store()
            assert store.counters["corrupt"] >= 1
            # The cycle ends healthy: a clean entry is back on disk.
            trace_mod.clear_trace_caches()
            reloaded = trace_mod.trace_for(image, 0)
            assert reloaded.ops == first.ops
            assert store.counters["hits"] >= 1
        finally:
            trace_mod._TRACE_STORE = saved
            trace_mod.clear_trace_caches()


# --------------------------------------------------------------------------
# Satellite (PR 9): the store under concurrent multi-process writers
# --------------------------------------------------------------------------

# Two unrelated processes hammer one store root: same keys, identical
# values (content-addressed discipline), interleaved gc under a byte
# budget small enough to force evictions *while* the sibling is
# writing and reading the same entries.  Every sibling-induced race
# (entry vanishing between listdir and stat/unlink, replace landing
# over a fresh sibling write) must degrade to a miss or a recount —
# never to an exception, and never to a false quarantine.
_STRESS_WORKER = """
import sys
sys.path.insert(0, sys.argv[1])
from repro.store import ArtifactStore

store = ArtifactStore(sys.argv[2])
for round in range(10):
    for i in range(25):
        value = [i] * (i % 7 + 1)
        store.store(("stress", i), value)
        loaded = store.load(("stress", i))
        # A miss (sibling gc'd it) is legal; a different value is not.
        assert loaded is None or loaded == value, (i, loaded)
    store.gc(max_bytes=4096)
report = store.verify()
print("quarantined=%d" % report["quarantined"])
"""


class TestConcurrentStoreWriters:
    def test_two_process_stress(self, tmp_path):
        root = tmp_path / "shared-store"
        first = subprocess.Popen(
            [sys.executable, "-c", _STRESS_WORKER,
             os.path.join(REPO, "src"), str(root)],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
        second = subprocess.Popen(
            [sys.executable, "-c", _STRESS_WORKER,
             os.path.join(REPO, "src"), str(root)],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
        for proc in (first, second):
            out, err = proc.communicate(timeout=120)
            assert proc.returncode == 0, err
            assert "quarantined=0" in out, (out, err)
        # The surviving store is healthy: nothing quarantined, every
        # remaining entry loads back as the one true value.
        store = ArtifactStore(root)
        assert store.verify()["quarantined"] == 0
        for i in range(25):
            loaded = store.load(("stress", i))
            assert loaded is None or loaded == [i] * (i % 7 + 1)

    def test_reap_tmp_spares_own_inflight_files(self, tmp_path):
        """reap only collects *foreign* orphans, never this pid's."""
        store = ArtifactStore(tmp_path)
        mine = tmp_path / f"x.pkl.tmp{os.getpid()}"
        foreign = tmp_path / "x.pkl.tmp999999"
        for path in (mine, foreign):
            path.write_bytes(b"inflight")
            os.utime(path, (time.time() - 3600, time.time() - 3600))
        assert store.reap_tmp(max_age=60) == 1
        assert mine.exists()
        assert not foreign.exists()


# --------------------------------------------------------------------------
# Satellite (PR 9): serve-fault parsing + fork-reset trigger counting
# --------------------------------------------------------------------------

class TestServeFaultSpec:
    def test_counts_per_process(self, monkeypatch):
        from repro.testing import faults
        monkeypatch.setenv("REPRO_FAULT_SERVE", "garbage@2")
        assert faults.serve_fault() is None
        assert faults.serve_fault() == "garbage"
        assert faults.serve_fault() is None

    def test_repeat_spec(self, monkeypatch):
        from repro.testing import faults
        monkeypatch.setenv("REPRO_FAULT_SERVE", "drop@2+")
        assert faults.serve_fault() is None
        assert faults.serve_fault() == "drop"
        assert faults.serve_fault() == "drop"

    def test_unknown_kind_rejected(self, monkeypatch):
        from repro.testing import faults
        monkeypatch.setenv("REPRO_FAULT_SERVE", "explode@1")
        with pytest.raises(ValueError):
            faults.serve_fault()

    def test_unset_is_free(self):
        from repro.testing import faults
        assert faults.serve_fault() is None
        assert faults._COUNTS["serve"] == 0


def _fork_probe(queue):
    """Runs in a forked child: report reset counter + fault outcome."""
    from repro.testing import faults
    inherited = faults._COUNTS["unit"]
    try:
        faults.unit_fault()
        fired = False
    except FaultInjected:
        fired = True
    queue.put((inherited, fired))


@pytest.mark.skipif(not hasattr(os, "register_at_fork"),
                    reason="needs fork hooks")
class TestForkCounterReset:
    def test_children_count_from_zero_and_once_path_is_global(
            self, tmp_path, monkeypatch):
        """The PR-9 fix: @n triggers and @once-path arbitration behave
        identically in forked pool workers and fresh processes.

        The parent burns trigger counts first; without the at-fork
        reset each child would inherit them and ``raise@1@path`` could
        never fire in any worker.  With it, the *first* child fires
        (and claims the once-file); the second child's trigger also
        counts from zero but loses the once-file race.
        """
        import multiprocessing
        from repro.testing import faults
        once = tmp_path / "once.marker"
        monkeypatch.setenv("REPRO_FAULT_UNIT", f"raise@1@{once}")
        # Parent consumes trigger counts (but not the once-file: its
        # own calls already passed n=1 by the time the env is read).
        faults._COUNTS["unit"] = 5
        context = multiprocessing.get_context("fork")
        queue = context.Queue()
        for _ in range(2):
            child = context.Process(target=_fork_probe, args=(queue,))
            child.start()
            child.join(30)
            assert child.exitcode == 0
        results = sorted(queue.get(timeout=10) for _ in range(2))
        # Both children saw a zeroed counter; exactly one fired.
        assert [inherited for inherited, _ in results] == [0, 0]
        assert [fired for _, fired in results] == [False, True]
        assert once.exists()
        # The parent's own counter is untouched by the fork hook.
        assert faults._COUNTS["unit"] == 5
