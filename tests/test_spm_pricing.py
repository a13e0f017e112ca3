"""Scratchpad points priced from the baseline trace vs. execution.

:func:`repro.sim.placement.place_trace` derives a placed image's trace
from the baseline trace, and :class:`~repro.workflow.Workflow` prices
every SPM and hybrid point by replaying it.  Execution is the oracle:
the differentials below pin the priced :class:`SimResult` to
``simulate`` on the whole suite, and the guard tests run programs whose
behaviour really does change with placement, where pricing must decline
and the point must still get execution's answer.
"""

import pytest

from repro.benchmarks import BENCHMARKS, get
from repro.link import link, symbol_deltas
from repro.memory import CacheConfig, SystemConfig
from repro.memory.levels import CacheLevel, MainMemoryLevel, SpmLevel
from repro.sim import place_trace, placement, simulate
from repro.sim.replay import replay
from repro.sim.trace import clear_trace_caches, record_trace, trace_counters
from repro.spm.allocator import Allocation
from repro.wcet import analyze_wcet
from repro.workflow import PAPER_SIZES, Workflow

from .helpers import build_profile
from .oracles import record

HYBRID_SIZES = (256, 1024)
#: The levels behind the scratchpad in the hybrid shapes: an L1
#: (unified, 2-way or instruction-only), an L1+L2 and split I/D caches.
HYBRID_BACKS = (
    (CacheLevel.unified(CacheConfig(size=512)),),
    (CacheLevel.unified(CacheConfig(size=512, assoc=2)),),
    (CacheLevel.instruction(CacheConfig(size=512, unified=False)),),
    (CacheLevel.unified(CacheConfig(size=512)),
     CacheLevel.unified(CacheConfig(size=2048), name="L2")),
    (CacheLevel.split(CacheConfig(size=512, unified=False),
                      CacheConfig(size=256)),),
    (CacheLevel.unified(CacheConfig(size=256, assoc=2)),
     CacheLevel.unified(CacheConfig(size=4096, assoc=4), name="L2")),
)


def _hybrid(size, back):
    return SystemConfig.with_levels(
        f"spm{size}+hybrid", (SpmLevel(size),) + back + (MainMemoryLevel(),))


def _outcome(result):
    stats = {name: vars(level) for name, level in result.level_stats.items()}
    return (result.cycles, result.instructions, result.exit_code,
            list(result.console), stats)


_WORKFLOWS = {}


def _workflow(bench):
    if bench not in _WORKFLOWS:
        _WORKFLOWS[bench] = Workflow(get(bench).source())
    return _WORKFLOWS[bench]


def _placed_images(workflow, method, sizes):
    """``(size, image)`` per distinct placement of *sizes*."""
    seen = set()
    for size in sizes:
        allocation = workflow.allocate(SystemConfig.scratchpad(size),
                                       method)
        image = link(workflow.program, spm_size=size,
                     spm_objects=allocation.objects)
        key = (size, image.content_key())
        if key not in seen:
            seen.add(key)
            yield size, image


class TestSuiteDifferential:
    @pytest.mark.parametrize("bench", sorted(BENCHMARKS))
    def test_profile_matches_recording_engine(self, bench):
        workflow = _workflow(bench)
        image = workflow.baseline_image()
        recorded = build_profile(image, record(image,
                                               SystemConfig.uncached()))
        derived = workflow.profile()
        assert [(p.name, p.kind, p.size, p.accesses) for p in derived] == \
            [(p.name, p.kind, p.size, p.accesses) for p in recorded]

    @pytest.mark.parametrize("method", ("energy", "wcet"))
    @pytest.mark.parametrize("bench", sorted(BENCHMARKS))
    def test_spm_points_match_execution(self, bench, method):
        workflow = _workflow(bench)
        assert not workflow.compiled.analyzer.observes_placement
        trace = workflow.baseline_trace()
        for size, image in _placed_images(workflow, method, PAPER_SIZES):
            config = SystemConfig.scratchpad(size)
            placed = place_trace(trace, workflow.baseline_image(), image,
                                 size)
            assert placed is not None
            assert _outcome(replay(placed, config)) == \
                _outcome(simulate(image, config))

    @pytest.mark.parametrize("bench", sorted(BENCHMARKS))
    def test_hybrid_points_match_execution(self, bench):
        workflow = _workflow(bench)
        trace = workflow.baseline_trace()
        for size, image in _placed_images(workflow, "energy", HYBRID_SIZES):
            placed = place_trace(trace, workflow.baseline_image(), image,
                                 size)
            assert placed is not None
            for back in HYBRID_BACKS:
                config = _hybrid(size, back)
                assert _outcome(replay(placed, config)) == \
                    _outcome(simulate(image, config))


class TestWorkflowPricing:
    def test_sweep_records_once_and_replays_per_size(self):
        clear_trace_caches()
        workflow = Workflow(get("crc").source())
        before = trace_counters()
        points = workflow.config_points(
            (SystemConfig.scratchpad(size), False, "energy")
            for size in PAPER_SIZES)
        after = trace_counters()
        assert after["trace_records"] - before["trace_records"] == 1
        assert after["replay_runs"] - before["replay_runs"] == \
            len(PAPER_SIZES)
        for point in points:
            assert _outcome(point.sim) == \
                _outcome(simulate(point.image, point.config))

    def test_pure_spm_point_builds_no_stream(self):
        workflow = _workflow("adpcm")
        image = link(workflow.program, spm_size=512,
                     spm_objects=workflow.allocate(
                         SystemConfig.scratchpad(512)).objects)
        placed = place_trace(workflow.baseline_trace(),
                             workflow.baseline_image(), image, 512)
        replay(placed, SystemConfig.scratchpad(512))
        assert placed._ops is None
        replay(placed, SystemConfig.hybrid(512, CacheConfig(size=256)))
        assert placed._ops is not None

    def test_hybrid_point_matches_execution(self):
        workflow = _workflow("adpcm")
        point = workflow.config_point(
            SystemConfig.hybrid(512, CacheConfig(size=256)))
        assert _outcome(point.sim) == \
            _outcome(simulate(point.image, point.config))


# -- programs whose behaviour changes with placement -------------------------

OUT_OF_BOUNDS = """
int a[4] = {1, 2, 3, 0};
int b[4] = {100, 101, 102, 103};
int main(void) {
    int i;
    int s = 0;
    for (i = 0; i < 8; i++) { s = s + a[i]; }
    __print_int(s);
    return 0;
}
"""

ADDRESS_LEAK = """
int a[4];
int b[4];
int leak(int p[]) { return p; }
int main(void) {
    int i;
    int s = 1;
    if (leak(b) < leak(a)) {
        s = 0;
        for (i = 0; i < 8; i++) { s = s + 7; }
    }
    __print_int(s);
    return 0;
}
"""

POINTER_OVERRUN = """
int a[4] = {1, 2, 3, 0};
int b[4] = {100, 101, 102, 103};
int total(int p[], int n) {
    int i;
    int s = 0;
    #pragma loopbound 8
    for (i = 0; i < n; i++) { s = s + p[i]; }
    return s;
}
int main(void) {
    __print_int(total(a, 8) + total(b, 4));
    return 0;
}
"""

#: ``total`` of POINTER_OVERRUN, every access in bounds.
IN_BOUNDS = POINTER_OVERRUN.replace("total(a, 8)", "total(a, 4)")


def _forwarded(count):
    """``outer`` forwards its pointer to ``total``, which reads *count*
    elements of ``outer``'s caller's array (``a``) and 4 of ``b``."""
    return POINTER_OVERRUN.replace("int main(void) {", """
int outer(int p[], int n) { return total(p, n); }
int main(void) {""").replace(
        "total(a, 8) + total(b, 4)", f"outer(a, {count}) + outer(b, 4)")


#: The inner call binds ``b``; the outer activation then reads ``a[4]``,
#: past ``a`` into ``b[0]``.  Taking the last call into ``walk`` for its
#: live activation would see a read of ``b`` in bounds.
RECURSIVE = """
int a[4] = {1, 2, 3, 0};
int b[4] = {100, 101, 102, 103};
int walk(int p[], int depth) {
    int s = 0;
    if (depth > 0) { s = walk(b, depth - 1); }
    return s + p[depth * 4];
}
int main(void) {
    __print_int(walk(a, 1));
    return 0;
}
"""

#: Read a stale copy of ``&a`` that an earlier call left behind: in the
#: stack slot of a local never assigned, and in r0 when a value-returning
#: function runs off its end.
UNSET_LOCAL = """
int a[4];
int first(int p[]) { return p[0]; }
int stale(void) { int x; return x; }
int main(void) {
    first(a);
    __print_int(stale());
    return 0;
}
"""

FALLS_OFF_END = """
int a[4];
int leak(int p[]) { }
int main(void) {
    __print_int(leak(a));
    return 0;
}
"""


def _base(image, name):
    return next(obj.base for obj in image.objects if obj.name == name)


def _pairs(workflow):
    """The baseline's ``(bound, landing)`` pointer pairs, by object name."""
    image = workflow.baseline_image()
    assignment = placement._assignment(workflow.baseline_trace(), image)
    names = [obj.name for obj in assignment.objects]
    placeable, pairs = assignment.verdict(workflow.baseline_trace(), image)
    assert placeable
    return {(names[bound], names[landing]) for bound, landing in pairs}


def _pinned_point(source, objects, spm_size=64):
    """The workflow's SPM point with *objects* forced into the SPM."""
    workflow = Workflow(source)
    workflow.allocate = lambda config, method="energy": \
        Allocation(spm_size=config.spm_size, objects=set(objects))
    point = workflow.config_point(SystemConfig.scratchpad(spm_size))
    placed = place_trace(workflow.baseline_trace(),
                         workflow.baseline_image(), point.image, spm_size)
    return workflow, point, placed


class TestPlacementGuard:
    def test_out_of_bounds_index_declines(self):
        workflow, point, placed = _pinned_point(OUT_OF_BOUNDS, {"a"})
        assert workflow.baseline_trace().console == ("412",)
        assert placed is None
        executed = simulate(point.image, point.config)
        assert executed.console == ["6"]
        assert _outcome(point.sim) == _outcome(executed)

    def test_address_leak_declines(self):
        workflow, point, placed = _pinned_point(ADDRESS_LEAK, {"b"})
        assert workflow.compiled.analyzer.pointer_as_scalar
        baseline = workflow.baseline_trace()
        executed = simulate(point.image, point.config)
        assert baseline.console == ("1",)
        assert executed.console == ["56"]
        assert executed.instructions > baseline.instructions
        # The access check alone cannot see the leak: every access is in
        # bounds, so the derived trace is the baseline's, priced wrongly.
        assert placed is not None
        assert replay(placed, point.config).console == ["1"]
        assert _outcome(point.sim) == _outcome(executed)

    @pytest.mark.parametrize("source", [UNSET_LOCAL, FALLS_OFF_END],
                             ids=["unset-local", "falls-off-end"])
    def test_unset_read_declines(self, source):
        workflow, point, placed = _pinned_point(source, {"a"})
        assert workflow.compiled.analyzer.reads_unset
        baseline = workflow.baseline_trace()
        executed = simulate(point.image, point.config)
        assert baseline.console == \
            (str(_base(workflow.baseline_image(), "a")),)
        assert executed.console == [str(_base(point.image, "a"))]
        assert baseline.console != tuple(executed.console)
        # Every access is in bounds, so only the compiler sees the leak.
        assert placed is not None
        assert _outcome(point.sim) == _outcome(executed)

    def test_pointer_overrun_into_sibling_declines(self):
        workflow, point, placed = _pinned_point(POINTER_OVERRUN, {"a"})
        assert workflow.baseline_trace().console == ("818",)
        assert placed is None
        executed = simulate(point.image, point.config)
        assert executed.console == ["412"]
        assert _outcome(point.sim) == _outcome(executed)

    def test_pointer_arrays_moved_together_are_priced(self):
        workflow, point, placed = _pinned_point(POINTER_OVERRUN,
                                                {"a", "b"})
        assert placed is not None
        assert _outcome(point.sim) == \
            _outcome(simulate(point.image, point.config))

    def test_in_bounds_split_is_priced(self):
        workflow, point, placed = _pinned_point(IN_BOUNDS, {"a"})
        assert _pairs(workflow) == {("a", "a"), ("b", "b")}
        assert placed is not None
        executed = simulate(point.image, point.config)
        assert executed.console == ["412"]
        assert _outcome(replay(placed, point.config)) == _outcome(executed)
        assert _outcome(point.sim) == _outcome(executed)

    def test_forwarded_pointer_split_is_priced(self):
        workflow, point, placed = _pinned_point(_forwarded(4), {"a"})
        assert _pairs(workflow) == {("a", "a"), ("b", "b")}
        assert placed is not None
        executed = simulate(point.image, point.config)
        assert executed.console == ["412"]
        assert _outcome(replay(placed, point.config)) == _outcome(executed)

    def test_overrun_through_a_forward_declines(self):
        workflow, point, placed = _pinned_point(_forwarded(8), {"a"})
        assert workflow.baseline_trace().console == ("818",)
        assert _pairs(workflow) == {("a", "a"), ("a", "b"), ("b", "b")}
        assert placed is None
        executed = simulate(point.image, point.config)
        assert executed.console == ["412"]
        assert _outcome(point.sim) == _outcome(executed)

    def test_recursive_pointer_function_declines(self):
        # WCET analysis rejects recursion, so this prices the simulation
        # alone, as config_point would.
        workflow = Workflow(RECURSIVE)
        image = link(workflow.program, spm_size=64, spm_objects={"a"})
        config = SystemConfig.scratchpad(64)
        assert workflow.baseline_trace().console == ("200",)
        assert place_trace(workflow.baseline_trace(),
                           workflow.baseline_image(), image, 64) is None
        assert workflow._placed_sim(image, config) is None
        assert simulate(image, config).console == ["100"]

    def test_hybrid_point_falls_back_to_its_own_trace(self):
        workflow = Workflow(OUT_OF_BOUNDS)
        workflow.allocate = lambda config, method="energy": \
            Allocation(spm_size=config.spm_size, objects={"a"})
        point = workflow.config_point(
            SystemConfig.hybrid(64, CacheConfig(size=64)))
        executed = simulate(point.image, point.config)
        assert executed.console == ["6"]
        assert _outcome(point.sim) == _outcome(executed)


class TestPlacementContract:
    @pytest.mark.parametrize("source, placeable", [
        (OUT_OF_BOUNDS, False), (POINTER_OVERRUN, True),
        (_forwarded(8), True), (get("crc").source(), True)])
    def test_block_size_does_not_change_the_assignment(
            self, monkeypatch, source, placeable):
        workflow = Workflow(source)
        image = workflow.baseline_image()
        trace = record_trace(image, 0)
        whole = placement._Assignment(trace, image)
        monkeypatch.setattr(placement, "_BLOCK", 7)
        blocked = placement._Assignment(trace, image)
        assert blocked.counts == whole.counts
        assert (blocked.rows == whole.rows).all()
        assert blocked.verdict(trace, image) == \
            whole.verdict(trace, image)
        assert blocked.verdict(trace, image)[0] == placeable

    def test_needs_the_baseline_trace(self):
        workflow = _workflow("crc")
        image = link(workflow.program, spm_size=256,
                     spm_objects=workflow.allocate(
                         SystemConfig.scratchpad(256)).objects)
        with pytest.raises(ValueError):
            place_trace(record_trace(image, 256), image, image, 256)

    def test_rejects_another_program(self):
        crc, fir = _workflow("crc"), _workflow("fir")
        with pytest.raises(ValueError):
            place_trace(crc.baseline_trace(), crc.baseline_image(),
                        fir.baseline_image(), 0)


class TestPricedBound:
    """A scratchpad point's WCET, priced on the baseline's frontend, is
    the placed image's own analysis, which stays the reference."""

    @pytest.mark.parametrize("method", ("energy", "wcet"))
    @pytest.mark.parametrize("bench", sorted(BENCHMARKS))
    def test_matches_the_placed_image(self, bench, method):
        workflow = _workflow(bench)
        baseline = workflow.baseline_image()
        for size in PAPER_SIZES:
            config = SystemConfig.scratchpad(size)
            image = link(workflow.program, spm_size=size,
                         spm_objects=workflow.allocate(config,
                                                       method).objects)
            own = analyze_wcet(image, config)
            priced = analyze_wcet(image, config, baseline=baseline)
            assert (priced.wcet, priced.per_function,
                    priced.stack_range) == (own.wcet, own.per_function,
                                            own.stack_range), size
            moved = symbol_deltas(baseline, image)
            assert {name: {addr + moved[name]: count
                           for addr, count in counts.items()}
                    for name, counts in priced.block_counts.items()} == \
                own.block_counts, size

    def test_workflow_point_is_the_placed_bound(self):
        workflow = _workflow("g721")
        point = workflow.config_point(SystemConfig.scratchpad(1024))
        assert point.wcet.wcet == analyze_wcet(point.image,
                                               point.config).wcet

    def test_hybrid_analyses_its_own_image(self):
        workflow = _workflow("adpcm")
        baseline = workflow.baseline_image()
        config = _hybrid(256, HYBRID_BACKS[0])
        image = link(workflow.program, spm_size=256,
                     spm_objects=workflow.allocate(config).objects)
        priced = analyze_wcet(image, config, baseline=baseline)
        own = analyze_wcet(image, config)
        assert priced.wcet == own.wcet
        assert priced.block_counts == own.block_counts
        assert priced.cfgs["main"].entry == image.symbols["main"] != \
            baseline.symbols["main"]

    def test_rejects_another_program(self):
        crc, fir = _workflow("crc"), _workflow("fir")
        with pytest.raises(ValueError):
            analyze_wcet(fir.baseline_image(), SystemConfig.scratchpad(256),
                         baseline=crc.baseline_image())
