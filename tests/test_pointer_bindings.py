"""Property test: pointer bindings followed over the trace.

Hypothesis draws small programs whose array-parameter helpers are called
with two or three global arrays — directly, or through a helper that
forwards its own pointer — and optionally reads or writes one element
past the array a call passes.  Each program is placed with a random
subset of its objects in the scratchpad.  Whenever
:func:`~repro.sim.placement.place_trace` accepts a placement, replaying
the derived trace must equal executing the placed image, under pure SPM
and behind one cache; a program whose accesses all stay in bounds must
always be accepted.  Execution is the oracle.
"""

from hypothesis import given, settings, strategies as st

from repro.link import link
from repro.memory import CacheConfig, SystemConfig
from repro.minic import compile_source
from repro.sim import place_trace, simulate
from repro.sim.replay import replay
from repro.sim.trace import record_trace

#: Reads ``n`` elements of ``p``, weighted by position.
READER = """
int h0(int p[], int n) {
    int i;
    int s = 0;
    #pragma loopbound 8
    for (i = 0; i < n; i++) { s = s + p[i] * (i + 1); }
    return s;
}
"""

#: Forwards its pointer to ``h0``, then reads through it itself.
FORWARDER = """
int h1(int q[], int n) { return h0(q, n) + q[0]; }
"""

#: Writes ``n`` elements of ``q``.
WRITER = """
int h1(int q[], int n) {
    int i;
    #pragma loopbound 8
    for (i = 0; i < n; i++) { q[i] = q[i] + i + 1; }
    return q[0];
}
"""


@st.composite
def pointer_programs(draw):
    """``(source, in_bounds)`` for one drawn program."""
    sizes = draw(st.lists(st.integers(2, 6), min_size=2, max_size=3))
    helpers = draw(st.integers(1, 2))
    forwards = helpers == 2 and draw(st.booleans())
    calls = draw(st.lists(
        st.tuples(st.integers(0, helpers - 1),
                  st.integers(0, len(sizes) - 1)),
        min_size=2, max_size=5))
    overrun = draw(st.none() | st.tuples(
        st.integers(0, len(calls) - 1), st.integers(1, 2)))
    lines = []
    for index, size in enumerate(sizes):
        values = draw(st.lists(st.integers(-50, 50), min_size=size,
                               max_size=size))
        lines.append(f"int g{index}[{size}] = "
                     f"{{{', '.join(map(str, values))}}};")
    lines.append(READER)
    if helpers == 2:
        lines.append(FORWARDER if forwards else WRITER)
    lines.append("int main(void) {\n    int s = 0;")
    for number, (helper, array) in enumerate(calls):
        count = sizes[array]
        if overrun is not None and overrun[0] == number:
            count += overrun[1]
        lines.append(f"    s = s + h{helper}(g{array}, {count});")
    lines.append("    __print_int(s);\n    return s & 255;\n}")
    return "\n".join(lines), overrun is None


@settings(max_examples=60, deadline=None)
@given(pointer_programs(), st.data())
def test_accepted_placements_match_execution(drawn, data):
    source, in_bounds = drawn
    compiled = compile_source(source)
    assert not compiled.analyzer.observes_placement
    baseline = link(compiled.program)
    trace = record_trace(baseline, 0)
    names = sorted(name for name, _kind, _size
                   in compiled.program.memory_objects())
    chosen = data.draw(st.sets(st.sampled_from(names)), label="in SPM")
    sizes = {name: size for name, _kind, size
             in compiled.program.memory_objects()}
    spm_size = max(64, sum((sizes[name] + 3) & ~3 for name in chosen))
    image = link(compiled.program, spm_size=spm_size, spm_objects=chosen)
    placed = place_trace(trace, baseline, image, spm_size)
    if in_bounds:
        assert placed is not None
    if placed is None:
        return
    for config in (SystemConfig.scratchpad(spm_size),
                   SystemConfig.hybrid(spm_size, CacheConfig(size=128))):
        priced, executed = replay(placed, config), simulate(image, config)
        assert (priced.cycles, priced.instructions, priced.exit_code,
                list(priced.console)) == \
            (executed.cycles, executed.instructions, executed.exit_code,
             list(executed.console)), (config.name, sorted(chosen))
        assert {name: vars(level)
                for name, level in priced.level_stats.items()} == \
            {name: vars(level)
             for name, level in executed.level_stats.items()}
