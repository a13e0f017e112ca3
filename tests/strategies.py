"""Hypothesis strategies for random mini-C programs (tier-1 fuzzing).

These are the shrinkable counterparts of :mod:`repro.gen.progen`: where
the seeded generator optimises for throughput and byte-reproducible
corpora, Hypothesis strategies optimise for *minimal counterexamples* —
when a property fails, shrinking hands back the smallest program that
still breaks it.  The tier-1 soundness tests draw from here; keeping
the strategies in one module (rather than inline in one test file)
lets every suite compose them.

Programs drawn from :func:`random_program` always terminate: loops are
counted canonical ``for`` loops over per-depth loop variables that the
bodies never write, so the compiler derives every bound automatically.
"""

from hypothesis import strategies as st

#: Mutable scalar names every generated program declares.
DEFAULT_NAMES = ("va", "vb", "vc")

#: Maximum loop/if nesting depth strategies will draw.
MAX_DEPTH = 2


@st.composite
def statement(draw, depth, names):
    """One mini-C statement over *names* at nesting level *depth*."""
    kind = draw(st.sampled_from(
        ["assign", "array", "if", "loop"] if depth < MAX_DEPTH
        else ["assign", "array"]))
    if kind == "assign":
        target = draw(st.sampled_from(names))
        source = draw(st.sampled_from(names))
        op = draw(st.sampled_from(["+", "-", "*", "&", "|", "^"]))
        constant = draw(st.integers(0, 200))
        return f"{target} = {target} {op} ({source} + {constant});"
    if kind == "array":
        index = draw(st.integers(0, 15))
        target = draw(st.sampled_from(names))
        if draw(st.booleans()):
            return f"buffer[{index}] = {target};"
        return f"{target} = {target} + buffer[({target} & 15)];"
    if kind == "if":
        condition_var = draw(st.sampled_from(names))
        threshold = draw(st.integers(0, 100))
        then = draw(statement(depth + 1, names))
        other = draw(statement(depth + 1, names))
        return (f"if (({condition_var} & 255) < {threshold}) "
                f"{{ {then} }} else {{ {other} }}")
    # counted loop (auto-bounded by the compiler); one loop variable per
    # nesting depth so inner loops never clobber an outer counter.
    count = draw(st.integers(1, 6))
    body = draw(statement(depth + 1, names))
    return (f"for (loop_i{depth} = 0; loop_i{depth} < {count}; "
            f"loop_i{depth}++) {{ {body} }}")


@st.composite
def random_program(draw, names=DEFAULT_NAMES):
    """A complete mini-C translation unit exercising loops, branches,
    global-array traffic and arithmetic; ``main`` returns a value
    derived from every scalar, so memory-system bugs surface as exit-
    code differences."""
    names = list(names)
    seeds = [draw(st.integers(0, 10000)) for _ in names]
    body = "\n    ".join(
        draw(statement(0, names)) for _ in range(draw(st.integers(2, 6))))
    decls = "\n    ".join(
        f"int {name} = {seed};" for name, seed in zip(names, seeds))
    loop_decls = "\n    ".join(
        f"int loop_i{depth};" for depth in range(MAX_DEPTH + 1))
    result = " + ".join(names)
    return f"""
int buffer[16];
int main(void) {{
    {loop_decls}
    {decls}
    {body}
    return ({result}) & 255;
}}
"""
