"""Shared test helpers: compile-and-run mini-C snippets, and oracles."""

from repro.link import link
from repro.memory import SystemConfig
from repro.minic import compile_source
from repro.sim import ObjectProfile, ProgramProfile, simulate


def run_main(source, config=None, spm_objects=(), spm_size=0, **sim_kwargs):
    """Compile *source*, run ``main`` and return the SimResult."""
    compiled = compile_source(source)
    image = link(compiled.program, spm_size=spm_size,
                 spm_objects=spm_objects)
    return simulate(image, config or SystemConfig.uncached(), **sim_kwargs)


def returns(source, **kwargs):
    """Exit code of running *source* (i.e. main's return value & 0xff...)."""
    return run_main(source, **kwargs).exit_code


def expr_value(expression, prelude=""):
    """Evaluate a mini-C int expression via compile+simulate.

    The value is printed through the console to preserve all 32 bits.
    """
    source = f"""
    {prelude}
    int main(void) {{
        __print_int({expression});
        return 0;
    }}
    """
    result = run_main(source)
    return int(result.console[0])


def build_profile(image, result) -> ProgramProfile:
    """Fold a ``simulate(..., profile=True)`` run onto *image*'s objects.

    The recording engine's per-address counts, summed per object: the
    oracle :func:`repro.sim.placement.trace_profile` must match.
    """
    if not result.fetch_counts and not result.data_counts:
        raise ValueError("simulation was not run with profile=True")
    profiles = {obj.name: ObjectProfile(name=obj.name, kind=obj.kind,
                                        size=obj.size)
                for obj in image.objects}
    for counts in (result.fetch_counts, result.data_counts):
        for addr, count in counts.items():
            obj = image.object_at(addr)
            if obj is not None:
                profiles[obj.name].accesses += count
    return ProgramProfile(profiles.values())
