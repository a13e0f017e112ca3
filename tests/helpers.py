"""Shared test helpers: compile-and-run mini-C snippets, and oracles."""

from repro.energy import EnergyModel
from repro.link import link
from repro.memory import SystemConfig
from repro.minic import compile_source
from repro.sim import ObjectProfile, ProgramProfile, simulate

from .oracles import RecordedRun


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


def _check_recorded(result):
    if not isinstance(result, RecordedRun):
        raise ValueError("needs a run of the recording oracle "
                         "(tests.oracles.record), not a plain SimResult")


def build_profile(image, result) -> ProgramProfile:
    """Fold a recording-oracle run onto *image*'s objects.

    The per-address counts of :func:`tests.oracles.record`, summed per
    object: :func:`repro.sim.placement.trace_profile` must match.
    """
    _check_recorded(result)
    profiles = {obj.name: ObjectProfile(name=obj.name, kind=obj.kind,
                                        size=obj.size)
                for obj in image.objects}
    for counts in (result.fetch_counts, result.data_counts):
        for addr, count in counts.items():
            obj = image.object_at(addr)
            if obj is not None:
                profiles[obj.name].accesses += count
    return ProgramProfile(profiles.values())


def program_energy_nj(image, result, model: EnergyModel = None) -> float:
    """Total energy of a recording-oracle run (fetch + data + CPU base).

    Each access is priced by the region its address landed in: an
    object placed in the scratchpad at SPM cost, everything else at
    main-memory cost.
    """
    _check_recorded(result)
    model = model or EnergyModel()
    total = model.cpu_instr * result.instructions

    def table(addr):
        placed = image.object_at(addr)
        if placed is not None and placed.region == "scratchpad":
            return model.spm
        return model.main

    for addr, count in result.fetch_counts.items():
        total += count * table(addr)[2]
    for addr, count in result.data_counts.items():
        # Data widths are not recorded per address; word cost is an upper
        # approximation used consistently for reporting.
        total += count * table(addr)[4]
    return total
