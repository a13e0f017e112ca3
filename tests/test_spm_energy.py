"""Scratchpad allocation (knapsack, energy and WCET-driven) + energy model."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.energy import EnergyModel, cache_access_energy_nj, \
    program_energy_nj
from repro.link import link
from repro.memory import CacheConfig, SystemConfig
from repro.minic import compile_source
from repro.sim import simulate
from repro.spm import (
    Item,
    allocate_energy_optimal,
    allocate_wcet_driven,
    build_items,
    solve_knapsack_dp,
    solve_knapsack_ilp,
)

from .helpers import build_profile


class TestKnapsackSolvers:
    def test_simple_choice(self):
        items = [Item("a", 10, 5.0), Item("b", 10, 8.0),
                 Item("c", 15, 9.0)]
        chosen, benefit = solve_knapsack_ilp(items, 20)
        assert chosen == {"a", "b"}
        assert benefit == pytest.approx(13.0)

    def test_zero_benefit_never_chosen(self):
        items = [Item("dead", 4, 0.0), Item("live", 4, 1.0)]
        chosen, _ = solve_knapsack_ilp(items, 100)
        assert chosen == {"live"}

    def test_oversized_item_skipped(self):
        items = [Item("big", 1000, 99.0), Item("small", 4, 1.0)]
        chosen, _ = solve_knapsack_ilp(items, 10)
        assert chosen == {"small"}

    def test_empty(self):
        assert solve_knapsack_ilp([], 100) == (set(), 0.0)

    @settings(max_examples=60, deadline=None)
    @given(st.lists(
        st.tuples(st.integers(1, 40), st.floats(0.5, 50.0)),
        min_size=1, max_size=10), st.integers(1, 100))
    def test_ilp_matches_dp(self, raw_items, capacity):
        items = [Item(f"o{i}", size, round(benefit, 3))
                 for i, (size, benefit) in enumerate(raw_items)]
        _chosen_a, benefit_a = solve_knapsack_ilp(items, capacity)
        _chosen_b, benefit_b = solve_knapsack_dp(items, capacity)
        assert benefit_a == pytest.approx(benefit_b, abs=1e-2)


SOURCE = """
int hot_data[32];
int cold_data[256];
int hot(int x) {
    int i; int t = x;
    for (i = 0; i < 32; i++) { t += hot_data[i]; }
    return t;
}
int cold(int x) { return x + cold_data[0]; }
int main(void) {
    int i; int t = 0;
    for (i = 0; i < 50; i++) { t = hot(t); }
    t = cold(t);
    return t & 255;
}
"""


def profiled():
    compiled = compile_source(SOURCE)
    image = link(compiled.program)
    result = simulate(image, SystemConfig.uncached(), profile=True)
    return compiled, image, build_profile(image, result)


class TestEnergyAllocation:
    def test_hot_objects_preferred(self):
        compiled, _image, profile = profiled()
        hot_size = compiled.program.function("hot").size
        allocation = allocate_energy_optimal(
            compiled.program, profile, ((hot_size + 3) & ~3) + 4)
        assert "hot" in allocation.objects
        assert "cold" not in allocation.objects

    def test_capacity_respected(self):
        compiled, _image, profile = profiled()
        for size in (64, 128, 256, 512):
            allocation = allocate_energy_optimal(compiled.program,
                                                 profile, size)
            assert allocation.used_bytes <= size
            # The linker must agree that it fits.
            link(compiled.program, spm_size=size,
                 spm_objects=allocation.objects)

    def test_benefit_monotone_in_capacity(self):
        compiled, _image, profile = profiled()
        benefits = [allocate_energy_optimal(compiled.program, profile,
                                            size).benefit
                    for size in (0, 64, 256, 1024, 4096)]
        assert benefits == sorted(benefits)

    def test_dp_and_ilp_agree_on_program(self):
        compiled, _image, profile = profiled()
        a = allocate_energy_optimal(compiled.program, profile, 512,
                                    method="ilp")
        b = allocate_energy_optimal(compiled.program, profile, 512,
                                    method="dp")
        assert a.benefit == pytest.approx(b.benefit, rel=1e-6)

    def test_zero_size_allocates_nothing(self):
        compiled, _image, profile = profiled()
        allocation = allocate_energy_optimal(compiled.program, profile, 0)
        assert not allocation.objects

    def test_unknown_method(self):
        compiled, _image, profile = profiled()
        with pytest.raises(ValueError):
            allocate_energy_optimal(compiled.program, profile, 64,
                                    method="magic")


class TestWcetDrivenAllocation:
    def test_improves_wcet(self):
        from repro.wcet import analyze_wcet
        compiled = compile_source(SOURCE)
        allocation = allocate_wcet_driven(compiled.program, 1024)
        assert allocation.objects
        baseline = analyze_wcet(link(compiled.program),
                                SystemConfig.uncached())
        placed = analyze_wcet(
            link(compiled.program, spm_size=1024,
                 spm_objects=allocation.objects),
            SystemConfig.scratchpad(1024))
        assert placed.wcet < baseline.wcet

    def test_prefers_critical_path(self):
        # `cold` is called once; `hot` dominates the critical path.
        compiled = compile_source(SOURCE)
        hot_size = compiled.program.function("hot").size
        allocation = allocate_wcet_driven(compiled.program,
                                          ((hot_size + 3) & ~3) + 4)
        assert "hot" in allocation.objects

    def test_zero_capacity(self):
        compiled = compile_source(SOURCE)
        assert not allocate_wcet_driven(compiled.program, 0).objects


class TestEnergyModel:
    def test_spm_cheaper_than_main(self):
        model = EnergyModel()
        for width in (1, 2, 4):
            assert model.spm_benefit_per_access(width) > 0

    def test_object_benefit_scales_with_accesses(self):
        model = EnergyModel()
        assert model.object_benefit("code", 100, 2) == \
            pytest.approx(100 * model.spm_benefit_per_access(2))
        assert model.object_benefit("data", 10, 4) > \
            model.object_benefit("data", 10, 2)

    def test_cache_energy_grows_with_size_and_ways(self):
        small = cache_access_energy_nj(CacheConfig(size=256))
        large = cache_access_energy_nj(CacheConfig(size=8192))
        assert large > small
        two_way = cache_access_energy_nj(CacheConfig(size=256, assoc=2))
        assert two_way > small

    def test_program_energy_drops_with_spm(self):
        compiled, image, profile = profiled()
        result_main = simulate(image, SystemConfig.uncached(),
                               profile=True)
        energy_main = program_energy_nj(image, result_main)

        names = {f.name for f in compiled.program.functions}
        names |= {g.name for g in compiled.program.globals}
        spm_image = link(compiled.program, spm_size=4096,
                         spm_objects=names)
        result_spm = simulate(spm_image, SystemConfig.scratchpad(4096),
                              profile=True)
        energy_spm = program_energy_nj(spm_image, result_spm)
        assert energy_spm < energy_main

    def test_build_items_uses_aligned_sizes(self):
        compiled, _image, profile = profiled()
        for item in build_items(compiled.program, profile):
            assert item.size % 4 == 0
