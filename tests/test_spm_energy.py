"""Scratchpad allocation (knapsack, energy and WCET-driven) + energy model."""

import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from repro.energy import EnergyModel, cache_access_energy_nj
from repro.link import link
from repro.memory import CacheConfig, SystemConfig
from repro.minic import compile_source
from repro.sim import record_trace, trace_profile
from repro.spm import (
    Item,
    allocate_energy_optimal,
    allocate_wcet_driven,
    build_items,
    solve_knapsack,
)

from .helpers import program_energy_nj
from .ilp.formulations import solve_knapsack_ilp
from .oracles import record


def exact_benefit(items, chosen):
    return sum(Fraction(it.benefit) for it in items if it.name in chosen)


def brute_force_knapsack(items, capacity):
    """The optimal set under the declared tie-break, by enumeration.

    Among optimal sets the solver keeps the one that leaves out the
    latest item it can, then the latest of the rest, and so on: the set
    whose membership vector, read from the last item back, is smallest.
    """
    best = None
    for mask in itertools.product((0, 1), repeat=len(items)):
        chosen = [it for it, bit in zip(items, mask) if bit]
        if any(it.benefit <= 0 for it in chosen) or \
                sum(it.size for it in chosen) > capacity:
            continue
        key = (-sum(Fraction(it.benefit) for it in chosen),
               mask[::-1])
        if best is None or key < best[0]:
            best = (key, {it.name for it in chosen})
    return best[1]


#: benefit kinds the allocators produce: energy savings (accesses times
#: a per-access saving in nJ), integer cycle savings, and exact ties.
BENEFITS = {
    "energy": st.builds(lambda k, nj: k * nj, st.integers(0, 5000),
                        st.sampled_from((14.3, 29.4))),
    "cycles": st.integers(0, 300000),
    "ties": st.sampled_from((384, 384, 384, 768, 128)),
}


class TestKnapsackSolvers:
    def test_simple_choice(self):
        items = [Item("a", 10, 5.0), Item("b", 10, 8.0),
                 Item("c", 15, 9.0)]
        chosen, benefit = solve_knapsack(items, 20)
        assert chosen == {"a", "b"}
        assert benefit == 13.0

    def test_zero_benefit_never_chosen(self):
        items = [Item("dead", 4, 0.0), Item("live", 4, 1.0)]
        chosen, _ = solve_knapsack(items, 100)
        assert chosen == {"live"}

    def test_oversized_item_skipped(self):
        items = [Item("big", 1000, 99.0), Item("small", 4, 1.0)]
        chosen, _ = solve_knapsack(items, 10)
        assert chosen == {"small"}

    def test_empty(self):
        assert solve_knapsack([], 100) == (set(), 0.0)

    def test_tiny_benefit_is_still_a_benefit(self):
        # A benefit below any fixed rounding scale still beats nothing.
        assert solve_knapsack([Item("a", 4, 0.0004)], 4) == \
            ({"a"}, 0.0004)

    def test_close_benefits_are_told_apart(self):
        items = [Item("a", 4, 1.0002), Item("b", 4, 1.0004)]
        assert solve_knapsack(items, 4) == ({"b"}, 1.0004)

    def test_identical_items_tie_break(self):
        # The sweep's tie (g721, WCET-driven, 1024 B): three identical
        # 64-byte tables worth 384 cycles each.  The earliest win.
        tables = [Item(name, 64, 384)
                  for name in ("dqlntab", "witab", "fitab")]
        filler = Item("update", 896, 171392)
        assert solve_knapsack([filler, *tables], 960)[0] == \
            {"update", "dqlntab"}
        assert solve_knapsack(tables, 128)[0] == {"dqlntab", "witab"}

    @pytest.mark.parametrize("kind", sorted(BENEFITS))
    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_matches_brute_force(self, kind, data):
        raw = data.draw(st.lists(
            st.tuples(st.sampled_from((4, 8, 12, 16, 24, 32, 64)),
                      BENEFITS[kind]), min_size=1, max_size=12))
        capacity = data.draw(st.integers(0, 160))
        items = [Item(f"o{i}", size, benefit)
                 for i, (size, benefit) in enumerate(raw)]
        chosen, benefit = solve_knapsack(items, capacity)
        assert chosen == brute_force_knapsack(items, capacity)
        assert benefit == sum(it.benefit for it in items
                              if it.name in chosen)

    @settings(max_examples=60, deadline=None)
    @given(st.lists(
        st.tuples(st.integers(1, 40), st.floats(0.5, 50.0)),
        min_size=1, max_size=10), st.integers(1, 100))
    def test_ilp_matches_dp(self, raw_items, capacity):
        items = [Item(f"o{i}", size, round(benefit, 3))
                 for i, (size, benefit) in enumerate(raw_items)]
        chosen_ilp, _ = solve_knapsack_ilp(items, capacity)
        chosen_dp, _ = solve_knapsack(items, capacity)
        assert exact_benefit(items, chosen_dp) == \
            exact_benefit(items, chosen_ilp)


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
    return compiled, image, trace_profile(record_trace(image, 0), image)


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
        items = build_items(compiled.program, profile)
        allocation = allocate_energy_optimal(compiled.program, profile, 512)
        chosen_ilp, _ = solve_knapsack_ilp(items, 512)
        assert allocation.method == "energy"
        assert exact_benefit(items, allocation.objects) == \
            exact_benefit(items, chosen_ilp)

    def test_zero_size_allocates_nothing(self):
        compiled, _image, profile = profiled()
        allocation = allocate_energy_optimal(compiled.program, profile, 0)
        assert not allocation.objects


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
        result_main = record(image, SystemConfig.uncached())
        energy_main = program_energy_nj(image, result_main)

        names = {f.name for f in compiled.program.functions}
        names |= {g.name for g in compiled.program.globals}
        spm_image = link(compiled.program, spm_size=4096,
                         spm_objects=names)
        result_spm = record(spm_image, SystemConfig.scratchpad(4096))
        energy_spm = program_energy_nj(spm_image, result_spm)
        assert energy_spm < energy_main

    def test_build_items_uses_aligned_sizes(self):
        compiled, _image, profile = profiled()
        for item in build_items(compiled.program, profile):
            assert item.size % 4 == 0
