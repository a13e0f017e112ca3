"""Workflow pipelines and experiment regeneration (fast sweeps).

These are the repository's integration tests: they regenerate reduced
versions of the paper's artefacts and assert the *qualitative shapes* the
paper reports (constant SPM ratio, growing cache ratio, small-cache
degradation, tight worst-case-input bound).
"""

import pytest

from repro.benchmarks import get
from repro.experiments import (
    ablation_cacheconfig,
    ablation_persistence,
    ablation_wcet_alloc,
    fig2_annotations,
    fig3_g721,
    fig4_ratio_g721,
    fig5_ratio_multisort,
    fig6_adpcm,
    table1,
    table2,
    xtra_worstcase_sort,
)
from repro.memory import CacheConfig, SystemConfig
from repro.memory.levels import CacheLevel, MainMemoryLevel, SpmLevel
from repro.spm import allocate_wcet_driven
from repro.workflow import PAPER_SIZES, Workflow


@pytest.fixture(scope="module")
def adpcm_workflow():
    return Workflow(get("adpcm").source())


class TestWorkflow:
    def test_paper_sizes(self):
        assert PAPER_SIZES == (64, 128, 256, 512, 1024, 2048, 4096, 8192)

    def test_profile_cached(self, adpcm_workflow):
        assert adpcm_workflow.profile() is adpcm_workflow.profile()

    def test_spm_point_fields(self, adpcm_workflow):
        point = adpcm_workflow.config_point(SystemConfig.scratchpad(256))
        assert point.allocation.spm_size == 256
        assert point.wcet.wcet >= point.sim.cycles
        assert point.ratio > 1.0
        row = point.row()
        assert row["config"] == "spm256"

    def test_cache_point_fields(self, adpcm_workflow):
        point = adpcm_workflow.config_point(
            SystemConfig.cached(CacheConfig(size=256)))
        assert point.sim.cache_stats is not None
        assert point.wcet.wcet >= point.sim.cycles

    def test_bigger_spm_never_slower(self, adpcm_workflow):
        small = adpcm_workflow.config_point(SystemConfig.scratchpad(64))
        big = adpcm_workflow.config_point(SystemConfig.scratchpad(4096))
        assert big.sim.cycles <= small.sim.cycles
        assert big.wcet.wcet <= small.wcet.wcet

    def test_allocation_methods(self, adpcm_workflow):
        spm = SystemConfig.scratchpad(512)
        energy = adpcm_workflow.allocate(spm, method="energy")
        wcet = adpcm_workflow.allocate(spm, method="wcet")
        assert energy.method == "energy"
        assert wcet.method == "wcet"
        with pytest.raises(ValueError):
            adpcm_workflow.allocate(spm, method="nope")

    def test_wcet_allocation_analyses_the_levels_behind_the_spm(
            self, adpcm_workflow, monkeypatch):
        import repro.workflow
        analysed = []
        monkeypatch.setattr(
            repro.workflow, "allocate_wcet_driven",
            lambda program, size, baseline_config, baseline_image:
                analysed.append(baseline_config.levels))
        l1 = CacheLevel.unified(CacheConfig(size=512))
        l2 = CacheLevel.unified(CacheConfig(size=2048), name="L2")
        adpcm_workflow.allocate(SystemConfig.with_levels(
            "spm256+cache512+l2-2048",
            (SpmLevel(256), l1, l2, MainMemoryLevel())), method="wcet")
        adpcm_workflow.allocate(SystemConfig.scratchpad(256), method="wcet")
        assert analysed == [(l1, l2, MainMemoryLevel()),
                            SystemConfig.uncached().levels]

    def test_wcet_allocation_reuses_the_baseline_image(self, monkeypatch):
        """A WCET-driven sweep analyses the workflow's baseline
        executable; the allocator links none of its own."""
        import repro.spm.wcet_driven
        linked = []
        relink = repro.spm.wcet_driven.link
        monkeypatch.setattr(
            repro.spm.wcet_driven, "link",
            lambda *args, **kwargs: linked.append(args) or relink(
                *args, **kwargs))
        workflow = Workflow(get("crc").source())
        points = workflow.config_points(
            [(SystemConfig.scratchpad(size), False, "wcet")
             for size in PAPER_SIZES])
        assert linked == []
        assert all(point.allocation.method == "wcet" for point in points)

    def test_wcet_allocation_analyses_the_baseline_once_per_sweep(
            self, monkeypatch):
        """Only the knapsack's capacity depends on the scratchpad size:
        a WCET-driven sweep analyses the baseline once and allocates
        what a standalone call per size allocates."""
        import repro.spm.wcet_driven
        analysed = []
        analyse = repro.spm.wcet_driven.analyze_wcet
        monkeypatch.setattr(
            repro.spm.wcet_driven, "analyze_wcet",
            lambda *args, **kwargs: analysed.append(args) or analyse(
                *args, **kwargs))
        workflow = Workflow(get("crc").source())
        points = workflow.config_points(
            [(SystemConfig.scratchpad(size), False, "wcet")
             for size in PAPER_SIZES])
        assert len(analysed) == 1
        for size, point in zip(PAPER_SIZES, points):
            alone = allocate_wcet_driven(workflow.program, size)
            got = point.allocation
            assert (got.objects, got.benefit, got.used_bytes) == \
                (alone.objects, alone.benefit, alone.used_bytes), size


class TestTables:
    def test_table1_exact_paper_values(self):
        rows = table1.run()["rows"]
        by_width = {r["access_width"]: r for r in rows}
        assert by_width["Byte (8 Bit)"]["main_memory"] == 2
        assert by_width["Halfword (16 Bit)"]["main_memory"] == 2
        assert by_width["Word (32 Bit)"]["main_memory"] == 4
        assert all(r["scratchpad"] == 1 for r in rows)

    def test_table2_rows(self):
        result = table2.run(fast=True)
        names = [r["name"] for r in result["rows"]]
        assert names == ["G.721", "ADPCM", "MultiSort"]


class TestFigures:
    def test_fig2_annotation_artifact(self):
        result = fig2_annotations.run()
        assert "# Scratchpad" in result["text"]
        assert "Literal pool" in result["text"]
        assert result["rows"][0]["areas"] > 5
        assert result["rows"][0]["loop_bounds"] > 3
        assert result["rows"][0]["access_ranges"] > 10

    def test_fig3_shapes(self):
        result = fig3_g721.run(fast=True)
        spm = result["spm"]
        cache = result["cache"]
        # SPM: sim and WCET decrease together (parallel curves).
        assert spm[-1]["sim_cycles"] < spm[0]["sim_cycles"]
        assert spm[-1]["wcet_cycles"] < spm[0]["wcet_cycles"]
        # Cache: sim drops sharply; WCET stays within a small factor of
        # its small-cache level ("stays at a very high level").
        assert cache[-1]["sim_cycles"] < cache[0]["sim_cycles"] / 2
        assert cache[-1]["wcet_cycles"] > cache[0]["wcet_cycles"] / 2

    def test_fig4_ratio_shapes(self):
        result = fig4_ratio_g721.run(fast=True)
        rows = result["rows"]
        spm_ratios = [r["spm_ratio"] for r in rows]
        cache_ratios = [r["cache_ratio"] for r in rows]
        # Paper: SPM ratio roughly constant; cache ratio grows.
        assert max(spm_ratios) / min(spm_ratios) < 1.25
        assert cache_ratios[-1] > cache_ratios[0] * 2
        assert all(c > s for s, c in zip(spm_ratios, cache_ratios))

    def test_fig5_multisort_ratios(self):
        result = fig5_ratio_multisort.run(fast=True)
        rows = result["rows"]
        spm_ratios = [r["spm_ratio"] for r in rows]
        assert max(spm_ratios) / min(spm_ratios) < 1.25
        assert rows[-1]["cache_ratio"] > rows[0]["cache_ratio"]

    def test_fig6_adpcm_small_cache_degradation(self):
        result = fig6_adpcm.run(fast=True)
        spm = result["spm"]
        cache = result["cache"]
        # Small cache much slower than small SPM in absolute terms.
        assert cache[0]["sim_cycles"] > 1.5 * spm[0]["sim_cycles"]
        # ADPCM deviation low on SPM (mostly critical path).
        assert all(r["ratio"] < 1.5 for r in spm)
        # Cache WCET does not follow the average case.
        assert cache[-1]["ratio"] > 2 * spm[-1]["ratio"]

    def test_worstcase_sort_tight(self):
        row = xtra_worstcase_sort.run()["rows"][0]
        # Paper: WCET and simulation differ by a small percentage.
        assert 0 <= row["gap_percent"] < 3.0
        assert row["wcet_cycles"] >= row["sim_cycles"]


class TestAblations:
    def test_icache_ratio_beats_unified(self):
        result = ablation_cacheconfig.run(fast=True)
        for row in result["rows"]:
            assert row["icache_dm_ratio"] <= row["unified_dm_ratio"]

    def test_persistence_tightens_but_spm_wins(self):
        result = ablation_persistence.run(fast=True)
        for row in result["rows"]:
            assert row["cache_wcet_persist"] <= row["cache_wcet_must"]
            assert row["spm_wcet"] < row["cache_wcet_persist"]

    def test_wcet_driven_allocation_not_worse(self):
        result = ablation_wcet_alloc.run(fast=True)
        for row in result["rows"]:
            # The WCET-driven knapsack targets the bound directly; it
            # should never lose badly to the energy objective.
            assert row["wcet_wcet_alloc"] <= row["wcet_energy_alloc"] * 1.05
