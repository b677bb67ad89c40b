"""Tests for the per-figure experiment registry (run on a small, fast subset)."""

import pytest

from repro.analysis.experiments import (
    EXPERIMENTS,
    ablation_fpc_vector,
    fig2_early_execution_share,
    fig4_late_execution_share,
    fig6_vp_speedup,
    fig7_issue_width,
    table3_baseline_ipc,
)
from repro.analysis.report import format_table
from repro.workloads.suite import workload

#: Two contrasting workloads keep these end-to-end experiment tests quick.
SUBSET = None
UOPS = 12000
WARMUP = 4000


@pytest.fixture(scope="module")
def subset():
    return [workload("bzip2"), workload("hmmer")]


class TestExperimentRegistry:
    def test_registry_covers_every_table_and_figure(self):
        expected = {
            "fig2_early_exec_share",
            "fig4_late_exec_share",
            "table3_baseline_ipc",
            "fig6_vp_speedup",
            "fig7_issue_width",
            "fig8_iq_size",
            "fig10_prf_banks",
            "fig11_levt_ports",
            "fig12_overall",
            "fig13_variants",
            "ablation_fpc",
        }
        assert expected <= set(EXPERIMENTS)


class TestSelectedExperiments:
    def test_fig2_reports_per_depth_ratios(self, subset):
        result = fig2_early_execution_share(subset, UOPS, WARMUP, depths=(1, 2))
        assert len(result.series) == 2
        for series in result.series:
            for value in series.values.values():
                assert 0.0 <= value <= 1.0
        one, two = result.series
        for name in one.values:
            assert two.values[name] >= one.values[name] - 1e-9

    def test_fig4_series_are_disjoint_shares(self, subset):
        result = fig4_late_execution_share(subset, UOPS, WARMUP)
        branches = result.series_by_label("High-confidence branches")
        values = result.series_by_label("Value-predicted")
        for name in branches.values:
            assert 0.0 <= branches.values[name] + values.values[name] <= 1.0

    def test_table3_reports_measured_and_paper_ipc(self, subset):
        result = table3_baseline_ipc(subset, UOPS, WARMUP)
        measured = result.series_by_label("Measured IPC")
        paper = result.series_by_label("Paper IPC")
        assert all(value > 0 for value in measured.values.values())
        assert paper.values["hmmer"] == pytest.approx(2.477)

    def test_fig6_vp_speedup_on_predictable_workload(self, subset):
        result = fig6_vp_speedup(subset, UOPS, WARMUP)
        series = result.series[0]
        assert series.values["bzip2"] > 1.05
        assert series.values["hmmer"] > 0.9

    def test_fig7_shapes(self, subset):
        result = fig7_issue_width(subset, UOPS, WARMUP)
        eole4 = result.series_by_label("EOLE_4_64")
        vp4 = result.series_by_label("Baseline_VP_4_64")
        for name in eole4.values:
            assert eole4.values[name] >= vp4.values[name] - 0.05

    def test_results_render_as_tables(self, subset):
        result = fig6_vp_speedup(subset, UOPS, WARMUP)
        text = format_table(result)
        assert "bzip2" in text and "geomean" in text

    def test_fpc_ablation_accuracy_ordering(self, subset):
        result = ablation_fpc_vector(subset, max_uops=4000)
        fpc_accuracy = result.series_by_label("FPC accuracy")
        det_coverage = result.series_by_label("3-bit coverage")
        fpc_coverage = result.series_by_label("FPC coverage")
        for name in fpc_accuracy.values:
            assert fpc_accuracy.values[name] > 0.98
            # The deterministic counters trade accuracy for coverage.
            assert det_coverage.values[name] >= fpc_coverage.values[name] - 1e-9
