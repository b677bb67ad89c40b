"""Tests for simulation statistics and result containers."""

import pytest

from repro.analysis.metrics import speedups
from repro.pipeline.stats import SimStats, SimulationResult


def _stats(**kwargs) -> SimStats:
    stats = SimStats()
    for key, value in kwargs.items():
        setattr(stats, key, value)
    return stats


class TestSimStats:
    def test_ipc(self):
        assert _stats(cycles=100, committed_uops=250).ipc == 2.5
        assert SimStats().ipc == 0.0

    def test_offload_ratios(self):
        stats = _stats(
            committed_uops=100,
            early_executed=20,
            late_executed_alu=10,
            late_resolved_branches=5,
        )
        assert stats.early_executed_ratio == pytest.approx(0.20)
        assert stats.late_executed_ratio == pytest.approx(0.15)
        assert stats.offload_ratio == pytest.approx(0.35)

    def test_prediction_ratio_and_mpki(self):
        stats = _stats(committed_uops=1000, predictions_used=300, branch_mispredictions=5)
        assert stats.prediction_used_ratio == pytest.approx(0.3)

    def test_delta_subtracts_counterwise(self):
        early = _stats(cycles=100, committed_uops=200, early_executed=50)
        late = _stats(cycles=300, committed_uops=900, early_executed=80)
        window = late.delta(early)
        assert window.cycles == 200
        assert window.committed_uops == 700
        assert window.early_executed == 30

    def test_copy_is_independent(self):
        stats = _stats(cycles=10)
        clone = stats.copy()
        clone.cycles = 99
        assert stats.cycles == 10

    def test_empty_ratios_are_zero(self):
        stats = SimStats()
        assert stats.offload_ratio == 0.0


class TestSimulationResult:
    def _result(self, ipc: float, name: str = "cfg") -> SimulationResult:
        stats = _stats(cycles=1000, committed_uops=int(ipc * 1000))
        return SimulationResult(
            config_name=name, workload_name="wl", stats=stats, full_stats=stats
        )

    def test_ipc_and_speedup(self):
        fast = self._result(2.0)
        slow = self._result(1.0)
        assert fast.ipc == pytest.approx(2.0)
        assert speedups({"w": fast.ipc}, {"w": slow.ipc}) == {"w": pytest.approx(2.0)}

    def test_speedup_over_zero_baseline(self):
        assert speedups({"w": self._result(2.0).ipc}, {"w": self._result(0.0).ipc}) == {}

    def test_summary_mentions_key_fields(self):
        text = self._result(1.5, name="EOLE_4_64").summary()
        assert "EOLE_4_64" in text and "IPC=1.500" in text
