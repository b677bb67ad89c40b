"""Unified metrics registry: primitives, env switch, simulator drain, round-trip."""

import pytest

from repro.campaign.executor import simulate_cell
from repro.campaign.spec import CampaignCell
from repro.obs.metrics import (
    METRICS_ENV_VAR,
    Counter,
    Histogram,
    MetricsRegistry,
    maybe_sim_metrics,
    metrics_enabled,
    metrics_report,
)
from repro.pipeline.config import named_config
from repro.pipeline.stats import SimulationResult
from repro.trace.cache import shared_trace_cache


@pytest.fixture(autouse=True)
def _clean_shared_cache():
    yield
    shared_trace_cache.clear()


class TestPrimitives:
    def test_counter(self):
        counter = Counter("squash.cause.value_mispred")
        counter.inc()
        counter.inc(4)
        assert counter.value == 5

    def test_histogram_exact_buckets(self):
        hist = Histogram("iq.occupancy")
        for value in (3, 3, 5):
            hist.record(value)
        assert hist.to_dict() == {
            "count": 3,
            "sum": 11,
            "mean": 11 / 3,
            "buckets": {"3": 2, "5": 1},
        }

    def test_histogram_power_of_two_buckets(self):
        hist = Histogram("scheduler.skip_distance", power_of_two=True)
        for value in (0, 1, 2, 3, 5, 9):
            hist.record(value)
        assert hist.to_dict()["buckets"] == {"0": 1, "1": 1, "2": 2, "4": 1, "8": 1}

    def test_registry_create_or_return(self):
        registry = MetricsRegistry()
        assert registry.counter("a") is registry.counter("a")
        assert registry.histogram("h") is registry.histogram("h")
        registry.counter("a").inc()
        assert registry.to_dict()["counters"] == {"a": 1}


class TestEnvironmentSwitch:
    def test_disabled_by_default(self, monkeypatch):
        monkeypatch.delenv(METRICS_ENV_VAR, raising=False)
        assert not metrics_enabled()
        assert maybe_sim_metrics() is None

    def test_enabled_builds_a_registry(self, monkeypatch):
        monkeypatch.setenv(METRICS_ENV_VAR, "1")
        assert isinstance(maybe_sim_metrics(), MetricsRegistry)


def _metered_result(monkeypatch) -> SimulationResult:
    monkeypatch.setenv(METRICS_ENV_VAR, "1")
    cell = CampaignCell(
        config=named_config("EOLE_4_64"),
        workload_name="gcc",
        max_uops=1500,
        warmup_uops=300,
    )
    return simulate_cell(cell)


class TestSimulatorDrain:
    def test_payload_rides_in_result_extra(self, monkeypatch):
        result = _metered_result(monkeypatch)
        payload = result.extra["metrics"]
        scalars = payload["scalars"]
        assert scalars["sim.committed_uops"] == result.full_stats.committed_uops
        assert scalars["sim.ipc"] == pytest.approx(result.full_stats.ipc)
        assert "vp.coverage" in scalars
        assert "bpu.tage.misprediction_rate" in scalars
        assert "cache.l1d.hit_rate" in scalars
        assert "dram.reads" in scalars
        assert "iq.peak_occupancy" in scalars

    def test_registered_histograms_present(self, monkeypatch):
        payload = _metered_result(monkeypatch).extra["metrics"]
        histograms = payload["histograms"]
        assert "iq.occupancy" in histograms
        assert "iq.wakeup_list_depth" in histograms
        assert "scheduler.skip_distance" in histograms
        assert histograms["iq.occupancy"]["count"] > 0

    def test_no_payload_when_disabled(self, monkeypatch):
        monkeypatch.delenv(METRICS_ENV_VAR, raising=False)
        cell = CampaignCell(
            config=named_config("EOLE_4_64"),
            workload_name="gcc",
            max_uops=800,
            warmup_uops=0,
        )
        assert "metrics" not in simulate_cell(cell).extra

    def test_value_predictor_scalars_are_pinned(self, monkeypatch):
        # Every ``vp.*`` scalar of one VP cell, the per-predictor component key
        # included: predictor refactors must leave this payload byte-identical.
        monkeypatch.setenv(METRICS_ENV_VAR, "1")
        cell = CampaignCell(
            config=named_config("EOLE_4_64"),
            workload_name="gcc",
            max_uops=2000,
            warmup_uops=500,
        )
        scalars = simulate_cell(cell).extra["metrics"]["scalars"]
        assert {k: v for k, v in scalars.items() if k.startswith("vp.")} == {
            "vp.lookups": 1581,
            "vp.confident_predictions": 94,
            "vp.correct_used": 75,
            "vp.incorrect_used": 0,
            "vp.unused_correct": 455,
            "vp.coverage": 94 / 1581,
            "vp.accuracy": 1.0,
            "vp.component.vtage-2dstride": 94,
        }

    def test_round_trips_through_result_dict(self, monkeypatch):
        result = _metered_result(monkeypatch)
        rebuilt = SimulationResult.from_dict(result.to_dict())
        assert rebuilt.extra["metrics"] == result.extra["metrics"]


class TestReport:
    def test_report_renders_every_section(self):
        registry = MetricsRegistry()
        registry.counter("squash.cause.value_mispred").inc(3)
        registry.histogram("iq.occupancy").record(5)
        payload = {"scalars": {"sim.ipc": 1.5}, **registry.to_dict()}
        report = metrics_report(payload)
        assert "scalars" in report and "sim.ipc" in report
        assert "counters" in report and "squash.cause.value_mispred" in report
        assert "histograms" in report and "iq.occupancy" in report
