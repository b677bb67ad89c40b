"""Tests for the experiment runner and its result cache."""

from repro.analysis.runner import (
    ResultCache,
    default_max_uops,
    default_warmup_uops,
    run_suite,
    run_workload,
    suite_ipcs,
)
from repro.pipeline.config import PipelineConfig
from repro.workloads.suite import workload


def _fast_config(name="runner_test", **kw) -> PipelineConfig:
    return PipelineConfig(name=name, predictor_name="hybrid-small", **kw)


class TestRunner:
    def test_run_workload_produces_result(self):
        result = run_workload(
            _fast_config(), workload("crafty"), max_uops=600, warmup_uops=100, cache=None
        )
        assert result.stats.committed_uops == 500
        assert result.workload_name == "crafty"

    def test_cache_avoids_rerunning(self):
        cache = ResultCache()
        config = _fast_config()
        first = run_workload(config, workload("gcc"), max_uops=500, warmup_uops=0, cache=cache)
        second = run_workload(config, workload("gcc"), max_uops=500, warmup_uops=0, cache=cache)
        assert first is second
        assert len(cache) == 1

    def test_cache_keyed_by_run_length(self):
        cache = ResultCache()
        config = _fast_config()
        run_workload(config, workload("gcc"), max_uops=400, warmup_uops=0, cache=cache)
        run_workload(config, workload("gcc"), max_uops=500, warmup_uops=0, cache=cache)
        assert len(cache) == 2

    def test_cache_clear(self):
        cache = ResultCache()
        run_workload(_fast_config(), workload("gcc"), max_uops=400, warmup_uops=0, cache=cache)
        cache.clear()
        assert len(cache) == 0

    def test_run_suite_over_selected_workloads(self):
        selected = [workload("mcf"), workload("namd")]
        results = run_suite(_fast_config(), selected, max_uops=400, warmup_uops=0, cache=None)
        assert set(results) == {"mcf", "namd"}
        ipcs = suite_ipcs(results)
        assert all(ipc > 0 for ipc in ipcs.values())

    def test_defaults_read_environment(self, monkeypatch):
        monkeypatch.setenv("REPRO_SIM_UOPS", "777")
        monkeypatch.setenv("REPRO_SIM_WARMUP", "111")
        assert default_max_uops() == 777
        assert default_warmup_uops() == 111

    def test_single_cell_progress_matches_campaign_output(self, monkeypatch, capsys):
        """REPRO_PROGRESS on a single-cell run prints the same running/done/ETA
        lines a campaign grid would — including the announcement with an ETA."""
        monkeypatch.setenv("REPRO_PROGRESS", "1")
        run_workload(
            _fast_config(), workload("gcc"), max_uops=400, warmup_uops=0, cache=None
        )
        err = capsys.readouterr().err
        assert "running" in err and "ETA" in err
        assert "simulated in" in err
        assert "done: 1 simulated, 0 reused" in err

    def test_single_cell_progress_off_is_silent(self, monkeypatch, capsys):
        monkeypatch.delenv("REPRO_PROGRESS", raising=False)
        run_workload(
            _fast_config(), workload("gcc"), max_uops=400, warmup_uops=0, cache=None
        )
        assert capsys.readouterr().err == ""


class TestCustomWorkloads:
    def test_run_suite_simulates_the_object_passed_not_the_registry_twin(self):
        """A caller-supplied Workload sharing a suite name must not be swapped for
        the registry's instance by the campaign routing (which ships cells by name)."""
        from repro.workloads.spec import WorkloadSpec
        from repro.workloads.suite import Workload, workload

        impostor = Workload(WorkloadSpec(name="gcc", paper_benchmark="403.gcc"))
        assert impostor is not workload("gcc")
        custom = run_suite(_fast_config(), [impostor], max_uops=400, warmup_uops=0, cache=None)
        registry = run_suite(
            _fast_config(), [workload("gcc")], max_uops=400, warmup_uops=0, cache=None
        )
        # The impostor's default-knob program behaves differently from real gcc.
        assert custom["gcc"].stats != registry["gcc"].stats
