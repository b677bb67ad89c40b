"""Tests for the experiment runner and its in-process result memo."""

from repro.analysis.runner import (
    default_max_uops,
    default_warmup_uops,
    run_suite,
    run_workload,
    suite_ipcs,
)
from repro.campaign.executor import simulate_cell
from repro.campaign.spec import CampaignCell
from repro.campaign.store import ResultStore
from repro.pipeline.config import PipelineConfig, baseline_6_64
from repro.workloads.spec import WorkloadSpec
from repro.workloads.suite import Workload, workload


def _fast_config(name="runner_test", **kw) -> PipelineConfig:
    return PipelineConfig(name=name, predictor_name="hybrid-small", **kw)


class TestRunner:
    def test_run_workload_produces_result(self):
        result = run_workload(
            _fast_config(), workload("crafty"), 600, 100, store=ResultStore(None)
        )
        assert result.stats.committed_uops == 500
        assert result.workload_name == "crafty"

    def test_cache_avoids_rerunning(self, monkeypatch):
        import repro.campaign.executor as executor

        simulated = []
        real = executor.simulate_cell
        monkeypatch.setattr(
            executor,
            "simulate_cell",
            lambda cell, wl=None: simulated.append(cell) or real(cell, wl),
        )
        memo = ResultStore(None)
        config = _fast_config()
        first = run_workload(config, workload("gcc"), max_uops=500, warmup_uops=0, store=memo)
        second = run_workload(config, workload("gcc"), max_uops=500, warmup_uops=0, store=memo)
        assert len(simulated) == 1
        assert second.stats == first.stats and second.ipc == first.ipc
        assert len(memo) == 1

    def test_cache_keyed_by_run_length(self):
        memo = ResultStore(None)
        config = _fast_config()
        run_workload(config, workload("gcc"), max_uops=400, warmup_uops=0, store=memo)
        run_workload(config, workload("gcc"), max_uops=500, warmup_uops=0, store=memo)
        assert len(memo) == 2

    def test_a_machine_sharing_its_name_is_not_served_the_others_result(self):
        """The default memo keys a cell by its fingerprint, not the config's name:
        a 2-wide derivative that keeps the name ``Baseline_6_64`` gets its own IPC."""
        wide = baseline_6_64()
        narrow = wide.derive(issue_width=2, fetch_width=2, commit_width=2, rename_width=2)
        assert narrow.name == wide.name
        first = run_workload(wide, workload("gcc"), 3000, 1000)
        second = run_workload(narrow, workload("gcc"), 3000, 1000)
        assert second.ipc == simulate_cell(CampaignCell(narrow, "gcc", 3000, 1000)).ipc
        assert second.ipc != first.ipc

    def test_run_suite_over_selected_workloads(self):
        selected = [workload("mcf"), workload("namd")]
        results = run_suite(_fast_config(), selected, 400, 0, store=ResultStore(None))
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
            _fast_config(), workload("gcc"), 400, 0, store=ResultStore(None)
        )
        err = capsys.readouterr().err
        assert "running" in err and "ETA" in err
        assert "simulated in" in err
        assert "done: 1 simulated, 0 reused" in err

    def test_single_cell_progress_off_is_silent(self, monkeypatch, capsys):
        monkeypatch.delenv("REPRO_PROGRESS", raising=False)
        run_workload(
            _fast_config(), workload("gcc"), 400, 0, store=ResultStore(None)
        )
        assert capsys.readouterr().err == ""


def _impostor() -> Workload:
    """A caller-built workload sharing the suite name ``gcc`` (default-knob program)."""
    return Workload(WorkloadSpec(name="gcc", paper_benchmark="403.gcc"))


class TestCustomWorkloads:
    def test_run_suite_simulates_the_object_passed_not_the_registry_twin(self):
        """A caller-supplied Workload sharing a suite name must not be swapped for
        the registry's instance by the campaign routing (which ships cells by name)."""
        impostor = _impostor()
        assert impostor is not workload("gcc")
        custom = run_suite(_fast_config(), [impostor], 400, 0, store=ResultStore(None))
        registry = run_suite(
            _fast_config(), [workload("gcc")], max_uops=400, warmup_uops=0, store=ResultStore(None)
        )
        # The impostor's default-knob program behaves differently from real gcc.
        assert custom["gcc"].stats != registry["gcc"].stats

    def test_an_impostor_is_not_served_its_twins_cache_entry(self):
        """The result cache keys cells by suite name, so an ad-hoc workload must
        bypass it: the suite gcc's entry is not the impostor's result."""
        config = _fast_config("runner_impostor_cache")
        registry = run_workload(config, workload("gcc"), max_uops=400, warmup_uops=0)
        custom = run_workload(config, _impostor(), max_uops=400, warmup_uops=0)
        assert custom.stats != registry.stats

    def test_an_impostor_writes_no_row_its_twin_would_be_served(self, tmp_path):
        """The store keys cells by suite name too: after an impostor ran with
        ``store=``, a fresh store over the same file must still simulate gcc."""
        config = _fast_config()
        store = ResultStore(tmp_path / "s.jsonl")
        custom = run_workload(config, _impostor(), 400, 0, store=store)
        reopened = ResultStore(store.path)
        registry = run_workload(config, workload("gcc"), 400, 0, store=reopened)
        assert registry.stats != custom.stats
        assert [row["workload"] for row in ResultStore(store.path).records()] == ["gcc"]
