"""Tests for the campaign executor: parity with the serial path, resume, local fleets."""

import json
import os
import time

import pytest

from repro.analysis.runner import run_grid, run_suite, run_workload
from repro.campaign.executor import (
    CellFailed,
    campaign_status,
    default_workers,
    run_campaign,
    simulate_cell,
)
from repro.campaign.spec import Campaign, CampaignCell
from repro.campaign.store import ResultStore
from repro.pipeline.config import PipelineConfig, baseline_6_64
from repro.workloads.spec import WorkloadSpec
from repro.workloads.suite import Workload, workload

UOPS, WARMUP = 500, 100


def _fast_config(name, **kw) -> PipelineConfig:
    return PipelineConfig(name=name, predictor_name="hybrid-small", **kw)


def _ipcs(outcome) -> dict[tuple[str, str], float]:
    """Per-cell IPC of a campaign outcome, in its cell order."""
    return {key: result.ipc for key, result in outcome.results.items()}


def _campaign(workloads=("gcc", "mcf"), seed=None) -> Campaign:
    return Campaign(
        name="test",
        configs=(_fast_config("CfgA"), _fast_config("CfgB", value_prediction=True)),
        workload_names=tuple(workloads),
        max_uops=UOPS,
        warmup_uops=WARMUP,
        seed=seed,
    )


def _same_name_pair() -> tuple[PipelineConfig, PipelineConfig]:
    """``Baseline_6_64`` and a 2-wide derivative that keeps its name."""
    wide = baseline_6_64()
    return wide, wide.derive(issue_width=2, fetch_width=2, commit_width=2, rename_width=2)


def _pair_campaign(config: PipelineConfig) -> Campaign:
    return Campaign(
        name="pair",
        configs=(config,),
        workload_names=("gcc",),
        max_uops=3000,
        warmup_uops=1000,
    )


def _fresh_ipc(config: PipelineConfig) -> float:
    return simulate_cell(CampaignCell(config, "gcc", 3000, 1000)).ipc


class TestRunCampaign:
    def test_serial_run_covers_the_grid(self, tmp_path):
        campaign = _campaign()
        outcome = run_campaign(campaign, store=ResultStore(tmp_path / "s.jsonl"), workers=1)
        assert set(outcome.results) == {
            ("CfgA", "gcc"), ("CfgA", "mcf"), ("CfgB", "gcc"), ("CfgB", "mcf"),
        }
        assert outcome.simulated == 4
        assert all(result.ipc > 0 for result in outcome.results.values())

    def test_resumed_campaign_runs_zero_cells(self, tmp_path):
        campaign = _campaign()
        store_path = tmp_path / "s.jsonl"
        first = run_campaign(campaign, store=ResultStore(store_path), workers=1)
        second = run_campaign(campaign, store=ResultStore(store_path), workers=1)
        assert first.simulated == 4
        assert second.simulated == 0
        assert second.from_store == 4
        assert _ipcs(second) == _ipcs(first)

    def test_interrupted_campaign_resumes_only_missing_cells(self, tmp_path):
        campaign = _campaign()
        store = ResultStore(tmp_path / "s.jsonl")
        run_campaign(campaign, store=store, workers=1)
        store.invalidate(workload="mcf")
        assert campaign_status(campaign, store)["missing"] == 2
        resumed = run_campaign(campaign, store=store, workers=1)
        assert resumed.simulated == 2
        assert campaign_status(campaign, store)["missing"] == 0

    def test_in_memory_cache_short_circuits_the_store(self, tmp_path):
        """A store with no file serves a repeated campaign and writes nothing."""
        campaign = _campaign(workloads=("gcc",))
        memo = ResultStore(None)
        first = run_campaign(campaign, store=memo, workers=1)
        second = run_campaign(campaign, store=memo, workers=1)
        assert first.simulated == 2 and second.simulated == 0
        assert second.from_store == 2
        assert _ipcs(second) == _ipcs(first)
        assert list(tmp_path.iterdir()) == []

    def test_sharded_run_matches_serial_ipcs(self, tmp_path):
        campaign = _campaign()
        sharded = run_campaign(
            campaign, store=ResultStore(tmp_path / "s.jsonl"), workers=2
        )
        serial = run_campaign(_campaign(), store=None, workers=1)
        assert sharded.simulated == 4
        assert _ipcs(sharded) == _ipcs(serial)

    def test_sharded_run_matches_run_suite(self, tmp_path):
        """Acceptance: campaign IPCs are identical to the serial run_suite path."""
        from repro.workloads.suite import workload

        campaign = _campaign()
        outcome = run_campaign(campaign, store=ResultStore(tmp_path / "s.jsonl"), workers=2)
        for config in campaign.configs:
            expected = run_suite(
                config,
                [workload(name) for name in campaign.workload_names],
                UOPS,
                WARMUP,
                store=ResultStore(None),
            )
            for name, result in expected.items():
                assert outcome.results[(config.name, name)].ipc == result.ipc
                assert outcome.results[(config.name, name)].stats == result.stats

    def test_seeded_campaign_does_not_reuse_unseeded_cache_entries(self):
        memo = ResultStore(None)
        unseeded = run_campaign(_campaign(workloads=("gcc",)), store=memo, workers=1)
        seeded = run_campaign(_campaign(workloads=("gcc",), seed=7), store=memo, workers=1)
        assert unseeded.simulated == 2
        assert seeded.simulated == 2  # different predictor seeds → no store hits
        assert seeded.from_store == 0

    def test_same_name_machines_sharing_a_memo_get_their_own_results(self):
        """Two campaigns over one file-less store: a 2-wide machine that keeps the
        name ``Baseline_6_64`` is simulated, not served the 6-wide result."""
        wide, narrow = _same_name_pair()
        memo = ResultStore(None)
        first = run_campaign(_pair_campaign(wide), store=memo, workers=1)
        second = run_campaign(_pair_campaign(narrow), store=memo, workers=1)
        assert second.simulated == 1 and second.from_store == 0
        assert _ipcs(second) == {("Baseline_6_64", "gcc"): _fresh_ipc(narrow)}
        assert _ipcs(second) != _ipcs(first)

    def test_same_name_machines_through_run_grid_get_their_own_results(self):
        """Two library grids with no store of their own share the process memo."""
        wide, narrow = _same_name_pair()
        first = run_grid([wide], [workload("gcc")], 3000, 1000)
        second = run_grid([narrow], [workload("gcc")], 3000, 1000)
        assert second["Baseline_6_64"]["gcc"].ipc == _fresh_ipc(narrow)
        assert second["Baseline_6_64"]["gcc"].ipc != first["Baseline_6_64"]["gcc"].ipc

    def test_campaign_seed_is_deterministic_across_runs(self):
        seeded_a = run_campaign(_campaign(workloads=("gcc",), seed=3), workers=1)
        seeded_b = run_campaign(_campaign(workloads=("gcc",), seed=3), workers=1)
        assert _ipcs(seeded_a) == _ipcs(seeded_b)
        cells = _campaign(workloads=("gcc",), seed=3).cells()
        assert {cell.config.predictor_seed for cell in cells} != {
            cell.config.predictor_seed for cell in _campaign(workloads=("gcc",)).cells()
        }


class TestTraceWorkingSet:
    """A serial grid holds one workload's traces at a time."""

    @staticmethod
    def _run_grid(monkeypatch):
        """Run a cold 3 x 3 serial grid and check it held at most one entry at every
        cell, captured each workload once, loaded nothing and left no entry."""
        import repro.campaign.executor as executor
        from repro.trace.cache import shared_trace_cache

        campaign = Campaign(
            name="working-set",
            configs=(
                _fast_config("CfgA"),
                _fast_config("CfgB", value_prediction=True),
                _fast_config("CfgC", value_prediction=True, issue_width=4),
            ),
            workload_names=("gcc", "mcf", "namd"),
            max_uops=UOPS,
            warmup_uops=WARMUP,
        )
        real = executor.simulate_cell
        held = []

        def counting(cell, wl=None):
            held.append(len(shared_trace_cache))
            result = real(cell, wl)
            held.append(len(shared_trace_cache))
            return result

        monkeypatch.setattr(executor, "simulate_cell", counting)
        shared_trace_cache.clear()
        captures, store_hits = shared_trace_cache.captures, shared_trace_cache.store_hits
        try:
            outcome = run_campaign(campaign, store=ResultStore(None), workers=1)
            remaining = len(shared_trace_cache)
        finally:
            shared_trace_cache.clear()
        assert outcome.simulated == 9 and not outcome.failed
        assert len(held) == 18 and max(held) <= 1
        assert shared_trace_cache.captures - captures == 3
        assert shared_trace_cache.store_hits == store_hits
        assert remaining == 0
        return campaign, outcome

    def test_a_cold_serial_grid_holds_one_workload_at_a_time(self, monkeypatch):
        campaign, outcome = self._run_grid(monkeypatch)
        grid = outcome.by_config()
        assert list(grid) == ["CfgA", "CfgB", "CfgC"]
        assert all(list(row) == ["gcc", "mcf", "namd"] for row in grid.values())
        assert list(_ipcs(outcome)) == [
            (cell.config.name, cell.workload_name) for cell in campaign.cells()
        ]

    def test_a_store_backed_serial_grid_holds_one_workload_at_a_time(
        self, monkeypatch, tmp_path
    ):
        from repro.trace.store import TRACE_STORE_ENV_VAR

        monkeypatch.setenv(TRACE_STORE_ENV_VAR, str(tmp_path / "traces"))
        self._run_grid(monkeypatch)


class TestWorkers:
    def test_default_workers_reads_environment(self, monkeypatch):
        monkeypatch.setenv("REPRO_CAMPAIGN_WORKERS", "3")
        assert default_workers() == 3

    def test_default_workers_falls_back_to_cpu_count(self, monkeypatch):
        """The ``run`` command falls back to every core."""
        import os

        from repro.campaign.cli import build_parser

        monkeypatch.delenv("REPRO_CAMPAIGN_WORKERS", raising=False)
        args = build_parser().parse_args(["run", "--configs", "Baseline_6_64"])
        assert args.workers == (os.cpu_count() or 1)

    def test_library_default_is_serial(self, monkeypatch):
        """``run_campaign(workers=None)`` is serial unless the environment says
        otherwise (it used to mean every core)."""
        monkeypatch.delenv("REPRO_CAMPAIGN_WORKERS", raising=False)
        assert default_workers() == 1


class TestStatus:
    def test_status_without_store(self):
        campaign = _campaign()
        status = campaign_status(campaign, None)
        assert status["total"] == status["missing"] == 4
        assert "CfgA/gcc" in status["missing_cells"]


class TestFailureHandling:
    """A raising cell must cost only itself: failure row, grid continues, resume retries."""

    @staticmethod
    def _explode_on_mcf(monkeypatch):
        import repro.campaign.executor as executor

        real = executor.simulate_cell

        def explode(cell, wl=None):
            if cell.workload_name == "mcf":
                raise RuntimeError("injected fault")
            return real(cell, wl)

        monkeypatch.setattr(executor, "simulate_cell", explode)
        return real

    def test_raising_cell_is_recorded_and_the_grid_continues(self, tmp_path, monkeypatch):
        self._explode_on_mcf(monkeypatch)
        campaign = _campaign()
        store = ResultStore(tmp_path / "s.jsonl")
        outcome = run_campaign(campaign, store=store, workers=1)
        assert set(outcome.failed) == {("CfgA", "mcf"), ("CfgB", "mcf")}
        assert set(outcome.results) == {("CfgA", "gcc"), ("CfgB", "gcc")}
        assert outcome.failures == 2 and outcome.simulated == 2
        for cell in campaign.cells():
            if cell.workload_name == "mcf":
                assert cell.fingerprint not in store
                failure = store.get_failure(cell.fingerprint)
                assert failure["error"]["type"] == "RuntimeError"
                assert "injected fault" in failure["error"]["traceback"]
            else:
                assert cell.fingerprint in store

    def test_resume_retries_failed_cells_and_success_supersedes(self, tmp_path, monkeypatch):
        real = self._explode_on_mcf(monkeypatch)
        campaign = _campaign()
        store = ResultStore(tmp_path / "s.jsonl")
        run_campaign(campaign, store=store, workers=1)

        import repro.campaign.executor as executor

        monkeypatch.setattr(executor, "simulate_cell", real)
        resumed = run_campaign(campaign, store=ResultStore(store.path), workers=1)
        assert not resumed.failed
        assert resumed.simulated == 2  # only the two mcf cells re-ran
        assert resumed.from_store == 2
        reloaded = ResultStore(store.path)
        for cell in campaign.cells():
            assert cell.fingerprint in reloaded
            assert reloaded.get_failure(cell.fingerprint) is None  # superseded

    def test_sharded_run_survives_a_raising_cell(self, tmp_path, monkeypatch):
        # Local fleet workers are forked after the patch, so the injected fault
        # reaches them too; the mcf lease is retried with backoff, then failed.
        self._explode_on_mcf(monkeypatch)
        outcome = run_campaign(
            _campaign(), store=ResultStore(tmp_path / "s.jsonl"), workers=2
        )
        assert set(outcome.failed) == {("CfgA", "mcf"), ("CfgB", "mcf")}
        assert set(outcome.results) == {("CfgA", "gcc"), ("CfgB", "gcc")}

    def test_run_workload_raises_cell_failed_and_leaves_a_failure_row(
        self, tmp_path, monkeypatch
    ):
        self._explode_on_mcf(monkeypatch)
        store = ResultStore(tmp_path / "s.jsonl")
        with pytest.raises(CellFailed) as raised:
            run_workload(_fast_config("CfgA"), workload("mcf"), UOPS, WARMUP, store=store)
        assert list(raised.value.failed) == [("CfgA", "mcf")]
        [row] = ResultStore(store.path).failures()
        assert row["workload"] == "mcf" and row["error"]["type"] == "RuntimeError"

    @pytest.mark.parametrize("workers", [1, 2], ids=["serial", "fleet"])
    def test_run_grid_finishes_the_grid_then_raises_cell_failed(
        self, tmp_path, monkeypatch, workers
    ):
        self._explode_on_mcf(monkeypatch)
        campaign = _campaign()
        store = ResultStore(tmp_path / "s.jsonl")
        with pytest.raises(CellFailed) as raised:
            run_grid(
                campaign.configs, [workload("gcc"), workload("mcf")], UOPS, WARMUP,
                store=store, workers=workers,
            )
        assert set(raised.value.failed) == {("CfgA", "mcf"), ("CfgB", "mcf")}
        assert "CfgA/mcf (RuntimeError: injected fault)" in str(raised.value)
        reloaded = ResultStore(store.path)
        for cell in campaign.cells():
            if cell.workload_name == "gcc":
                assert cell.fingerprint in reloaded
            else:
                assert reloaded.get_failure(cell.fingerprint)["error"]["type"] == "RuntimeError"

    def test_an_ad_hoc_grid_runs_every_cell_before_raising(self, monkeypatch, capsys):
        self._explode_on_mcf(monkeypatch)
        ad_hoc = [
            Workload(WorkloadSpec(name=name, paper_benchmark=name)) for name in ("mcf", "gcc")
        ]
        with pytest.raises(CellFailed) as raised:
            run_grid([_fast_config("CfgA")], ad_hoc, UOPS, WARMUP, progress=True)
        assert list(raised.value.failed) == [("CfgA", "mcf")]
        err = capsys.readouterr().err
        assert "CfgA/mcf FAILED: RuntimeError: injected fault" in err
        assert "CfgA/gcc simulated in" in err

    def test_failure_payload_shape(self):
        from repro.campaign.executor import failure_payload

        try:
            raise ValueError("boom")
        except ValueError as error:
            payload = failure_payload(error, worker="w1", attempts=2)
        assert payload["type"] == "ValueError"
        assert payload["message"] == "boom"
        assert payload["worker"] == "w1" and payload["attempts"] == 2
        assert "ValueError: boom" in payload["traceback"]


class TestLocalFleet:
    """``workers > 1`` leases the grid to forked ``work_loop`` processes."""

    @staticmethod
    def _result_json(outcome, cell) -> str:
        return json.dumps(
            outcome.results[(cell.config.name, cell.workload_name)].to_dict(),
            sort_keys=True,
        )

    def test_one_workload_grid_keeps_both_workers_busy(self, tmp_path):
        campaign = Campaign(
            name="row",
            configs=tuple(
                _fast_config(name, value_prediction=True) for name in ("A", "B", "C", "D")
            ),
            workload_names=("gcc",),
            max_uops=UOPS,
            warmup_uops=WARMUP,
        )
        store = ResultStore(tmp_path / "s.jsonl")
        outcome = run_campaign(campaign, store=store, workers=2)
        assert outcome.simulated == 4 and not outcome.failed
        workers = {record["telemetry"]["worker"] for record in store.records()}
        assert len(workers) == 2

    def test_a_worker_dying_mid_lease_is_taken_over(self, tmp_path, monkeypatch):
        import repro.campaign.coordinator as coordinator

        marker = tmp_path / "died"
        real = coordinator.process_lease

        def die_once(*args, **kwargs):
            try:
                os.close(os.open(marker, os.O_CREAT | os.O_EXCL))
            except FileExistsError:
                return real(*args, **kwargs)
            os._exit(1)  # the first lease claimed dies with its worker

        monkeypatch.setattr(coordinator, "LOCAL_LEASE_SECONDS", 1.0)
        monkeypatch.setattr(coordinator, "process_lease", die_once)
        outcome = run_campaign(_campaign(), store=ResultStore(tmp_path / "s.jsonl"), workers=2)
        assert marker.exists()
        assert outcome.simulated == 4 and not outcome.failed
        serial = run_campaign(_campaign(), store=None, workers=1)
        for cell in _campaign().cells():
            assert self._result_json(outcome, cell) == self._result_json(serial, cell)

    def test_every_worker_dying_fails_the_missing_cells(self, tmp_path, monkeypatch):
        import repro.campaign.coordinator as coordinator

        monkeypatch.setattr(coordinator, "process_lease", lambda *args: os._exit(1))
        store = ResultStore(tmp_path / "s.jsonl")
        started = time.monotonic()
        outcome = run_campaign(_campaign(), store=store, workers=2)
        assert time.monotonic() - started < 30
        assert not outcome.results
        assert set(outcome.failed) == {
            ("CfgA", "gcc"), ("CfgA", "mcf"), ("CfgB", "gcc"), ("CfgB", "mcf"),
        }
        for cell in _campaign().cells():
            assert store.get_failure(cell.fingerprint)["error"]["type"] == "CoordinationError"
