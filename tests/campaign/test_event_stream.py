"""The campaign's one event stream: rows, human lines and fleet-worker events."""

import io
import json
import signal
import threading
import time

import pytest

import repro.campaign.coordinator as coordinator
import repro.campaign.executor as executor
import repro.campaign.progress as progress
from repro.campaign.coordinator import CampaignService, serve, work_loop
from repro.campaign.executor import run_campaign
from repro.campaign.progress import HEARTBEAT_ENV_VAR, ROW_KEYS, ProgressReporter, render_line
from repro.campaign.spec import Campaign, CampaignCell
from repro.pipeline.config import PipelineConfig, baseline_6_64
from repro.trace.cache import shared_trace_cache

UOPS, WARMUP = 500, 100


@pytest.fixture(autouse=True)
def _clean_shared_cache():
    yield
    shared_trace_cache.clear()


def _campaign(workloads=("gcc", "mcf")) -> Campaign:
    return Campaign(
        name="events",
        configs=(
            PipelineConfig(name="CfgA", predictor_name="hybrid-small"),
            PipelineConfig(name="CfgB", predictor_name="hybrid-small", value_prediction=True),
        ),
        workload_names=tuple(workloads),
        max_uops=UOPS,
        warmup_uops=WARMUP,
    )


def _rows(path) -> list[dict]:
    return [json.loads(line) for line in path.read_text().splitlines()]


def _boom(cell, wl=None, trace=None):
    raise ValueError("boom")


class TestHumanLines:
    """Every event's whole line, with the clock patched."""

    def test_cell_and_finish_lines_are_unchanged(self, monkeypatch):
        now = [100.0]
        monkeypatch.setattr(progress.time, "monotonic", lambda: now[0])
        cell = CampaignCell(baseline_6_64(), "mcf", 1000, 0)
        stream = io.StringIO()
        reporter = ProgressReporter(total=4, stream=stream, label="x", workers=2)
        for clock, emit in (
            (101.5, lambda: reporter.cell_started(cell)),
            (104.0, lambda: reporter.cell_done(cell, 2.5, reused=False)),
            (104.5, lambda: reporter.cell_started(cell)),
            (105.0, lambda: reporter.cell_done(cell, 0.0, reused=True)),
            (107.0, lambda: reporter.cell_failed(cell, {"type": "ValueError", "message": "boom"})),
            (107.0, lambda: reporter.cell_failed(cell)),
            (190.0, reporter.finish),
        ):
            now[0] = clock
            emit()
        assert stream.getvalue().splitlines() == [
            "[x] 0/4 (  0%) Baseline_6_64/mcf running — elapsed 1.5s, ETA unknown",
            "[x] 1/4 ( 25%) Baseline_6_64/mcf simulated in 2.5s — elapsed 4.0s, ETA 3.8s",
            "[x] 1/4 ( 25%) Baseline_6_64/mcf running — elapsed 4.5s, ETA 3.8s",
            "[x] 2/4 ( 50%) Baseline_6_64/mcf reused — elapsed 5.0s, ETA 2.5s",
            "[x] 3/4 ( 75%) Baseline_6_64/mcf FAILED: ValueError: boom — elapsed 7.0s",
            "[x] 4/4 (100%) Baseline_6_64/mcf FAILED — elapsed 7.0s",
            "[x] done: 1 simulated, 1 reused, 2 FAILED, 4 cells in 1m30s"
            " (2 workers, 1% utilisation)",
        ]

    def test_serial_finish_line_omits_the_pool(self, monkeypatch):
        monkeypatch.setattr(progress.time, "monotonic", lambda: 5.0)
        stream = io.StringIO()
        reporter = ProgressReporter(total=1, stream=stream, label="y")
        reporter.cell_done(CampaignCell(baseline_6_64(), "mcf", 1000, 0), 0.0, reused=True)
        reporter.finish()
        assert stream.getvalue().splitlines() == [
            "[y] 1/1 (100%) Baseline_6_64/mcf reused — elapsed 0.0s, ETA 0.0s",
            "[y] done: 0 simulated, 1 reused, 1 cells in 0.0s",
        ]

    def test_worker_claim_and_requeue_lines_go_to_stderr(self, tmp_path, monkeypatch, capsys):
        service = CampaignService(tmp_path / "svc")
        service.submit(_campaign(("gcc",)))
        monkeypatch.setattr(executor, "simulate_cell", _boom)
        work_loop(service, worker_id="w", once=True, progress=True)
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [
            "[w] claimed gcc-0 (2 cells, attempt 1)",
            "[w] gcc-0 -> pending: ValueError: boom",
        ]

    def test_worker_interrupt_line(self, tmp_path, monkeypatch, capsys):
        service = CampaignService(tmp_path / "svc")
        service.submit(_campaign(("gcc",)))

        def _killed(service_, lease_, worker_id_, store_):
            signal.raise_signal(signal.SIGTERM)

        monkeypatch.setattr(coordinator, "process_lease", _killed)
        work_loop(service, worker_id="w", progress=True, handle_signals=True)
        assert capsys.readouterr().err.splitlines() == [
            "[w] claimed gcc-0 (2 cells, attempt 1)",
            "[w] interrupted by SIGTERM (lease released)",
        ]


class TestRows:
    def test_one_row_feeds_both_sinks(self, tmp_path):
        log = tmp_path / "events.jsonl"
        stream = io.StringIO()
        reporter = ProgressReporter(total=2, stream=stream, heartbeat_path=str(log))
        cell = CampaignCell(baseline_6_64(), "mcf", 1000, 0)
        reporter.cell_started(cell)
        reporter.cell_done(cell, 1.0, reused=False)
        reporter.cell_failed(cell, {"type": "ValueError", "message": "boom"})
        reporter.emit("lease_claimed", worker="w", lease="mcf-0", cells=2, attempt=1)
        reporter.finish()
        rows = _rows(log)
        assert all(set(ROW_KEYS) <= set(row) for row in rows)
        assert [render_line(row) for row in rows] == stream.getvalue().splitlines()

    def test_reused_is_the_running_count_and_source_the_cell_flag(self, tmp_path):
        log = tmp_path / "events.jsonl"
        reporter = ProgressReporter(total=3, enabled=False, heartbeat_path=str(log))
        cell = CampaignCell(baseline_6_64(), "mcf", 1000, 0)
        reporter.cell_done(cell, 0.0, reused=True)
        reporter.cell_done(cell, 1.0, reused=False)
        reporter.cell_done(cell, 0.0, reused=True)
        reporter.finish()
        rows = _rows(log)
        done = [row for row in rows if row["event"] == "cell_done"]
        assert [row["reused"] for row in done] == [1, 1, 2]
        assert [row["source"] for row in done] == ["reused", "simulated", "reused"]
        assert rows[-1]["reused"] == 2


class TestFleetEventsInTheLog:
    def test_local_fleet_logs_claims_terminal_rows_and_one_finish(self, tmp_path, monkeypatch):
        log = tmp_path / "events.jsonl"
        monkeypatch.setenv(HEARTBEAT_ENV_VAR, str(log))
        campaign = _campaign()
        run_campaign(campaign, store=None, workers=2)
        rows = _rows(log)
        assert all(set(ROW_KEYS) <= set(row) for row in rows)
        claims = [row for row in rows if row["event"] == "lease_claimed"]
        assert sorted(row["lease"] for row in claims) == ["gcc-0", "mcf-0"]
        assert all(row["worker"] and row["worker"] == row["label"] for row in claims)
        terminal = [row["cell"] for row in rows if row["event"] in ("cell_done", "cell_failed")]
        assert sorted(terminal) == sorted(cell.describe() for cell in campaign.cells())
        assert [row["event"] for row in rows].count("finish") == 1

    def test_a_clean_fleet_run_interrupts_no_worker(self, tmp_path, monkeypatch):
        """A worker still completing its lease when the grid's last row lands is
        joined, not sent SIGTERM."""
        log = tmp_path / "events.jsonl"
        monkeypatch.setenv(HEARTBEAT_ENV_VAR, str(log))
        complete = CampaignService.complete

        def slow_complete(self, *args, **kwargs):
            time.sleep(0.3)  # every row of the lease is stored; it is still running
            return complete(self, *args, **kwargs)

        monkeypatch.setattr(CampaignService, "complete", slow_complete)
        run_campaign(_campaign(), store=None, workers=2)
        events = [row["event"] for row in _rows(log)]
        assert events.count("lease_claimed") == 2
        assert "worker_interrupted" not in events
        assert events.count("finish") == 1

    def test_a_raising_cell_logs_lease_requeues(self, tmp_path, monkeypatch):
        log = tmp_path / "events.jsonl"
        monkeypatch.setenv(HEARTBEAT_ENV_VAR, str(log))
        monkeypatch.setattr(executor, "simulate_cell", _boom)
        outcome = run_campaign(_campaign(("gcc",)), store=None, workers=2)
        assert outcome.failures == 2
        rows = _rows(log)
        requeues = [row for row in rows if row["event"] == "lease_requeued"]
        assert requeues and all(row["error_type"] == "ValueError" for row in requeues)
        assert {row["state"] for row in requeues} == {"pending", "failed"}
        assert [row["event"] for row in rows].count("cell_failed") == 2


class TestResumedServe:
    def test_second_serve_reports_stored_cells_as_reused(self, tmp_path, monkeypatch):
        log = tmp_path / "events.jsonl"
        monkeypatch.setenv(HEARTBEAT_ENV_VAR, str(log))
        root = tmp_path / "svc"
        campaign = _campaign()
        # As ``repro-campaign serve --local-workers``: submit, start a worker, serve.
        first = CampaignService(root)
        first.submit(campaign)
        worker = threading.Thread(target=work_loop, args=(first, "w", 0.05), daemon=True)
        worker.start()
        serve(first, campaign, poll_seconds=0.05, progress=False, timeout_seconds=60.0)
        worker.join(timeout=30)
        serve(CampaignService(root), campaign, progress=False, timeout_seconds=60.0)
        finishes = [row for row in _rows(log) if row["event"] == "finish"]
        assert [(row["simulated"], row["reused"]) for row in finishes] == [(4, 0), (0, 4)]
        assert finishes[1]["utilization"] == 0.0
