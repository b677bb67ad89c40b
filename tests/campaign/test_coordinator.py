"""Tests for the distributed campaign coordinator (leased work queue).

Unit tests drive the lease protocol directly (claim/heartbeat/requeue/expiry);
the integration test at the bottom runs a real two-worker fleet as subprocesses,
SIGKILLs one mid-run, and asserts the campaign still completes with results
byte-identical to the serial ``run_campaign`` path — the PR's acceptance
criterion.
"""

import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.campaign.coordinator import (
    CampaignService,
    CoordinationError,
    _lease_width,
    process_lease,
    serve,
    work_loop,
)
from repro.campaign.executor import run_campaign
from repro.campaign.spec import Campaign

UOPS, WARMUP = 400, 100


def _campaign(workloads="gcc,mcf", configs=("Baseline_6_64", "EOLE_4_64"), seed=None):
    return Campaign.from_names(
        configs, workloads, max_uops=UOPS, warmup_uops=WARMUP, seed=seed, name="fleet"
    )


def _service(tmp_path, campaign=None, **submit_kw):
    service = CampaignService(tmp_path / "svc")
    if campaign is not None:
        service.submit(campaign, **submit_kw)
    return service


class TestSubmission:
    def test_submit_creates_one_lease_per_workload(self, tmp_path):
        service = _service(tmp_path)
        count = service.submit(_campaign("gcc,mcf,milc"))
        assert count == 3
        leases = service.leases()
        assert {lease.workload for lease in leases} == {"gcc", "mcf", "milc"}
        assert all(lease.state == "pending" for lease in leases)
        # One lease covers the whole config axis of its workload.
        assert all(len(lease.fingerprints) == 2 for lease in leases)

    def test_lease_width_chunks_the_workload_group(self, tmp_path):
        service = _service(tmp_path)
        assert service.submit(_campaign("gcc"), lease_width=1) == 2

    def test_resubmitting_the_same_grid_is_a_resume(self, tmp_path):
        campaign = _campaign()
        service = _service(tmp_path, campaign)
        assert service.submit(campaign) == 2  # no duplicate leases

    def test_submitting_a_different_grid_raises(self, tmp_path):
        service = _service(tmp_path, _campaign())
        with pytest.raises(CoordinationError):
            service.submit(_campaign("gcc,milc"))

    def test_round_trip_rebuilds_identical_cells(self, tmp_path):
        campaign = _campaign(seed=11)
        service = _service(tmp_path, campaign)
        rebuilt = service.campaign()
        assert [cell.fingerprint for cell in rebuilt.cells()] == [
            cell.fingerprint for cell in campaign.cells()
        ]

    def test_custom_configs_round_trip(self, tmp_path):
        from repro.pipeline.config import PipelineConfig
        from repro.vp.confidence import PAPER_FPC_VECTOR

        campaign = Campaign(
            name="adhoc",
            configs=(
                PipelineConfig(
                    name="NotRegistered",
                    value_prediction=True,
                    predictor_name="hybrid-small",
                    fpc_vector=PAPER_FPC_VECTOR,
                ),
            ),
            workload_names=("gcc",),
            max_uops=UOPS,
            warmup_uops=WARMUP,
            seed=5,
        )
        _service(tmp_path, campaign)
        rebuilt = CampaignService(tmp_path / "svc").campaign()
        assert rebuilt.configs == campaign.configs
        assert [cell.fingerprint for cell in rebuilt.cells()] == [
            cell.fingerprint for cell in campaign.cells()
        ]


class TestLeaseWidth:
    """A local fleet's lease width: one lease per workload, split to feed idle workers."""

    def test_one_lease_per_workload_when_workloads_outnumber_workers(self):
        assert _lease_width(_campaign("gcc,mcf,milc").cells(), workers=2) == 2

    def test_a_one_workload_grid_is_split_across_the_workers(self):
        configs = ("Baseline_6_64", "Baseline_VP_6_64", "EOLE_4_64", "EOLE_6_64")
        cells = _campaign("gcc", configs=configs).cells()
        assert _lease_width(cells, workers=2) == 2  # two even leases, not 3 + 1
        assert _lease_width(cells, workers=4) == 1
        assert _lease_width(cells, workers=16) == 1


class TestLeaseProtocol:
    def test_claim_marks_running_with_owner_and_deadline(self, tmp_path):
        service = _service(tmp_path, _campaign(), lease_seconds=30.0)
        lease = service.claim("w1")
        assert lease is not None
        assert lease.state == "running" and lease.owner == "w1"
        assert lease.attempts == 1
        assert lease.deadline_unix > time.time()

    def test_live_leases_are_not_reclaimable(self, tmp_path):
        service = _service(tmp_path, _campaign("gcc"), lease_seconds=30.0)
        assert service.claim("w1") is not None
        assert service.claim("w2") is None

    def test_heartbeat_extends_only_for_the_owner(self, tmp_path):
        service = _service(tmp_path, _campaign("gcc"), lease_seconds=30.0)
        lease = service.claim("w1")
        before = service._read_lease(lease.lease_id).deadline_unix
        time.sleep(0.02)
        assert service.heartbeat(lease, "w1") is True
        assert service._read_lease(lease.lease_id).deadline_unix > before
        assert service.heartbeat(lease, "w2") is False

    def test_lapsed_lease_is_reclaimed_by_another_worker(self, tmp_path):
        service = _service(tmp_path, _campaign("gcc"), lease_seconds=0.05)
        first = service.claim("dead-worker")
        assert first is not None
        time.sleep(0.1)  # deadline lapses with no heartbeat
        second = service.claim("survivor")
        assert second is not None
        assert second.lease_id == first.lease_id
        assert second.owner == "survivor"
        assert second.attempts == 2

    def test_requeue_backs_off_exponentially(self, tmp_path):
        service = _service(
            tmp_path, _campaign("gcc"), max_attempts=5, backoff_seconds=8.0
        )
        lease = service.claim("w1")
        state = service.requeue(lease, "w1", {"type": "Boom", "message": "x"})
        assert state == "pending"
        requeued = service._read_lease(lease.lease_id)
        assert requeued.owner is None
        # attempts == 1 -> backoff 8 * 2**0 = 8 seconds from now.
        assert requeued.not_before_unix == pytest.approx(time.time() + 8.0, abs=2.0)
        assert service.claim("w2") is None  # still inside the backoff window
        assert requeued.errors and requeued.errors[-1]["type"] == "Boom"

    def test_out_of_attempts_marks_failed_with_failure_rows(self, tmp_path):
        campaign = _campaign("gcc")
        service = _service(tmp_path, campaign, max_attempts=1)
        lease = service.claim("w1")
        state = service.requeue(lease, "w1", {"type": "Boom", "message": "x"})
        assert state == "failed"
        assert service.queue_complete()
        store = service.result_store()
        for cell in campaign.cells():
            assert cell.fingerprint not in store
            failure = store.get_failure(cell.fingerprint)
            assert failure is not None
            assert failure["error"]["type"] == "Boom"

    def test_expired_lease_out_of_attempts_fails_at_claim_time(self, tmp_path):
        service = _service(
            tmp_path, _campaign("gcc"), lease_seconds=0.05, max_attempts=1
        )
        assert service.claim("dead") is not None
        time.sleep(0.1)
        assert service.claim("survivor") is None  # nothing left: lease went failed
        states = {lease.state for lease in service.leases()}
        assert states == {"failed"}
        assert service.result_store().failures()

    def test_complete_refuses_a_reassigned_lease(self, tmp_path):
        service = _service(tmp_path, _campaign("gcc"), lease_seconds=0.05)
        lease = service.claim("slow")
        time.sleep(0.1)
        assert service.claim("fast") is not None
        assert service.complete(lease, "slow") is False


class TestWorkLoop:
    def test_fleet_results_match_serial_run(self, tmp_path):
        campaign = _campaign()
        service = _service(tmp_path, campaign)
        counts = work_loop(service, worker_id="w1")
        assert counts["processed"] == 2 and counts["requeued"] == 0
        assert service.queue_complete()
        store = service.result_store()
        serial = run_campaign(campaign, store=None, workers=1)
        for cell in campaign.cells():
            assert store.get(cell.fingerprint) == serial.results[
                (cell.config.name, cell.workload_name)
            ]

    def test_worker_skips_cells_already_in_the_store(self, tmp_path):
        campaign = _campaign("gcc")
        service = _service(tmp_path, campaign)
        store = service.result_store()
        serial = run_campaign(campaign, store=store, workers=1)
        assert serial.simulated == 2
        counts = work_loop(service, worker_id="w1")
        assert counts["processed"] == 1  # lease processed, zero re-simulation
        assert len(service.result_store()) == 2

    def test_worker_telemetry_carries_worker_and_lease_ids(self, tmp_path):
        campaign = _campaign("gcc")
        service = _service(tmp_path, campaign)
        work_loop(service, worker_id="fleet-worker-7")
        store = service.result_store()
        for cell in campaign.cells():
            telemetry = store.get_record(cell.fingerprint)["telemetry"]
            assert telemetry["worker"] == "fleet-worker-7"
            assert telemetry["lease_id"] == "gcc-0"
            assert telemetry["worker_host"]

    def test_failing_cell_is_retried_then_recorded_as_failure(
        self, tmp_path, monkeypatch
    ):
        import repro.campaign.executor as executor

        campaign = _campaign("gcc,mcf")
        service = _service(
            tmp_path, campaign, max_attempts=2, backoff_seconds=0.01
        )
        real = executor.simulate_cell

        def explode_on_mcf(cell, wl=None, trace=None):
            if cell.workload_name == "mcf":
                raise RuntimeError("injected fault")
            return real(cell, wl, trace)

        monkeypatch.setattr(executor, "simulate_cell", explode_on_mcf)
        counts = work_loop(service, worker_id="w1", poll_seconds=0.01)
        assert service.queue_complete()
        assert counts["requeued"] == 1  # first mcf attempt backs off, second fails
        store = service.result_store()
        done = [c for c in campaign.cells() if c.fingerprint in store]
        failed = [c for c in campaign.cells() if store.get_failure(c.fingerprint)]
        assert {c.workload_name for c in done} == {"gcc"}
        assert {c.workload_name for c in failed} == {"mcf"}
        error = store.get_failure(failed[0].fingerprint)["error"]
        assert error["type"] == "RuntimeError"
        assert error["attempts"] == 2

    def test_process_lease_reports_first_error(self, tmp_path, monkeypatch):
        import repro.campaign.executor as executor

        campaign = _campaign("gcc")
        service = _service(tmp_path, campaign)
        lease = service.claim("w1")
        monkeypatch.setattr(
            executor,
            "simulate_cell",
            lambda cell, wl=None, trace=None: (_ for _ in ()).throw(
                ValueError("bad cell")
            ),
        )
        error = process_lease(service, lease, "w1", service.result_store())
        assert error is not None
        assert error["type"] == "ValueError" and error["worker"] == "w1"


class TestServe:
    def test_serve_streams_and_summarises_a_completed_grid(self, tmp_path):
        import threading

        campaign = _campaign("gcc")
        service = _service(tmp_path)
        worker = threading.Thread(
            target=lambda: (
                time.sleep(0.2),
                work_loop(service, worker_id="bg", poll_seconds=0.05),
            ),
            daemon=True,
        )
        worker.start()
        summary = serve(
            service,
            campaign,
            poll_seconds=0.05,
            progress=False,
            timeout_seconds=60.0,
        )
        worker.join(timeout=30)
        assert summary["cells"] == 2
        assert len(summary["results"]) == 2
        assert not summary["failed"] and not summary["missing"]

    def test_serve_times_out_with_no_workers(self, tmp_path):
        with pytest.raises(CoordinationError):
            serve(
                _service(tmp_path),
                _campaign("gcc"),
                poll_seconds=0.02,
                progress=False,
                timeout_seconds=0.1,
            )


class TestKillAWorker:
    """Acceptance: SIGKILL a fleet worker mid-run; the grid still completes,
    byte-identical to the serial path."""

    def _spawn_worker(self, service_dir, worker_id, repo_root):
        env = dict(os.environ)
        env["PYTHONPATH"] = str(repo_root / "src")
        env.pop("REPRO_RESULT_STORE", None)
        env.pop("REPRO_TRACE_STORE", None)
        return subprocess.Popen(
            [
                sys.executable,
                "-m",
                "repro.campaign",
                "work",
                "--service",
                str(service_dir),
                "--worker-id",
                worker_id,
                "--poll-seconds",
                "0.05",
                "--quiet",
            ],
            env=env,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL,
        )

    def test_killed_worker_lease_is_requeued_and_grid_matches_serial(self, tmp_path):
        repo_root = Path(__file__).resolve().parents[2]
        # ~16 × 0.1s of simulation: long enough that the 10ms kill poll below
        # always lands mid-grid, short enough to keep the suite quick.
        campaign = Campaign.from_names(
            ("Baseline_6_64", "Baseline_VP_6_64", "EOLE_4_64", "EOLE_6_64"),
            "gcc,mcf,milc,namd",
            max_uops=8000,
            warmup_uops=2000,
            name="fleet",
        )
        service = CampaignService(tmp_path / "svc")
        # Short leases so the victim's lease lapses quickly after the SIGKILL;
        # lease_width=1 gives 16 small leases, so the kill lands mid-grid.
        service.submit(campaign, lease_seconds=2.0, max_attempts=4, lease_width=1)
        victim = self._spawn_worker(tmp_path / "svc", "victim", repo_root)
        try:
            # Wait until the victim is actually simulating (owns progress), then
            # SIGKILL it — no cleanup, no heartbeat ever again.
            deadline = time.time() + 120
            store = service.result_store()
            while time.time() < deadline:
                store.reload()
                if len(store) >= 2:
                    break
                time.sleep(0.01)
            assert len(store) >= 2, "victim worker never made progress"
            running = [l for l in service.leases() if l.state == "running"]
            victim.send_signal(signal.SIGKILL)
            victim.wait(timeout=10)

            survivor = self._spawn_worker(tmp_path / "svc", "survivor", repo_root)
            try:
                deadline = time.time() + 180
                while time.time() < deadline and not service.queue_complete():
                    time.sleep(0.1)
                assert service.queue_complete(), "fleet never completed the queue"
            finally:
                if survivor.poll() is None:
                    survivor.kill()
                survivor.wait(timeout=10)
        finally:
            if victim.poll() is None:
                victim.kill()
                victim.wait(timeout=10)

        # The survivor must have picked up work the victim left behind.
        store = service.result_store()
        owners = {
            store.get_record(cell.fingerprint)["telemetry"]["worker"]
            for cell in campaign.cells()
        }
        assert "survivor" in owners
        if running:  # the lease the victim died holding was requeued, not lost
            requeued = service._read_lease(running[0].lease_id)
            assert requeued.state == "done"

        # Byte-identity: every fleet record equals the serial result, down to the
        # JSON encoding of the result dict.
        serial = run_campaign(campaign, store=None, workers=1)
        assert not store.failures()
        for cell in campaign.cells():
            record = store.get_record(cell.fingerprint)
            expected = serial.results[(cell.config.name, cell.workload_name)]
            assert record is not None, f"missing {cell.describe()}"
            assert json.dumps(record["result"], sort_keys=True) == json.dumps(
                expected.to_dict(), sort_keys=True
            ), f"fleet result diverges for {cell.describe()}"


class TestFaultSitesAndPoliteKill:
    """Coordinator fault-injection sites plus the SIGTERM polite-release path."""

    def _armed(self, monkeypatch, spec: str) -> None:
        from repro.faults import reset_faults

        monkeypatch.setenv("REPRO_FAULTS", spec)
        reset_faults()

    def test_dropped_heartbeats_lapse_the_lease(self, tmp_path, monkeypatch):
        service = _service(tmp_path, _campaign(), lease_seconds=0.2)
        lease = service.claim("sick-worker")
        self._armed(monkeypatch, "coord.heartbeat.drop:every=1:n=0")
        deadline_before = service._read_lease(lease.lease_id).deadline_unix
        # The worker believes every beat lands, but none extend the deadline.
        assert service.heartbeat(lease, "sick-worker") is True
        assert service._read_lease(lease.lease_id).deadline_unix == deadline_before
        time.sleep(0.25)
        takeover = service.claim("healthy-worker")
        assert takeover is not None and takeover.lease_id == lease.lease_id
        assert takeover.owner == "healthy-worker"

    def test_clock_skew_site_shifts_this_claimants_clock(self, tmp_path, monkeypatch):
        service = _service(tmp_path, _campaign(), lease_seconds=30.0)
        held = service.claim("owner")
        assert held is not None
        # A claimant whose clock runs far ahead sees live leases as lapsed and
        # steals them — exactly the NTP-drift hazard the site exists to model.
        self._armed(monkeypatch, "coord.clock.skew:every=1:n=0:skew=120")
        stolen = service.claim("fast-clock")
        assert stolen is not None
        assert stolen.owner == "fast-clock"

    def test_release_is_owner_fenced_and_refunds_the_attempt(self, tmp_path):
        service = _service(tmp_path, _campaign())
        lease = service.claim("w1")
        assert lease.attempts == 1
        assert service.release(lease, "imposter") is False
        assert service._read_lease(lease.lease_id).state == "running"
        assert service.release(lease, "w1") is True
        released = service._read_lease(lease.lease_id)
        assert released.state == "pending"
        assert released.owner is None
        assert released.attempts == 0  # the abandoned claim is refunded
        assert released.not_before_unix == 0.0  # immediately claimable, no backoff
        # Releasing twice is a no-op: the lease is no longer ours.
        assert service.release(lease, "w1") is False

    def test_sigterm_mid_lease_releases_and_reports(self, tmp_path, monkeypatch):
        import repro.campaign.coordinator as coordinator

        service = _service(tmp_path, _campaign(), lease_seconds=60.0)

        def _killed_mid_lease(service_, lease_, worker_id_, store_):
            # Deliver a real SIGTERM to ourselves while the lease is held: the
            # handler work_loop installed must unwind to the release path.
            signal.raise_signal(signal.SIGTERM)
            raise AssertionError("the SIGTERM handler should have interrupted us")

        monkeypatch.setattr(coordinator, "process_lease", _killed_mid_lease)
        counts = work_loop(service, worker_id="w1", handle_signals=True)
        assert counts["interrupted"] == "SIGTERM"
        assert counts["released"] == 1
        assert counts["processed"] == 0
        for lease in service.leases():
            assert lease.state == "pending"
            assert lease.attempts == 0  # refunded: no retry budget burned
        # The previous SIGTERM disposition was restored on the way out.
        assert signal.getsignal(signal.SIGTERM) == signal.SIG_DFL

    def test_work_loop_without_handlers_leaves_signal_dispositions(self, tmp_path):
        service = _service(tmp_path, _campaign("gcc"))
        before = signal.getsignal(signal.SIGTERM)
        counts = work_loop(service, worker_id="w1", once=True)
        assert counts["processed"] == 1
        assert counts["released"] == 0
        assert signal.getsignal(signal.SIGTERM) is before
