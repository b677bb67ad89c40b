"""Tests for the service-directory integrity audit (``repro-campaign fsck``)."""

import json
import os
import time

import pytest

from repro.campaign.cli import main as campaign_cli
from repro.campaign.coordinator import CampaignService
from repro.campaign.executor import simulate_cell
from repro.campaign.fsck import fsck_service, fsck_store, render_table
from repro.campaign.spec import Campaign
from repro.campaign.store import ResultStore
from repro.durable import STAGING_GLOB
from repro.faults.plan import FAULTS_ENV_VAR, InjectedFault
from repro.faults.sites import STORE_REWRITE_CRASH, TRACE_SAVE_CRASH
from repro.trace.capture import capture_workload_trace
from repro.trace.store import TraceStore
from repro.workloads.suite import workload
from tests.trace.test_trace_integrity import BAD_BLOBS

UOPS, WARMUP = 400, 100


def _campaign(workloads="gcc,mcf"):
    return Campaign.from_names(
        ("Baseline_6_64", "EOLE_4_64"),
        workloads,
        max_uops=UOPS,
        warmup_uops=WARMUP,
        name="fsck-test",
    )


def _service(tmp_path, campaign=None, **submit_kw) -> CampaignService:
    service = CampaignService(tmp_path / "svc")
    service.submit(campaign or _campaign(), **submit_kw)
    return service


def _complete(service: CampaignService) -> None:
    """Drive every lease to done, landing real rows in the shared store."""
    store = service.result_store()
    cells = service.cells_by_fingerprint()
    with_owner = "fsck-driver"
    while True:
        lease = service.claim(with_owner)
        if lease is None:
            break
        for fingerprint in lease.fingerprints:
            cell = cells[fingerprint]
            if fingerprint not in store:
                store.put(cell, simulate_cell(cell))
        service.complete(lease, with_owner)


class TestCleanDirectory:
    def test_completed_service_audits_clean(self, tmp_path):
        service = _service(tmp_path)
        _complete(service)
        report = fsck_service(service.root)
        assert report.clean
        # Lock sidecars are advisory findings, never failures.
        assert all(f.advisory for f in report.findings)

    def test_missing_directory_is_a_target_error(self, tmp_path):
        report = fsck_service(tmp_path / "nope")
        assert not report.clean
        assert report.findings[0].check == "target"


class TestStoreAudit:
    def test_quarantined_rows_are_reported_and_repaired(self, tmp_path):
        service = _service(tmp_path)
        _complete(service)
        with service.store_path.open("a", encoding="utf-8") as handle:
            handle.write('{"fingerprint": "torn-in-hal')
        dirty = fsck_service(service.root)
        assert any(f.check == "store-row" for f in dirty.unresolved)
        repaired = fsck_service(service.root, repair=True)
        assert repaired.clean
        assert ResultStore(service.store_path).skipped_lines == 0
        assert fsck_service(service.root).clean

    def test_bare_store_audit(self, tmp_path):
        path = tmp_path / "bare.jsonl"
        path.write_text('{"not json\n')
        report = fsck_store(path)
        assert not report.clean
        fsck_store(path, repair=True)
        assert fsck_store(path).clean


class TestTraceAudit:
    def test_corrupt_blob_is_quarantine_renamed(self, tmp_path):
        service = _service(tmp_path)
        _complete(service)
        # Forge a structurally broken trace blob among the real ones.
        bad = service.trace_dir / ("ff" * 16 + ".trace")
        bad.write_bytes(b"not a trace at all")
        dirty = fsck_service(service.root)
        assert any(f.check == "trace-blob" for f in dirty.unresolved)
        repaired = fsck_service(service.root, repair=True)
        assert repaired.clean
        assert not bad.exists()
        assert bad.with_suffix(".trace.corrupt").exists()

    @pytest.mark.parametrize("case", sorted(BAD_BLOBS))
    def test_blob_of_another_layout_fails_the_audit_and_is_renamed(self, tmp_path, case):
        service = _service(tmp_path)
        wl = workload("gcc")
        path = TraceStore(service.trace_dir).save(capture_workload_trace(wl, 600))
        assert campaign_cli(["fsck", "--service", str(service.root)]) == 0
        forge, reason = BAD_BLOBS[case]
        path.write_bytes(forge(path.read_bytes()))
        [finding] = [f for f in fsck_service(service.root).unresolved if f.check == "trace-blob"]
        assert finding.path == str(path) and reason in finding.detail
        assert campaign_cli(["fsck", "--service", str(service.root)]) == 1
        assert campaign_cli(["fsck", "--service", str(service.root), "--repair"]) == 0
        assert not path.exists()
        assert path.with_suffix(".trace.corrupt").exists()
        assert TraceStore(service.trace_dir).load(wl.program) is None


class TestTmpOrphans:
    def test_old_orphans_are_swept_young_ones_left(self, tmp_path):
        service = _service(tmp_path)
        _complete(service)
        old = service.trace_dir / ".deadbeef-stage.tmp"
        old.write_bytes(b"half a blob")
        stale = time.time() - 3600
        os.utime(old, (stale, stale))
        young = service.root / ".results.jsonl-stage.tmp"
        young.write_text("mid-write")
        report = fsck_service(service.root, repair=True, tmp_age=60.0)
        assert report.clean
        assert not old.exists()
        assert young.exists()  # a live writer's file: not fsck's to delete

    @pytest.mark.parametrize("site", [STORE_REWRITE_CRASH, TRACE_SAVE_CRASH])
    def test_crash_before_the_rename_leaves_one_orphan_and_the_target(
        self, tmp_path, monkeypatch, site
    ):
        service = _service(tmp_path)
        _complete(service)
        traces = TraceStore(service.trace_dir)
        trace = capture_workload_trace(workload("gcc"), 600)
        saved = traces.save(trace)
        target = service.store_path if site == STORE_REWRITE_CRASH else saved
        before = target.read_bytes()
        monkeypatch.setenv(FAULTS_ENV_VAR, site)
        with pytest.raises(InjectedFault):
            if site == STORE_REWRITE_CRASH:
                ResultStore(target).compact()
            else:
                traces.save(trace)
        monkeypatch.delenv(FAULTS_ENV_VAR)
        assert target.read_bytes() == before
        (orphan,) = target.parent.glob(f".{target.name}-*.tmp")
        assert list(target.parent.glob(STAGING_GLOB)) == [orphan]
        report = fsck_service(service.root, tmp_age=0)
        assert [f.path for f in report.unresolved] == [str(orphan)]
        assert report.unresolved[0].check == "tmp-orphan"


class TestLeaseAudit:
    def test_corrupt_lease_is_quarantined_and_cells_recovered(self, tmp_path):
        service = _service(tmp_path, lease_width=1)
        lease_path = sorted(service.queue_dir.glob("*.json"))[0]
        doomed = json.loads(lease_path.read_text())
        lease_path.write_text('{"lease_id": "gcc-0", "work')
        dirty = fsck_service(service.root)
        checks = {f.check for f in dirty.unresolved}
        assert "lease-corrupt" in checks
        assert "lease-coverage" in checks
        repaired = fsck_service(service.root, repair=True)
        assert repaired.clean
        # The corrupt record was preserved for forensics and its cells re-leased.
        assert lease_path.with_suffix(".json.corrupt").exists()
        recovered = [
            lease
            for lease in service.leases()
            if set(lease.fingerprints) == set(doomed["fingerprints"])
        ]
        assert recovered and recovered[0].state == "pending"
        assert recovered[0].lease_id.endswith("-fsck0")

    @pytest.mark.parametrize(
        "mangle",
        [
            lambda record: [],
            lambda record: None,
            lambda record: record | {"fingerprints": 5},
            lambda record: {k: v for k, v in record.items() if k != "state"},
            lambda record: record | {"priority": 1},
        ],
        ids=["list", "null", "int-fingerprints", "missing-state", "extra-key"],
    )
    def test_lease_file_that_is_not_a_lease_is_skipped_and_quarantined(
        self, tmp_path, mangle
    ):
        service = _service(tmp_path, lease_width=1)
        bad = sorted(service.queue_dir.glob("*.json"))[0]
        text = json.dumps(mangle(json.loads(bad.read_text())))
        bad.write_text(text)
        _complete(service)  # claims every readable lease, skipping this file
        assert service.claim("late-worker") is None
        assert service.queue_complete()
        assert bad.stem not in {lease.lease_id for lease in service.leases()}
        [finding] = [f for f in fsck_service(service.root).unresolved if f.check == "lease-corrupt"]
        assert finding.path == str(bad)
        assert campaign_cli(["fsck", "--service", str(service.root), "--repair"]) == 0
        assert not bad.exists()
        assert bad.with_suffix(".json.corrupt").read_text() == text

    def test_wedged_running_lease_is_requeued_without_attempt_charge(self, tmp_path):
        service = _service(tmp_path, lease_seconds=5.0)
        lease = service.claim("dead-worker")
        # Rewind the deadline far past the grace window: the owner is long gone.
        with service._queue_locked():
            current = service._read_lease(lease.lease_id)
            current.deadline_unix = time.time() - 60.0
            service._write_lease(current)
        dirty = fsck_service(service.root)
        assert any(f.check == "lease-lapsed" for f in dirty.unresolved)
        fsck_service(service.root, repair=True)
        requeued = service._read_lease(lease.lease_id)
        assert requeued.state == "pending"
        assert requeued.owner is None
        assert requeued.attempts == lease.attempts  # no extra charge: claim bills

    def test_recently_lapsed_lease_is_not_a_finding(self, tmp_path):
        service = _service(tmp_path, lease_seconds=30.0)
        lease = service.claim("slow-worker")
        with service._queue_locked():
            current = service._read_lease(lease.lease_id)
            current.deadline_unix = time.time() - 1.0  # inside the grace window
            service._write_lease(current)
        report = fsck_service(service.root)
        assert not any(f.check == "lease-lapsed" for f in report.findings)


class TestCli:
    def test_cli_exit_codes_and_json(self, tmp_path, capsys):
        service = _service(tmp_path)
        _complete(service)
        assert campaign_cli(["fsck", "--service", str(service.root)]) == 0
        with service.store_path.open("a", encoding="utf-8") as handle:
            handle.write("GARBAGE\n")
        assert campaign_cli(["fsck", "--service", str(service.root)]) == 1
        capsys.readouterr()  # drop the human tables from the first two runs
        assert (
            campaign_cli(
                ["fsck", "--service", str(service.root), "--repair", "--format", "json"]
            )
            == 0
        )
        payload = json.loads(capsys.readouterr().out)
        assert payload["clean"] is True
        assert campaign_cli(["fsck", "--service", str(tmp_path / "missing")]) == 2

    def test_render_table_mentions_every_finding(self, tmp_path):
        service = _service(tmp_path)
        _complete(service)
        with service.store_path.open("a", encoding="utf-8") as handle:
            handle.write("GARBAGE\n")
        report = fsck_service(service.root)
        table = render_table(report)
        assert "store-row" in table
        assert "unresolved" in table
