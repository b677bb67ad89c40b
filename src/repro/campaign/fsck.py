"""Service-directory integrity audit: ``repro-campaign fsck [--repair]``.

A campaign service directory accumulates durable state from many processes —
JSONL result rows, content-addressed trace blobs, per-lease JSON records, lock
sidecars, and staging temp files.  Crashes (real or injected via
``REPRO_FAULTS``, see :mod:`repro.faults`) leave characteristic residue in each
layer; ``fsck`` walks all of them, reports what it finds, and with ``--repair``
restores the directory to a state a fleet can safely resume from:

* **store rows** — quarantined lines: unparseable, a bad or missing CRC, a
  missing or unknown schema version.  Repair compacts the store: quarantined
  raw lines move to the ``<store>.quarantine`` sidecar.
* **trace blobs** — every ``*.trace`` file is structurally validated (header
  syntax, format version, column table vs payload length, payload checksum).
  Repair renames a corrupt blob to ``*.trace.corrupt`` so loaders recapture
  instead of re-reading rot.
* **orphan temp files** — staging files of :func:`repro.durable.publish`
  older than ``--tmp-age`` (a crash before the rename).  Repair unlinks them.
* **lease records** — files that do not read as a lease (not JSON, or JSON
  of the wrong shape; repair: quarantine-rename, then
  re-cover any cells of the grid left without a lease, a stored result, or a
  failure row via fresh ``<workload>-fsckN`` pending leases) and running
  leases whose deadline lapsed more than a full lease period ago (the owner is
  long dead; repair resets them to ``pending`` *without* charging an attempt —
  the normal claim path already bills attempts and fails out-of-budget leases).
* **lock sidecars** — ``queue.lock`` / ``<store>.lock`` are reported for
  visibility; repair removes them only once the queue is fully terminal
  (``flock`` locks die with their holder, so a live fleet's sidecars are
  harmless and must not be yanked).

Exit codes: 0 — clean (or fully repaired); 1 — issues remain; 2 — the target
is not auditable (missing directory, no submitted campaign).
"""

from __future__ import annotations

import time
from pathlib import Path

from repro.campaign.coordinator import (
    CampaignService,
    CoordinationError,
    Lease,
    read_lease,
)
from repro.campaign.store import ResultStore
from repro.durable import STAGING_GLOB, lock_path
from repro.trace.encoding import TraceEncodingError, validate_blob

#: Default minimum age (seconds) before a ``.*.tmp`` staging file counts as an
#: orphan — a live writer's temp file is younger than this.
DEFAULT_TMP_AGE_SECONDS = 60.0


class Finding:
    """One fsck observation: what is wrong, where, and whether repair fixed it."""

    def __init__(self, check: str, path: str, detail: str) -> None:
        self.check = check
        self.path = path
        self.detail = detail
        self.repaired = False
        self.advisory = False  # informational: never fails the audit

    def to_dict(self) -> dict:
        return {
            "check": self.check,
            "path": self.path,
            "detail": self.detail,
            "repaired": self.repaired,
            "advisory": self.advisory,
        }


class FsckReport:
    """The result of one audit pass: findings plus summary accounting."""

    def __init__(self, target: str) -> None:
        self.target = target
        self.findings: list[Finding] = []

    def add(
        self, check: str, path: str, detail: str, *, advisory: bool = False
    ) -> Finding:
        finding = Finding(check, path, detail)
        finding.advisory = advisory
        self.findings.append(finding)
        return finding

    @property
    def unresolved(self) -> list[Finding]:
        """Findings that still need attention (not repaired, not advisory)."""
        return [f for f in self.findings if not f.repaired and not f.advisory]

    @property
    def clean(self) -> bool:
        return not self.unresolved

    def to_dict(self) -> dict:
        return {
            "target": self.target,
            "clean": self.clean,
            "findings": [f.to_dict() for f in self.findings],
            "unresolved": len(self.unresolved),
        }


# ------------------------------------------------------------------ store audit
def _audit_store(
    report: FsckReport, store_path: Path, repair: bool
) -> ResultStore | None:
    """Audit one JSONL result store; returns the loaded store (or None)."""
    if not store_path.exists():
        return None
    store = ResultStore(store_path)
    findings = [
        report.add(
            "store-row",
            str(store_path),
            f"line {entry['line']} quarantined ({entry['reason']})",
        )
        for entry in store.quarantined()
    ]
    if repair and findings:
        # Compaction spills the quarantined raw lines to the sidecar.
        store.compact()
        for finding in findings:
            finding.repaired = True
    return store


# ------------------------------------------------------------------ trace audit
def _audit_traces(report: FsckReport, trace_dir: Path, repair: bool) -> None:
    if not trace_dir.exists():
        return
    for path in sorted(trace_dir.glob("*.trace")):
        try:
            validate_blob(path.read_bytes())
        except (TraceEncodingError, OSError) as error:
            finding = report.add("trace-blob", str(path), str(error))
            if repair:
                try:
                    # Out of the loader's ``*.trace`` glob: the next worker that
                    # needs this workload recaptures it from scratch.
                    path.rename(path.with_suffix(".trace.corrupt"))
                    finding.repaired = True
                except OSError:
                    pass


# ------------------------------------------------------------------ tmp orphans
def _audit_tmp_orphans(
    report: FsckReport, directories: list[Path], repair: bool, tmp_age: float
) -> None:
    now = time.time()
    seen: set[Path] = set()
    for directory in directories:
        if directory is None or not directory.exists() or directory in seen:
            continue
        seen.add(directory)
        for path in sorted(directory.glob(STAGING_GLOB)):
            try:
                age = now - path.stat().st_mtime
            except OSError:
                continue  # raced with a writer publishing it; not an orphan
            if age < tmp_age:
                continue
            finding = report.add(
                "tmp-orphan", str(path), f"staging file abandoned {age:.0f}s ago"
            )
            if repair:
                try:
                    path.unlink()
                    finding.repaired = True
                except OSError:
                    pass


# ------------------------------------------------------------------ lease audit
def _audit_leases(
    report: FsckReport,
    service: CampaignService,
    store: ResultStore | None,
    repair: bool,
) -> None:
    if not service.queue_dir.exists():
        return
    params = service.queue_params()
    lease_seconds = float(params.get("lease_seconds", 60.0))
    now = time.time()
    valid: list[Lease] = []
    corrupt_paths: list[Path] = []
    for path in sorted(service.queue_dir.glob("*.json")):
        lease = read_lease(path)
        if lease is None:
            corrupt_paths.append(path)
        else:
            valid.append(lease)

    for path in corrupt_paths:
        finding = report.add("lease-corrupt", str(path), "unreadable lease record")
        if repair:
            try:
                path.rename(path.with_suffix(".json.corrupt"))
                finding.repaired = True
            except OSError:
                pass

    # Running leases whose owner has been silent for more than a full extra
    # lease period: claimable in principle, but with no worker polling they
    # stay wedged forever.  (A merely-lapsed lease inside the grace window is
    # normal takeover territory — not an fsck finding.)
    for lease in valid:
        if lease.state != "running":
            continue
        overdue = now - lease.deadline_unix
        if overdue <= lease_seconds:
            continue
        finding = report.add(
            "lease-lapsed",
            str(service._lease_path(lease.lease_id)),
            f"running lease {lease.lease_id} owned by {lease.owner!r} "
            f"lapsed {overdue:.0f}s ago",
        )
        if repair:
            with service._queue_locked():
                current = service._read_lease(lease.lease_id)
                if (
                    current is not None
                    and current.state == "running"
                    and current.deadline_unix == lease.deadline_unix
                ):
                    current.state = "pending"
                    current.owner = None
                    current.deadline_unix = 0.0
                    current.not_before_unix = 0.0
                    # No attempts charge: the claim path bills attempts and
                    # retires out-of-budget leases with failure rows.
                    service._write_lease(current)
                    finding.repaired = True

    # Grid coverage: after quarantining corrupt leases, every cell must be
    # reachable — covered by a lease, already stored, or terminally failed.
    covered = {fp for lease in valid for fp in lease.fingerprints}
    orphans: dict[str, list] = {}
    for fingerprint, cell in service.cells_by_fingerprint().items():
        if fingerprint in covered:
            continue
        if store is not None and (
            fingerprint in store or store.get_failure(fingerprint) is not None
        ):
            continue
        orphans.setdefault(cell.workload_name, []).append(cell)
    if orphans:
        total = sum(len(cells) for cells in orphans.values())
        finding = report.add(
            "lease-coverage",
            str(service.queue_dir),
            f"{total} grid cells covered by no lease, result, or failure row",
        )
        if repair:
            with service._queue_locked():
                existing = {lease.lease_id for lease in service.leases()}
                for workload_name, cells in sorted(orphans.items()):
                    index = 0
                    while f"{workload_name}-fsck{index}" in existing:
                        index += 1
                    service._write_lease(
                        Lease(
                            lease_id=f"{workload_name}-fsck{index}",
                            workload=workload_name,
                            fingerprints=[cell.fingerprint for cell in cells],
                        )
                    )
            finding.repaired = True


# ------------------------------------------------------------------ lock audit
def _audit_locks(
    report: FsckReport, service: CampaignService, repair: bool
) -> None:
    sidecars = [lock_path(service.queue_dir), lock_path(service.store_path)]
    terminal = service.queue_complete()
    for path in sidecars:
        if not path.exists():
            continue
        finding = report.add(
            "lock-sidecar",
            str(path),
            "advisory lock sidecar present"
            + ("" if terminal else " (queue still active: left alone)"),
            advisory=True,
        )
        if repair and terminal:
            # flock state dies with its holder, so on a terminal queue the
            # sidecar is pure residue.
            try:
                path.unlink()
                finding.repaired = True
            except OSError:
                pass


# ------------------------------------------------------------------ entry points
def fsck_store(
    store_path: str | Path,
    repair: bool = False,
    tmp_age: float = DEFAULT_TMP_AGE_SECONDS,
) -> FsckReport:
    """Audit a bare result store (no service directory)."""
    store_path = Path(store_path)
    report = FsckReport(str(store_path))
    if not store_path.exists():
        report.add("target", str(store_path), "store file does not exist")
        return report
    _audit_store(report, store_path, repair)
    _audit_tmp_orphans(report, [store_path.parent], repair, tmp_age)
    return report


def fsck_service(
    service_dir: str | Path,
    repair: bool = False,
    tmp_age: float = DEFAULT_TMP_AGE_SECONDS,
) -> FsckReport:
    """Audit a full campaign service directory (store, traces, queue, locks)."""
    service = CampaignService(service_dir)
    report = FsckReport(str(service.root))
    if not service.root.exists():
        report.add("target", str(service.root), "service directory does not exist")
        return report
    store = _audit_store(report, service.store_path, repair)
    _audit_traces(report, service.trace_dir, repair)
    _audit_tmp_orphans(
        report,
        [service.root, service.queue_dir, service.trace_dir],
        repair,
        tmp_age,
    )
    try:
        _audit_leases(report, service, store, repair)
    except CoordinationError as error:
        report.add("campaign", str(service.campaign_path), str(error))
    _audit_locks(report, service, repair)
    return report


def render_table(report: FsckReport) -> str:
    """A human-readable audit summary (the CLI's default output)."""
    lines = [f"fsck {report.target}"]
    if not report.findings:
        lines.append("  clean: no findings")
        return "\n".join(lines)
    for finding in report.findings:
        status = (
            "repaired"
            if finding.repaired
            else ("info" if finding.advisory else "ISSUE")
        )
        lines.append(
            f"  [{status:>8}] {finding.check:<14} {finding.path}: {finding.detail}"
        )
    lines.append(
        f"  {len(report.findings)} findings, {len(report.unresolved)} unresolved"
    )
    return "\n".join(lines)
