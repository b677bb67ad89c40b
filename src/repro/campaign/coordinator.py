"""Distributed campaign coordination: a leased work queue over a shared directory.

This is the campaign's one parallel path.  A grid becomes a *fleet*: any number
of worker processes — forked locally by :func:`local_fleet` (``run_campaign(workers>1)``,
``serve --local-workers``) or started on any machine sharing the service directory
over NFS — lease cells, simulate them, and append to one shared
:class:`~repro.campaign.store.ResultStore`.  There is no network daemon: the
"coordinator" is the directory itself, and every state transition is a file-lock
protected atomic rewrite of a small JSON lease record, mirroring how the SPEC2006
harnesses run ``PrunPool`` job fleets with per-node result files plus an
aggregation pass.

Service directory layout::

    <service>/
      campaign.json      # the submitted grid (Campaign.to_spec_dict + queue params)
      results.jsonl      # the shared ResultStore (flock-guarded, see store.py)
      traces/            # shared content-addressed TraceStore: one capture per
                         # workload per fleet — the lease holder captures, every
                         # later worker loads
      queue/
        <lease>.json     # one lease per same-workload cell group
      queue.lock         # advisory lock guarding every queue transition

Lease protocol (all transitions under ``queue.lock``):

* ``submit`` creates one *pending* lease per same-workload cell group (grouping by
  workload keeps one trace capture per lease; ``lease_width`` chunks the group).
* A worker *claims* an eligible lease — pending with ``not_before`` in the past, or
  running with a lapsed ``deadline`` (its owner stopped heartbeating: a dead
  worker's cells are picked up by the next claimer) — by writing itself as
  ``owner`` with ``deadline = now + lease_seconds`` and ``attempts += 1``.
* While simulating, the worker *heartbeats*: a daemon thread re-extends the
  deadline every ``lease_seconds / 3``.  A worker that is SIGKILLed simply stops
  heartbeating and its lease lapses.
* On success the worker marks the lease *done*; its results are already in the
  shared store (appended cell by cell, so even a mid-lease death loses only the
  in-flight cell).  On a cell error the lease is *requeued* with exponential
  backoff (``backoff_seconds * 2**(attempts-1)``); cells that already succeeded
  are skipped on retry via the store.  After ``max_attempts`` the lease is marked
  *failed* and the missing cells get structured failure rows in the store.

Events: each claim, requeue and polite interrupt is an event of the campaign's
one stream (:mod:`repro.campaign.progress`), emitted through a reporter labelled
with the worker id: a stderr line when the worker runs with ``progress``, and a
row in the ``REPRO_HEARTBEAT_LOG`` log, which forked and ``repro-campaign work``
workers inherit.  The process awaiting the grid emits the cell events.

Determinism: cells are self-contained and seed-derived, so a fleet run — whatever
the interleaving, crashes and retries — produces results byte-identical to a
serial :func:`~repro.campaign.executor.run_campaign` of the same grid.  Clocks
only gate liveness (deadlines), never results; multi-host fleets assume loosely
NTP-synced clocks and a coherent shared filesystem.
"""

from __future__ import annotations

import json
import multiprocessing
import multiprocessing.connection
import os
import signal
import socket
import tempfile
import threading
import time
from collections import Counter
from contextlib import contextmanager
from dataclasses import asdict, dataclass, fields
from pathlib import Path

from repro.campaign.executor import CellRun, failure_payload, run_cell
from repro.faults.plan import active_faults
from repro.faults.sites import (
    COORD_CLAIM_DELAY,
    COORD_CLOCK_SKEW,
    COORD_COMPLETE_DELAY,
    COORD_HEARTBEAT_DROP,
    WORKER_DIE_AFTER_CLAIM,
    WORKER_DIE_BEFORE_COMPLETE,
    WORKER_DIE_MID_LEASE,
)
from repro.campaign.progress import ProgressReporter
from repro.campaign.spec import Campaign, CampaignCell
from repro.campaign.store import ResultStore
from repro.durable import locked, publish
from repro.errors import ReproError
from repro.pipeline.stats import SimulationResult
from repro.trace.cache import shared_trace_cache
from repro.trace.store import TRACE_STORE_ENV_VAR

#: Default lease duration: a worker must heartbeat within this window or its lease
#: is considered abandoned.  Must comfortably exceed the heartbeat interval
#: (``lease_seconds / 3``); cell durations do not matter — the heartbeat thread
#: runs concurrently with the simulation.
DEFAULT_LEASE_SECONDS = 60.0

#: Default bounded-retry budget per lease (claims, including the first).
DEFAULT_MAX_ATTEMPTS = 3

#: Default base of the exponential requeue backoff.
DEFAULT_BACKOFF_SECONDS = 1.0

#: Default interval between a worker's claim polls and the server's store polls.
DEFAULT_POLL_SECONDS = 0.5

#: The states a lease record can be in.
LEASE_STATES = ("pending", "running", "done", "failed")

#: Lease duration of a local fleet (:func:`run_local_fleet`): its workers share one
#: host, so a dead worker's lease should lapse in seconds, not a minute.
LOCAL_LEASE_SECONDS = 10.0


def default_worker_id() -> str:
    """A fleet-unique worker identity: ``host:pid``."""
    return f"{socket.gethostname()}:{os.getpid()}"


class CoordinationError(ReproError):
    """A service-directory protocol violation (mismatched resubmission, no grid…)."""


@dataclass
class Lease:
    """One unit of fleet work: a same-workload group of cell fingerprints."""

    lease_id: str
    workload: str
    fingerprints: list[str]
    state: str = "pending"  # one of LEASE_STATES
    owner: str | None = None
    deadline_unix: float = 0.0
    not_before_unix: float = 0.0
    attempts: int = 0
    errors: list[dict] | None = None

    def to_dict(self) -> dict:
        return asdict(self) | {"errors": list(self.errors or [])}


#: The keys of a lease record: :meth:`Lease.to_dict` writes exactly these.
LEASE_FIELDS = frozenset(field.name for field in fields(Lease))


def read_lease(path: Path) -> Lease | None:
    """The lease record at ``path``, or ``None`` when the file holds none.

    A missing file, text that is not JSON and JSON that is not exactly a lease
    record (``[]``, ``null``, a missing or extra key, a field of the wrong type)
    all read as ``None``: a scan that races a replace on a non-atomic filesystem
    sees the record on its next pass, and ``fsck`` reports a file that stays
    unreadable.
    """
    try:
        data = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError):
        return None
    if not isinstance(data, dict) or data.keys() != LEASE_FIELDS:
        return None
    lease = Lease(**data)
    numbers = (lease.deadline_unix, lease.not_before_unix, lease.attempts)
    well_formed = (
        isinstance(lease.lease_id, str)
        and isinstance(lease.workload, str)
        and isinstance(lease.fingerprints, list)
        and all(isinstance(fingerprint, str) for fingerprint in lease.fingerprints)
        and lease.state in LEASE_STATES
        and isinstance(lease.owner, (str, type(None)))
        and all(isinstance(number, (int, float)) for number in numbers)
        and isinstance(lease.errors, list)
        and all(isinstance(error, dict) for error in lease.errors)
    )
    return lease if well_formed else None


class CampaignService:
    """A shared-directory campaign coordinator (see the module docstring)."""

    def __init__(self, root: str | os.PathLike) -> None:
        self.root = Path(root)
        self.queue_dir = self.root / "queue"
        self.campaign_path = self.root / "campaign.json"
        self.store_path = self.root / "results.jsonl"
        self.trace_dir = self.root / "traces"
        self._payload: dict | None = None
        self._campaign: Campaign | None = None
        self._cells: dict[str, CampaignCell] | None = None
        #: Fingerprints stored when this handle first submitted (``serve``'s reused cells).
        self.stored_at_submit: set[str] | None = None

    # ------------------------------------------------------------------ locking
    def _queue_locked(self):
        """Hold the queue-wide lock, ``queue.lock`` (every lease transition runs inside)."""
        return locked(self.queue_dir)

    # ------------------------------------------------------------------ submission
    def submit(
        self,
        campaign: Campaign,
        lease_seconds: float = DEFAULT_LEASE_SECONDS,
        max_attempts: int = DEFAULT_MAX_ATTEMPTS,
        backoff_seconds: float = DEFAULT_BACKOFF_SECONDS,
        lease_width: int | None = None,
        cells: list[CampaignCell] | None = None,
    ) -> int:
        """Publish ``campaign`` to the service directory; returns the lease count.

        Cells are grouped into one lease per workload (chunked by ``lease_width``)
        so each lease holder captures its workload's trace exactly once and every
        configuration in the lease replays it.  ``cells`` restricts the leases to
        part of the grid (a local fleet leases only what missed the caller's
        store).  Resubmitting the identical grid is a no-op (a resume);
        submitting a *different* grid to a non-empty service directory raises.
        The first call on this handle snapshots :attr:`stored_at_submit`.
        """
        spec = campaign.to_spec_dict()
        payload = {
            "campaign": spec,
            "queue": {
                "lease_seconds": lease_seconds,
                "max_attempts": max_attempts,
                "backoff_seconds": backoff_seconds,
            },
        }
        with self._queue_locked():
            if self.stored_at_submit is None:
                store = self.result_store()
                fingerprints = (cell.fingerprint for cell in campaign.cells())
                self.stored_at_submit = {fp for fp in fingerprints if fp in store}
            if self.campaign_path.exists():
                existing = self._read_payload()
                if existing["campaign"] != spec:
                    raise CoordinationError(
                        f"service {self.root} already holds a different campaign "
                        f"({existing['campaign'].get('name')!r}); use a fresh directory"
                    )
                self._campaign = campaign  # the same grid: keep its fingerprinted cells
                return len(self.leases())
            self.queue_dir.mkdir(parents=True, exist_ok=True)
            self.trace_dir.mkdir(parents=True, exist_ok=True)
            self._write_json(self.campaign_path, payload)
            self._payload, self._campaign = payload, campaign
            groups: dict[str, list[CampaignCell]] = {}
            for cell in cells if cells is not None else campaign.cells():
                groups.setdefault(cell.workload_name, []).append(cell)
            count = 0
            for workload_name, group in groups.items():
                width = lease_width if lease_width else len(group)
                for start in range(0, len(group), width):
                    chunk = group[start : start + width]
                    lease = Lease(
                        lease_id=f"{workload_name}-{start // width}",
                        workload=workload_name,
                        fingerprints=[cell.fingerprint for cell in chunk],
                    )
                    self._write_lease(lease)
                    count += 1
            return count

    # ------------------------------------------------------------------ accessors
    def _read_payload(self) -> dict:
        """The parsed ``campaign.json``, read once: it never changes after submit."""
        if self._payload is None:
            if not self.campaign_path.exists():
                raise CoordinationError(f"service {self.root} has no submitted campaign")
            self._payload = json.loads(self.campaign_path.read_text(encoding="utf-8"))
        return self._payload

    def campaign(self) -> Campaign:
        """The submitted grid, rebuilt from the service directory."""
        if self._campaign is None:
            self._campaign = Campaign.from_spec_dict(self._read_payload()["campaign"])
        return self._campaign

    def queue_params(self) -> dict:
        """The fleet-wide lease parameters recorded at submission."""
        return self._read_payload()["queue"]

    def cells_by_fingerprint(self) -> dict[str, CampaignCell]:
        """Every cell of the submitted grid, keyed by its store fingerprint."""
        if self._cells is None:
            self._cells = {cell.fingerprint: cell for cell in self.campaign().cells()}
        return self._cells

    def result_store(self) -> ResultStore:
        """A fresh handle on the shared result store."""
        return ResultStore(self.store_path)

    def leases(self) -> list[Lease]:
        """Every lease record, sorted by id (point-in-time snapshot)."""
        if not self.queue_dir.exists():
            return []
        leases = map(read_lease, sorted(self.queue_dir.glob("*.json")))
        return [lease for lease in leases if lease is not None]

    def queue_complete(self) -> bool:
        """True when every lease is terminal (``done`` or ``failed``)."""
        leases = self.leases()
        return bool(leases) and all(
            lease.state in ("done", "failed") for lease in leases
        )

    def status(self) -> dict:
        """Queue + store accounting for ``serve`` streaming and CLI status."""
        leases = self.leases()
        by_state = dict(Counter(lease.state for lease in leases))
        store = self.result_store()
        fingerprints = set(self.cells_by_fingerprint())
        return {
            "root": str(self.root),
            "leases": len(leases),
            "lease_states": by_state,
            "cells_total": len(fingerprints),
            "cells_done": sum(1 for fp in fingerprints if fp in store),
            "cells_failed": sum(
                1 for fp in fingerprints if store.get_failure(fp) is not None and fp not in store
            ),
        }

    # ------------------------------------------------------------------ lease I/O
    def _lease_path(self, lease_id: str) -> Path:
        return self.queue_dir / f"{lease_id}.json"

    def _write_json(self, path: Path, payload: dict) -> None:
        publish(path, [json.dumps(payload, sort_keys=True).encode("utf-8")])

    def _write_lease(self, lease: Lease) -> None:
        self._write_json(self._lease_path(lease.lease_id), lease.to_dict())

    def _read_lease(self, lease_id: str) -> Lease | None:
        return read_lease(self._lease_path(lease_id))

    # ------------------------------------------------------------------ transitions
    def claim(self, worker_id: str) -> Lease | None:
        """Claim the next eligible lease for ``worker_id`` (None when nothing is).

        Eligible: ``pending`` whose backoff window has passed, or ``running`` whose
        deadline lapsed (the owner died or stalled — this *is* the requeue path for
        dead workers).  A lapsed lease that is out of attempts transitions to
        ``failed`` instead, and the cells it never finished get failure rows.
        """
        now = time.time()
        faults = active_faults()
        if faults is not None:
            skew = faults.fires(COORD_CLOCK_SKEW)
            if skew is not None:
                now += skew.skew  # this claimant's clock runs fast/slow vs the fleet
            delay = faults.fires(COORD_CLAIM_DELAY)
            if delay is not None and delay.delay > 0:
                time.sleep(delay.delay)
        params = self.queue_params()
        with self._queue_locked():
            for lease in self.leases():
                if lease.state == "pending" and lease.not_before_unix <= now:
                    eligible = True
                elif lease.state == "running" and lease.deadline_unix < now:
                    eligible = True
                else:
                    continue
                if eligible and lease.attempts >= params["max_attempts"]:
                    # Out of retries: a lapsed running lease whose every claim
                    # died (or a requeued one nobody can finish) fails here.
                    lease.errors = (lease.errors or []) + [
                        {
                            "type": "LeaseExpired",
                            "message": f"lease deadline lapsed after "
                            f"{lease.attempts} attempts (last owner {lease.owner})",
                            "unix_time": now,
                        }
                    ]
                    self._finalise_failure(lease)
                    continue
                lease.state = "running"
                lease.owner = worker_id
                lease.deadline_unix = now + params["lease_seconds"]
                lease.attempts += 1
                self._write_lease(lease)
                return lease
        return None

    def heartbeat(self, lease: Lease, worker_id: str) -> bool:
        """Extend the lease deadline; False when the lease is no longer ours."""
        faults = active_faults()
        if faults is not None and faults.fires(COORD_HEARTBEAT_DROP) is not None:
            # The beat was "lost on the wire": the worker believes it succeeded
            # but the deadline is not extended — enough drops lapse the lease.
            return True
        with self._queue_locked():
            current = self._read_lease(lease.lease_id)
            if current is None or current.owner != worker_id or current.state != "running":
                return False
            current.deadline_unix = time.time() + self.queue_params()["lease_seconds"]
            self._write_lease(current)
            return True

    def complete(self, lease: Lease, worker_id: str) -> bool:
        """Mark the lease done; False when it was reassigned underneath us."""
        faults = active_faults()
        if faults is not None:
            delay = faults.fires(COORD_COMPLETE_DELAY)
            if delay is not None and delay.delay > 0:
                # Widen the lapse window right before the terminal transition —
                # the owner-fencing below must still reject a reassigned lease.
                time.sleep(delay.delay)
        with self._queue_locked():
            current = self._read_lease(lease.lease_id)
            if current is None or current.owner != worker_id or current.state != "running":
                return False
            current.state = "done"
            current.deadline_unix = 0.0
            self._write_lease(current)
            return True

    def release(self, lease: Lease, worker_id: str) -> bool:
        """Politely hand a running lease back to the queue (owner-fenced).

        The exit path of a SIGTERM/SIGINT-ed worker: unlike a lapse, the lease is
        requeued *immediately* (no lease-timeout wait, no backoff) and the claim
        that is being abandoned is refunded — a politely-killed worker must not
        burn the lease's retry budget.  False when the lease is no longer ours.
        """
        with self._queue_locked():
            current = self._read_lease(lease.lease_id)
            if current is None or current.owner != worker_id or current.state != "running":
                return False
            current.state = "pending"
            current.owner = None
            current.deadline_unix = 0.0
            current.not_before_unix = 0.0
            current.attempts = max(0, current.attempts - 1)
            self._write_lease(current)
            return True

    def requeue(self, lease: Lease, worker_id: str, error: dict) -> str:
        """Requeue a lease whose processing raised; returns the resulting state.

        Retries back off exponentially (``backoff_seconds * 2**(attempts-1)``);
        once ``max_attempts`` claims have been burned the lease is marked
        ``failed`` and its unfinished cells get structured failure rows in the
        shared store.
        """
        params = self.queue_params()
        with self._queue_locked():
            current = self._read_lease(lease.lease_id)
            if current is None or current.owner != worker_id or current.state != "running":
                return current.state if current is not None else "gone"
            current.errors = (current.errors or []) + [error]
            if current.attempts >= params["max_attempts"]:
                self._finalise_failure(current)
                return "failed"
            current.state = "pending"
            current.owner = None
            current.deadline_unix = 0.0
            current.not_before_unix = time.time() + params["backoff_seconds"] * (
                2 ** (current.attempts - 1)
            )
            self._write_lease(current)
            return "pending"

    def _finalise_failure(self, lease: Lease) -> None:
        """Write failure rows for the lease's unfinished cells, then mark it failed.

        Runs under the queue lock; the store has its own inter-process lock, and
        the two nest in a fixed order (queue → store) everywhere, so there is no
        deadlock ordering hazard.  Rows land *before* the state flip so an
        observer seeing a terminal queue always finds every cell accounted for.
        """
        store = self.result_store()
        cells = self.cells_by_fingerprint()
        last_error = (lease.errors or [{}])[-1]
        for fingerprint in lease.fingerprints:
            cell = cells.get(fingerprint)
            if cell is None or fingerprint in store or store.get_failure(fingerprint):
                continue
            store.put_failure(
                cell,
                {
                    "type": last_error.get("type", "LeaseFailed"),
                    "message": last_error.get(
                        "message", f"lease {lease.lease_id} failed"
                    ),
                    "worker": last_error.get("worker"),
                    "attempts": lease.attempts,
                    "lease_id": lease.lease_id,
                    "unix_time": time.time(),
                },
            )
        lease.state = "failed"
        lease.owner = None
        lease.deadline_unix = 0.0
        self._write_lease(lease)


# ---------------------------------------------------------------------- the worker
class WorkerInterrupted(BaseException):
    """Raised by the worker's SIGTERM/SIGINT handler to unwind to the release path.

    Deliberately a ``BaseException``: the lease-processing machinery converts any
    ``Exception`` into a requeue-with-backoff, but a politely-killed worker must
    reach :meth:`CampaignService.release` (immediate, owner-fenced, refunded
    requeue) instead of burning an attempt.
    """


class _HeartbeatThread(threading.Thread):
    """Re-extends a lease deadline while the owning worker simulates."""

    def __init__(self, service: CampaignService, lease: Lease, worker_id: str, interval: float):
        super().__init__(daemon=True, name=f"lease-heartbeat-{lease.lease_id}")
        self._service = service
        self._lease = lease
        self._worker_id = worker_id
        self._interval = interval
        # Not named _stop: threading.Thread has a private _stop method.
        self._halt = threading.Event()

    def run(self) -> None:
        while not self._halt.wait(self._interval):
            try:
                if not self._service.heartbeat(self._lease, self._worker_id):
                    return
            except OSError:
                # A transient shared-filesystem error must not kill the worker;
                # the next beat retries (and the deadline has 3× slack).
                continue

    def stop(self) -> None:
        self._halt.set()
        self.join(timeout=self._interval + 1.0)


def process_lease(
    service: CampaignService, lease: Lease, worker_id: str, store: ResultStore
) -> dict | None:
    """Simulate one lease's cells, appending results to the shared store.

    Returns ``None`` on full success, else the error payload of the first failing
    cell (the caller requeues the lease with it).  Cells already present in the
    store — finished by a previous attempt of this lease, or by a worker whose
    lease lapsed *after* it had stored some cells — are skipped, so retries only
    pay for what is actually missing.
    """
    params = service.queue_params()
    heartbeat = _HeartbeatThread(
        service, lease, worker_id, interval=max(0.05, params["lease_seconds"] / 3.0)
    )
    heartbeat.start()
    first_error: dict | None = None
    telemetry = {"worker": worker_id, "lease_id": lease.lease_id}
    faults = active_faults()
    try:
        store.reload()
        cells = service.cells_by_fingerprint()
        # Same-workload batching through the shared trace cache: the first cell
        # captures the workload once and — with REPRO_TRACE_STORE pointed at the
        # service's traces/ dir — publishes it for the rest of the fleet.  Each
        # finished cell is appended to the shared store straight away, so a
        # worker dying mid-lease loses only its in-flight cell.
        for fingerprint in lease.fingerprints:
            if fingerprint not in cells:
                continue
            run = run_cell(cells[fingerprint], store=store, telemetry=telemetry, requeued=True)
            if run.error is not None:
                run.error.update(worker=worker_id, attempts=lease.attempts)
                first_error = first_error or run.error
            elif run.source == "simulated" and faults is not None:
                # Death right after a cell landed in the shared store: the takeover
                # worker must skip the stored cell and finish only what is missing.
                faults.die_if(WORKER_DIE_MID_LEASE)
    except Exception as error:  # noqa: BLE001 — lease-level failure, requeued below
        first_error = failure_payload(error, worker=worker_id, attempts=lease.attempts)
    finally:
        heartbeat.stop()
    return first_error


def work_loop(
    service: CampaignService,
    worker_id: str | None = None,
    poll_seconds: float = DEFAULT_POLL_SECONDS,
    once: bool = False,
    progress: bool = False,
    handle_signals: bool = False,
) -> dict:
    """Run a worker against the service until its queue is complete.

    The worker claims leases, simulates them (heartbeating throughout), and exits
    when every lease is terminal — *including* leases currently running elsewhere:
    as long as one is ``running`` this worker keeps polling, because that lease
    may lapse and need requeueing.  ``once=True`` processes at most one lease
    (test hook).  Returns ``{"processed": n, "requeued": n, "lost": n,
    "released": n}`` (plus ``"interrupted": <signal name>`` after a polite kill).

    With ``handle_signals=True`` (the CLI path; requires the main thread) SIGTERM
    and SIGINT unwind to a polite exit: the currently held lease is released back
    to the queue immediately — owner-fenced, attempt refunded — so a drained or
    redeployed worker never forces the fleet to wait out a full lease timeout.

    Claiming a lease for another workload releases the previous lease's workload
    from the shared trace cache: claims go in lease-id order, which groups each
    workload's leases, so the worker will not replay that trace again.  Traces it
    inherited from a forking parent stay until their own leases are done.
    """
    worker_id = worker_id or default_worker_id()
    # Route this process's trace cache at the fleet-shared trace store so each
    # workload is captured once per fleet (an explicit env setting wins).
    os.environ.setdefault(TRACE_STORE_ENV_VAR, str(service.trace_dir))
    store = service.result_store()
    counts = {"processed": 0, "requeued": 0, "lost": 0, "released": 0}
    # Worker events count no cells: the process running the grid counts them.
    events = ProgressReporter(total=0, enabled=progress, label=worker_id)

    def _interrupt(signum, frame):  # noqa: ARG001 — signal-handler signature
        raise WorkerInterrupted(signal.Signals(signum).name)

    previous_handlers = {}
    if handle_signals:
        for signum in (signal.SIGTERM, signal.SIGINT):
            previous_handlers[signum] = signal.signal(signum, _interrupt)
    lease: Lease | None = None
    last_workload: str | None = None
    faults = active_faults()
    try:
        while True:
            lease = service.claim(worker_id)
            if lease is None:
                if once or service.queue_complete():
                    return counts
                time.sleep(poll_seconds)
                continue
            if last_workload is not None and lease.workload != last_workload:
                shared_trace_cache.release(last_workload)
            last_workload = lease.workload
            if faults is not None:
                faults.die_if(WORKER_DIE_AFTER_CLAIM)
            events.emit(
                "lease_claimed", worker=worker_id, lease=lease.lease_id,
                cells=len(lease.fingerprints), attempt=lease.attempts,
            )
            error = process_lease(service, lease, worker_id, store)
            if error is None:
                if faults is not None:
                    # Every cell is stored but the lease is still "running": the
                    # takeover claim finds nothing left to simulate.
                    faults.die_if(WORKER_DIE_BEFORE_COMPLETE)
                if service.complete(lease, worker_id):
                    counts["processed"] += 1
                else:
                    counts["lost"] += 1  # reassigned mid-run; results are stored anyway
            else:
                state = service.requeue(lease, worker_id, error)
                counts["requeued" if state == "pending" else "lost"] += 1
                events.emit(
                    "lease_requeued", worker=worker_id, lease=lease.lease_id, state=state,
                    error_type=error.get("type"), error_message=error.get("message"),
                )
            lease = None
            if once:
                return counts
    except WorkerInterrupted as stop:
        released = lease is not None and service.release(lease, worker_id)
        counts["released"] += released
        counts["interrupted"] = str(stop)
        events.emit(
            "worker_interrupted", worker=worker_id, signal=str(stop), released=released,
            lease=lease.lease_id if lease is not None else None,
        )
        return counts
    finally:
        for signum, handler in previous_handlers.items():
            signal.signal(signum, handler)


# ---------------------------------------------------------------------- the server
def serve(
    service: CampaignService,
    campaign: Campaign,
    lease_seconds: float = DEFAULT_LEASE_SECONDS,
    max_attempts: int = DEFAULT_MAX_ATTEMPTS,
    backoff_seconds: float = DEFAULT_BACKOFF_SECONDS,
    lease_width: int | None = None,
    poll_seconds: float = DEFAULT_POLL_SECONDS,
    progress: bool = True,
    timeout_seconds: float | None = None,
    stream=None,
) -> dict:
    """Submit ``campaign`` and stream progress until the fleet finishes the grid.

    The front-end of the distributed service: publishes the grid as leases,
    then polls the shared store/queue, emitting one ``cell_done`` or
    ``cell_failed`` event per cell as its row lands; cells the store held at
    submission count as reused.  Returns a summary dict with
    ``results`` (fingerprint → record) and ``failed`` rows; raises
    :class:`CoordinationError` on ``timeout_seconds``.

    ``serve`` runs no simulations itself — start one or more ``repro-campaign
    work`` processes against the same directory (any machine sharing it), or
    fork some here with :func:`local_fleet`.
    """
    service.submit(
        campaign,
        lease_seconds=lease_seconds,
        max_attempts=max_attempts,
        backoff_seconds=backoff_seconds,
        lease_width=lease_width,
    )
    cells = service.cells_by_fingerprint()
    stored = service.stored_at_submit
    reporter = ProgressReporter(
        total=len(cells), enabled=progress, label=campaign.name, stream=stream
    )
    started = time.monotonic()
    await_cells(
        service,
        cells,
        on_done=lambda cell, record: reporter.cell_done(
            cell,
            0.0 if cell.fingerprint in stored
            else (record.get("telemetry") or {}).get("wall_seconds", 0.0),
            reused=cell.fingerprint in stored,
        ),
        on_failed=lambda cell, row: reporter.cell_failed(cell, row["error"]),
        poll_seconds=poll_seconds,
        timeout_seconds=timeout_seconds,
    )
    reporter.finish()
    store = service.result_store()
    results = {fp: store.get_record(fp) for fp in cells if fp in store}
    failed = {
        fp: store.get_failure(fp)
        for fp in cells
        if fp not in store and store.get_failure(fp) is not None
    }
    missing = [fp for fp in cells if fp not in results and fp not in failed]
    return {
        "campaign": campaign.name,
        "cells": len(cells),
        "results": results,
        "failed": failed,
        "missing": missing,
        "elapsed_seconds": time.monotonic() - started,
    }


def await_cells(
    service: CampaignService,
    cells: dict[str, CampaignCell],
    on_done,
    on_failed,
    poll_seconds: float = DEFAULT_POLL_SECONDS,
    timeout_seconds: float | None = None,
    workers: list | None = None,
) -> set[str]:
    """Poll the shared store, calling ``on_done(cell, record)`` or ``on_failed(cell,
    failure_row)`` once per cell as its row lands; returns the fingerprints seen.

    Stops when every cell is terminal, the queue is complete, or every local
    ``workers`` process has exited; raises :class:`CoordinationError` after
    ``timeout_seconds``.
    """
    seen: set[str] = set()
    store = service.result_store()
    started = time.monotonic()
    while True:
        # Sample the stop conditions before scanning, so the scan sees every row
        # written before the queue completed or the last worker exited.
        finished = service.queue_complete() or (
            workers is not None and not any(worker.is_alive() for worker in workers)
        )
        store.reload()
        for fingerprint, cell in cells.items():
            if fingerprint in seen:
                continue
            record = store.get_record(fingerprint)
            if record is not None:
                on_done(cell, record)
            elif store.get_failure(fingerprint) is not None:
                on_failed(cell, store.get_failure(fingerprint))
            else:
                continue
            seen.add(fingerprint)
        if finished or len(seen) == len(cells):
            return seen
        if timeout_seconds is not None and time.monotonic() - started > timeout_seconds:
            raise CoordinationError(
                f"campaign incomplete after {timeout_seconds:.0f}s "
                f"({len(seen)}/{len(cells)} cells terminal)"
            )
        if workers is None:
            time.sleep(poll_seconds)
        else:
            # Wake early when a worker exits: the one that completes the last
            # lease exits at once, so the end of the grid costs no poll delay.
            multiprocessing.connection.wait(
                [worker.sentinel for worker in workers if worker.is_alive()], poll_seconds
            )


# ---------------------------------------------------------------------- local fleets
def _local_worker(service: CampaignService, worker_id: str, share_traces: bool) -> None:
    if not share_traces:
        # An empty setting names no trace store, and work_loop keeps it.
        os.environ.setdefault(TRACE_STORE_ENV_VAR, "")
    work_loop(service, worker_id, handle_signals=True)


@contextmanager
def local_fleet(service: CampaignService, workers: int, share_traces: bool = True):
    """Fork ``workers`` :func:`work_loop` processes on ``service``; yield their handles.

    The one launch-and-reap routine behind ``run_campaign(workers>1)`` and
    ``serve --local-workers``.  Forking keeps in-process state (a warm trace
    cache, test monkeypatches) in every worker.  ``share_traces=False`` keeps the
    workers off the service's trace store.  On a clean exit the workers are
    joined first: once the grid is done, each exits at its next claim poll.
    Workers still alive after a few polls (or at once, when the body raised)
    get SIGTERM, which releases a held lease, then SIGKILL after a 10 s grace.
    """
    context = multiprocessing.get_context("fork")
    processes = []
    try:
        for index in range(workers):
            process = context.Process(
                target=_local_worker,
                args=(service, f"{default_worker_id()}-local{index}", share_traces),
                daemon=True,
            )
            process.start()
            processes.append(process)
        yield processes
        # A worker still completing its last lease when the grid's last row
        # landed is joined, not interrupted.
        deadline = time.monotonic() + 4 * DEFAULT_POLL_SECONDS
        for process in processes:
            process.join(max(0.0, deadline - time.monotonic()))
    finally:
        for process in processes:
            if process.is_alive():
                process.terminate()
        for process in processes:
            process.join(10.0)
            if process.is_alive():
                process.kill()
                process.join()


def _lease_width(cells: list[CampaignCell], workers: int) -> int:
    """One lease per workload (one trace capture, every configuration replays it),
    split into ``ceil(workers / workloads)`` even chunks when there are fewer
    workloads than workers, so a one-workload grid still keeps every worker busy.
    """
    sizes = Counter(cell.workload_name for cell in cells).values()
    parts = -(-workers // len(sizes))
    return max(-(-size // parts) for size in sizes)


def run_local_fleet(
    campaign: Campaign, cells: list[CampaignCell], workers: int, land
) -> None:
    """Lease ``cells`` of ``campaign`` to ``workers`` forked workers via a throwaway
    service directory, handing each row to ``land(cell, run)`` as a
    :class:`~repro.campaign.executor.CellRun` as it lands.  Cells still missing
    when every worker has died fail with a :class:`CoordinationError` payload.
    """
    with tempfile.TemporaryDirectory(prefix="repro-fleet-") as root:
        service = CampaignService(root)
        service.submit(
            campaign,
            lease_seconds=LOCAL_LEASE_SECONDS,
            lease_width=_lease_width(cells, workers),
            cells=cells,
        )
        pending = {cell.fingerprint: cell for cell in cells}
        with local_fleet(service, workers, share_traces=False) as processes:
            seen = await_cells(
                service,
                pending,
                on_done=lambda cell, record: land(cell, CellRun(
                    "simulated",
                    SimulationResult.from_dict(record["result"]),
                    telemetry=record["telemetry"],
                )),
                on_failed=lambda cell, row: land(cell, CellRun("failed", error=row["error"])),
                workers=processes,
            )
    lost = CoordinationError(f"all {workers} local workers exited before the cell landed")
    for fingerprint, cell in pending.items():
        if fingerprint not in seen:
            land(cell, CellRun("failed", error=failure_payload(lost)))
