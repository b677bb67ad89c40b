"""The campaign executor: run a cell grid, checkpointing every finished cell.

:func:`run_cell` is the one cell ladder — the serial loop, fleet workers and the
library's ad-hoc workloads all go down it:

1. a hit in the :class:`~repro.campaign.store.ResultStore` (a file-backed store
   from a previous campaign/process/session, or the library's file-less
   in-process memo) costs one dict → :class:`SimulationResult` conversion;
2. everything else is simulated and appended as it lands — a result row with its
   telemetry, or a failure row — so an interrupted campaign resumes at step 1.

The store keys a cell by its :attr:`~repro.campaign.spec.CampaignCell.fingerprint`,
a hash of the whole configuration, so two machines that share a display name never
share a result.

:func:`run_campaign` runs the ladder inline when ``workers <= 1``, else on a local
fleet (:func:`~repro.campaign.coordinator.run_local_fleet`), the one parallel path.
Inline, the cells run workload-major — every configuration of one workload, then the
next workload, as the fleet groups its leases — so each workload's trace is captured
once and released from the shared trace cache once its last cell has run; the
outcome still lists its results in :meth:`~repro.campaign.spec.Campaign.cells` order.
Determinism is unaffected by parallelism because each cell is self-contained — the
simulator derives all randomness from the configuration's ``predictor_seed`` (or the
campaign-derived per-cell seed, see :class:`~repro.campaign.spec.Campaign`), never
from scheduling order.
"""

from __future__ import annotations

import os
import socket
import time
import traceback
from dataclasses import dataclass, field

from repro.campaign.progress import ProgressReporter
from repro.campaign.spec import Campaign, CampaignCell
from repro.campaign.store import ResultStore, default_store
from repro.errors import ReproError
from repro.obs.telemetry import TraceCacheSnapshot, cell_telemetry
from repro.pipeline.simulator import simulate
from repro.pipeline.stats import SimulationResult
from repro.trace.cache import shared_trace_cache
from repro.workloads.suite import Workload, workload

#: Environment variable overriding the worker-process count.
WORKERS_ENV_VAR = "REPRO_CAMPAIGN_WORKERS"


def failure_payload(error: BaseException, worker: str | None = None, attempts: int = 1) -> dict:
    """The structured error dict stored with a failed cell (see ``put_failure``).

    Captures enough to triage without re-running: exception type/message, a
    trimmed traceback, and where/how often the cell was attempted.
    """
    return {
        "type": type(error).__name__,
        "message": str(error),
        "traceback": "".join(
            traceback.format_exception(type(error), error, error.__traceback__)
        )[-4000:],
        "worker": worker if worker is not None else f"{socket.gethostname()}:{os.getpid()}",
        "attempts": attempts,
        "unix_time": time.time(),
    }


def default_workers(fallback: int = 1) -> int:
    """Worker processes for a campaign: env ``REPRO_CAMPAIGN_WORKERS``, else ``fallback``.

    The one reader of the variable.  Library calls fall back to serial; the
    ``run`` command falls back to every core.
    """
    env = os.environ.get(WORKERS_ENV_VAR)
    return max(1, int(env)) if env else fallback


def simulate_cell(cell: CampaignCell, wl: Workload | None = None) -> SimulationResult:
    """Simulate one cell; inside the library its one caller is :func:`run_cell`.

    ``wl`` short-circuits the suite lookup when the caller owns the workload
    object (:func:`repro.analysis.runner.run_grid`'s ad-hoc workloads); every
    other cell re-derives its workload from its name.
    :func:`~repro.pipeline.simulator.simulate` replays the shared trace cache's trace.
    """
    return simulate(
        cell.config,
        wl if wl is not None else workload(cell.workload_name),
        cell.max_uops,
        cell.warmup_uops,
    )


class CellFailed(ReproError):
    """Raised by the library API once a grid has finished with failed cells.

    ``failed`` maps ``(config_name, workload_name)`` to each cell's error dict
    (see :func:`failure_payload`); every other cell of the grid has its row.
    """

    def __init__(self, failed: dict[tuple[str, str], dict]) -> None:
        self.failed = failed
        super().__init__("failed cells: " + "; ".join(
            f"{config}/{name} ({error.get('type')}: {error.get('message')})"
            for (config, name), error in failed.items()
        ))


@dataclass
class CellRun:
    """One cell's way down :func:`run_cell`."""

    #: ``"store"``, ``"simulated"`` or ``"failed"``.
    source: str
    result: SimulationResult | None = None
    #: The :func:`failure_payload` of a failed cell.
    error: dict | None = None
    #: The :func:`cell_telemetry` row of a simulated cell.
    telemetry: dict | None = None


def _reuse(cell: CampaignCell, store, reporter) -> CellRun | None:
    """Ladder step 1: a store hit, reported as reused."""
    result = store.get(cell.fingerprint) if store is not None else None
    if result is None:
        return None
    if reporter is not None:
        reporter.cell_done(cell, 0.0, reused=True)
    return CellRun("store", result)


def _land(cell: CampaignCell, run: CellRun, store, reporter) -> CellRun:
    """Ladder steps 3–4: append the result or failure row, report."""
    if run.error is not None:
        if store is not None:
            store.put_failure(cell, run.error)
        if reporter is not None:
            reporter.cell_failed(cell, run.error)
        return run
    if store is not None:
        store.put(cell, run.result, run.telemetry)
    if reporter is not None:
        reporter.cell_done(cell, run.telemetry["wall_seconds"], reused=False)
    return run


def run_cell(
    cell: CampaignCell,
    wl: Workload | None = None,
    store: ResultStore | None = None,
    reporter: ProgressReporter | None = None,
    telemetry: dict | None = None,
    requeued: bool = False,
) -> CellRun:
    """The one in-process cell ladder: store → simulate → append → report.

    A simulated cell is appended to ``store`` with its :func:`cell_telemetry` row,
    extended by ``telemetry`` (a fleet worker's ``worker``/``lease_id``).  A cell
    whose simulation raises never raises here: it returns a ``"failed"`` run
    carrying its :func:`failure_payload` and, unless ``requeued`` (a fleet lease,
    which retries the cell itself), appends a failure row.
    """
    run = _reuse(cell, store, reporter)
    if run is not None:
        return run
    if reporter is not None:
        reporter.cell_started(cell)
    snapshot = TraceCacheSnapshot()
    started = time.monotonic()
    try:
        result = simulate_cell(cell, wl)
    except Exception as error:  # noqa: BLE001 — one bad cell must not sink the grid
        run = CellRun("failed", error=failure_payload(error))
        return run if requeued else _land(cell, run, store, reporter)
    row = cell_telemetry(result, time.monotonic() - started, snapshot)
    row.update(telemetry or {})
    return _land(cell, CellRun("simulated", result, telemetry=row), store, reporter)


@dataclass
class CampaignOutcome:
    """Everything :func:`run_campaign` learned: results plus provenance counters."""

    campaign: Campaign
    #: (config_name, workload_name) → result, covering every *completed* cell, in
    #: :meth:`Campaign.cells` order.
    results: dict[tuple[str, str], SimulationResult] = field(default_factory=dict)
    #: (config_name, workload_name) → structured error dict for cells whose
    #: simulation raised (see :func:`failure_payload`); absent from ``results``.
    failed: dict[tuple[str, str], dict] = field(default_factory=dict)
    simulated: int = 0
    from_store: int = 0
    elapsed_seconds: float = 0.0

    @property
    def failures(self) -> int:
        """Cells whose simulation raised (recorded in :attr:`failed`)."""
        return len(self.failed)

    def record(self, cell: CampaignCell, run: CellRun) -> None:
        """File one cell's :class:`CellRun` under its result or its failure."""
        key = (cell.config.name, cell.workload_name)
        if run.error is not None:
            self.failed[key] = run.error
            return
        self.results[key] = run.result
        if run.source == "store":
            self.from_store += 1
        else:
            self.simulated += 1

    def by_config(self) -> dict[str, dict[str, SimulationResult]]:
        """Results regrouped as config name → workload name → result."""
        grid: dict[str, dict[str, SimulationResult]] = {}
        for (config_name, workload_name), result in self.results.items():
            grid.setdefault(config_name, {})[workload_name] = result
        return grid


def run_campaign(
    campaign: Campaign,
    store: ResultStore | None = None,
    workers: int | None = None,
    progress: bool = False,
) -> CampaignOutcome:
    """Execute ``campaign``, reusing stored cells and persisting new ones.

    ``store=None`` falls back to the ``REPRO_RESULT_STORE`` default store when set.
    ``workers=None`` defers to :func:`default_workers` (serial unless the
    environment says otherwise).  A raising cell ends as a failure row in
    :attr:`CampaignOutcome.failed`; the rest of the grid still runs.

    Serial cells run workload-major, and each workload's traces are released from
    the shared trace cache after its last cell, so the cache holds one workload's
    traces at a time.  Progress events follow that execution order; the outcome's
    :attr:`~CampaignOutcome.results` and :attr:`~CampaignOutcome.failed` follow
    :meth:`Campaign.cells` order whatever the path.
    """
    started = time.monotonic()
    cells = campaign.cells()
    if store is None:
        store = default_store()
    workers = workers if workers is not None else default_workers()
    reporter = ProgressReporter(
        total=len(cells), enabled=progress, label=campaign.name, workers=workers
    )
    outcome = CampaignOutcome(campaign=campaign)

    if workers > 1:
        pending = []
        for cell in cells:
            run = _reuse(cell, store, reporter)
            if run is None:
                pending.append(cell)
            else:
                outcome.record(cell, run)
        cells = pending
    if workers <= 1 or len(cells) == 1:
        by_workload: dict[str, list[CampaignCell]] = {}
        for cell in cells:
            by_workload.setdefault(cell.workload_name, []).append(cell)
        for name, group in by_workload.items():
            for cell in group:
                outcome.record(cell, run_cell(cell, store=store, reporter=reporter))
            shared_trace_cache.release(name)
    elif cells:
        # Imported here: the coordinator builds on this module's cell ladder.
        from repro.campaign.coordinator import run_local_fleet

        run_local_fleet(
            campaign, cells, workers,
            lambda cell, run: outcome.record(cell, _land(cell, run, store, reporter)),
        )

    keys = [(cell.config.name, cell.workload_name) for cell in campaign.cells()]
    outcome.results = {key: outcome.results[key] for key in keys if key in outcome.results}
    outcome.failed = {key: outcome.failed[key] for key in keys if key in outcome.failed}
    outcome.elapsed_seconds = time.monotonic() - started
    reporter.finish()
    return outcome


def campaign_status(campaign: Campaign, store: ResultStore | None) -> dict:
    """Done/missing cell accounting for ``status`` reporting (no simulation)."""
    cells = campaign.cells()
    done = [cell for cell in cells if store is not None and cell.fingerprint in store]
    missing = [cell for cell in cells if store is None or cell.fingerprint not in store]
    return {
        "total": len(cells),
        "done": len(done),
        "missing": len(missing),
        "missing_cells": [cell.describe() for cell in missing],
    }
