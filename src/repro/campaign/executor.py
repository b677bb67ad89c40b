"""The campaign executor: run a cell grid, checkpointing every finished cell.

The execution order per cell is cache → store → simulate:

1. an in-memory cache hit (same process, e.g. a previous figure sharing the baseline)
   is free;
2. a persistent-store hit (a previous campaign/process/session) costs one dict →
   :class:`SimulationResult` conversion;
3. everything else is simulated — inline when ``workers <= 1``, otherwise on a local
   fleet (:func:`~repro.campaign.coordinator.run_local_fleet`), the one parallel
   path: ``workers`` forked workers lease the cells from a temporary service
   directory, with the fleet's retry-with-backoff-then-failure-row model.

Every finished simulation is appended to the store as it lands, so an interrupted
campaign is resumable: re-running it skips straight to the missing cells (step 2).
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
from repro.obs.telemetry import TraceCacheSnapshot, cell_telemetry
from repro.pipeline.simulator import Simulator
from repro.pipeline.stats import SimulationResult
from repro.trace.cache import shared_trace_cache, trace_cache_enabled
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


def simulate_cell(
    cell: CampaignCell, wl: Workload | None = None, trace=None
) -> SimulationResult:
    """Simulate one cell (the single primitive shared by every execution path).

    ``wl`` short-circuits the suite lookup when the caller already holds the workload
    object (the serial :func:`repro.analysis.runner.run_workload` path); worker
    processes pass only the cell and re-derive the workload from its name.

    The workload's committed µ-op stream comes from the shared trace cache
    (:mod:`repro.trace`): the architectural emulator runs once per workload and every
    configuration replays the captured trace.  ``REPRO_TRACE_CACHE=0`` restores the
    inline-emulation path (bit-identical, just slower).
    """
    wl = wl if wl is not None else workload(cell.workload_name)
    if trace is None and trace_cache_enabled():
        trace = shared_trace_cache.trace_for(wl, cell.max_uops, cell.config)
    arch_state = wl.make_state() if trace is None else None
    simulator = Simulator(
        cell.config,
        wl.program,
        max_uops=cell.max_uops,
        warmup_uops=cell.warmup_uops,
        arch_state=arch_state,
        workload_name=wl.name,
        trace=trace,
    )
    return simulator.run()


def _simulate_one_entry(cell: CampaignCell) -> dict:
    """Simulate one cell into a success/error entry (never raises).

    Either ``{"result", "seconds", "telemetry"}`` or ``{"error"}`` — a raising
    cell costs only itself.
    """
    snapshot = TraceCacheSnapshot()
    started = time.monotonic()
    try:
        result = simulate_cell(cell)
    except Exception as error:  # noqa: BLE001 — one bad cell must not sink the grid
        return {"error": failure_payload(error)}
    seconds = time.monotonic() - started
    return {
        "result": result.to_dict(),
        "seconds": seconds,
        "telemetry": cell_telemetry(result, seconds, snapshot),
    }


@dataclass
class CampaignOutcome:
    """Everything :func:`run_campaign` learned: results plus provenance counters."""

    campaign: Campaign
    #: (config_name, workload_name) → result, covering every *completed* cell.
    results: dict[tuple[str, str], SimulationResult] = field(default_factory=dict)
    #: (config_name, workload_name) → structured error dict for cells whose
    #: simulation raised (see :func:`failure_payload`); absent from ``results``.
    failed: dict[tuple[str, str], dict] = field(default_factory=dict)
    simulated: int = 0
    from_store: int = 0
    from_cache: int = 0
    elapsed_seconds: float = 0.0

    @property
    def failures(self) -> int:
        """Cells whose simulation raised (recorded in :attr:`failed`)."""
        return len(self.failed)

    def by_config(self) -> dict[str, dict[str, SimulationResult]]:
        """Results regrouped as config name → workload name → result."""
        grid: dict[str, dict[str, SimulationResult]] = {}
        for (config_name, workload_name), result in self.results.items():
            grid.setdefault(config_name, {})[workload_name] = result
        return grid

    def ipcs(self) -> dict[tuple[str, str], float]:
        """Per-cell IPC map (the paper's primary metric)."""
        return {key: result.ipc for key, result in self.results.items()}


def run_campaign(
    campaign: Campaign,
    store: ResultStore | None = None,
    workers: int | None = None,
    cache=None,
    progress: bool = False,
) -> CampaignOutcome:
    """Execute ``campaign``, reusing cached/stored cells and persisting new ones.

    ``cache`` is any object with ``get(key)``/``put(key, result)`` over
    :attr:`CampaignCell.key` tuples (e.g. :class:`repro.analysis.runner.ResultCache`);
    ``store=None`` falls back to the ``REPRO_RESULT_STORE`` default store when set.
    ``workers=None`` defers to :func:`default_workers` (serial unless the
    environment says otherwise).
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

    pending: list[CampaignCell] = []
    for cell in cells:
        cached = cache.get(cell.key) if cache is not None else None
        if cached is not None:
            outcome.results[(cell.config.name, cell.workload_name)] = cached
            outcome.from_cache += 1
            reporter.cell_done(cell, 0.0, reused=True)
            continue
        stored = store.get(cell.fingerprint) if store is not None else None
        if stored is not None:
            outcome.results[(cell.config.name, cell.workload_name)] = stored
            outcome.from_store += 1
            if cache is not None:
                cache.put(cell.key, stored)
            reporter.cell_done(cell, 0.0, reused=True)
            continue
        pending.append(cell)

    def complete(
        cell: CampaignCell,
        result: SimulationResult,
        seconds: float,
        telemetry: dict | None = None,
    ) -> None:
        outcome.results[(cell.config.name, cell.workload_name)] = result
        outcome.simulated += 1
        if store is not None:
            store.put(cell, result, telemetry)
        if cache is not None:
            cache.put(cell.key, result)
        reporter.cell_done(cell, seconds, reused=False)

    def fail(cell: CampaignCell, error: dict) -> None:
        outcome.failed[(cell.config.name, cell.workload_name)] = error
        if store is not None:
            store.put_failure(cell, error)
        reporter.cell_failed(cell, error)

    def deliver(cell: CampaignCell, entry: dict) -> None:
        """Route one worker entry (success or error) into the outcome/store."""
        if "error" in entry:
            fail(cell, entry["error"])
        else:
            complete(
                cell,
                SimulationResult.from_dict(entry["result"]),
                entry["seconds"],
                entry["telemetry"],
            )

    if pending:
        if workers <= 1 or len(pending) == 1:
            for cell in pending:
                reporter.cell_started(cell)
                deliver(cell, _simulate_one_entry(cell))
        else:
            # Imported here: the coordinator builds on this module's cell primitives.
            from repro.campaign.coordinator import run_local_fleet

            run_local_fleet(campaign, pending, workers, complete, fail)

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
