"""Experiment runner: simulate (configuration × workload) grids with result reuse.

Every figure of the paper compares several machine configurations over the same
workload suite, and several figures share configurations (``Baseline_VP_6_64`` is the
normalisation baseline of Figs. 7, 8, 12 and 13).  :func:`run_grid` submits a grid
to the campaign engine (:mod:`repro.campaign`); :func:`run_suite` and
:func:`run_workload` are its one-configuration and one-cell cases.  Every cell goes
down the engine's one cell ladder (:func:`~repro.campaign.executor.run_cell`):

1. one :class:`~repro.campaign.store.ResultStore` serves cells already simulated:
   the caller's ``store=``, else the opt-in persistent store (env
   ``REPRO_RESULT_STORE``) that carries results across processes and sessions,
   else a file-less store memoising results within this process, which keeps the
   full benchmark harness affordable;
2. anything left is simulated — serially by default, or on a local fleet of worker
   processes when ``REPRO_CAMPAIGN_WORKERS`` (or an explicit ``workers=``) says so.

The store keys a cell by its fingerprint, which hashes the whole configuration and
the workload *name*, so a caller's own :class:`~repro.workloads.suite.Workload`
objects bypass it.  A raising cell never
stops its grid; once the grid has finished, :class:`CellFailed` names every failed
cell.

Run lengths default to a scaled-down region of interest (the paper uses 50M warm-up +
100M instructions; see DESIGN.md §5 for why a few thousand µ-ops of these steady-state
kernels are representative).  They can be overridden globally through the
``REPRO_SIM_UOPS`` / ``REPRO_SIM_WARMUP`` environment variables or per call.
"""

from __future__ import annotations

import os
from collections.abc import Iterable

from repro.campaign.executor import CellFailed, run_campaign, run_cell
from repro.campaign.progress import ProgressReporter
from repro.campaign.spec import Campaign, CampaignCell
from repro.campaign.store import ResultStore, default_store
from repro.pipeline.config import PipelineConfig
from repro.pipeline.stats import SimulationResult
from repro.workloads.suite import SUITE_ORDER, Workload, all_workloads, workload


def default_max_uops() -> int:
    """Per-run committed-µ-op budget (env ``REPRO_SIM_UOPS``, default 12000)."""
    return int(os.environ.get("REPRO_SIM_UOPS", "12000"))


def default_warmup_uops() -> int:
    """Warm-up µ-ops excluded from the measurement window (env ``REPRO_SIM_WARMUP``)."""
    return int(os.environ.get("REPRO_SIM_WARMUP", "3000"))


#: Environment variable: any value other than ``0``/empty makes library-level grid
#: runs print per-cell progress/ETA lines (the benchmark harness enables it so long
#: figure grids report cells-done/ETA on stderr).
PROGRESS_ENV_VAR = "REPRO_PROGRESS"


def default_progress() -> bool:
    """Whether grid runs report progress when the caller does not say (env)."""
    return os.environ.get(PROGRESS_ENV_VAR, "0") not in ("", "0")


#: The in-process memo: every library grid run without a store of its own, when
#: ``REPRO_RESULT_STORE`` names none, reuses its cells through this file-less store.
_memo = ResultStore(None)


def run_workload(
    config: PipelineConfig,
    workload: Workload,
    max_uops: int | None = None,
    warmup_uops: int | None = None,
    store: ResultStore | None = None,
    progress: bool | None = None,
) -> SimulationResult:
    """Simulate ``workload`` on ``config``: a one-cell :func:`run_grid`.

    Raises :class:`~repro.campaign.executor.CellFailed` when the simulation raised.
    """
    grid = run_grid(
        [config], [workload], max_uops, warmup_uops, store,
        workers=1, progress=progress, label=f"{config.name}/{workload.name}",
    )
    return grid[config.name][workload.name]


def run_grid(
    configs: Iterable[PipelineConfig],
    workloads: Iterable[Workload] | None = None,
    max_uops: int | None = None,
    warmup_uops: int | None = None,
    store: ResultStore | None = None,
    workers: int | None = None,
    progress: bool | None = None,
    label: str | None = None,
) -> dict[str, dict[str, SimulationResult]]:
    """Simulate every (config, workload) pair; returns config name → workload → result.

    The whole grid is submitted to the campaign engine at once, so with ``workers > 1``
    the cells of *different* configurations are leased to the local fleet together —
    the unit of parallelism is the cell, not the configuration row.  ``workers=None``
    defers to :func:`~repro.campaign.executor.default_workers` (serial by default).
    ``store=None`` reuses cells through the ``REPRO_RESULT_STORE`` store when it is
    set, else through this process's file-less memo.

    ``progress=None`` defers to the ``REPRO_PROGRESS`` environment variable; when
    enabled, per-cell done-count/ETA lines are printed to stderr, labelled with
    ``label`` (e.g. the figure id the benchmark harness is regenerating).

    A raising cell never stops the grid: once every other cell has its row, a
    :class:`~repro.campaign.executor.CellFailed` names every failed cell.
    """
    configs = list(configs)
    selected = list(workloads) if workloads is not None else all_workloads()
    max_uops = max_uops if max_uops is not None else default_max_uops()
    warmup_uops = warmup_uops if warmup_uops is not None else default_warmup_uops()
    progress = progress if progress is not None else default_progress()
    label = label if label else "grid"

    # The campaign engine and its store key cells by workload *name*, so they may
    # only see the registry's own instances: an ad-hoc Workload that merely
    # shares a suite name must never read or write its twin's results.
    names = [wl.name for wl in selected]
    if len(set(names)) == len(names) and all(
        name in SUITE_ORDER and workload(name) is wl for name, wl in zip(names, selected)
    ):
        if store is None:
            store = default_store()
        if store is None:
            store = _memo
        campaign = Campaign(
            name=label,
            configs=tuple(configs),
            workload_names=tuple(names),
            max_uops=max_uops,
            warmup_uops=warmup_uops,
        )
        outcome = run_campaign(campaign, store=store, workers=workers, progress=progress)
        grid, failed = outcome.by_config(), outcome.failed
    else:
        # Ad-hoc workloads run in this process, through the same cell ladder with
        # the store off.
        grid, failed = {}, {}
        reporter = ProgressReporter(
            total=len(configs) * len(selected), enabled=progress, label=label
        )
        for config in configs:
            for wl in selected:
                cell = CampaignCell(config, wl.name, max_uops, warmup_uops)
                run = run_cell(cell, wl, reporter=reporter)
                if run.error is not None:
                    failed[(config.name, wl.name)] = run.error
                else:
                    grid.setdefault(config.name, {})[wl.name] = run.result
        reporter.finish()
    if failed:
        raise CellFailed(failed)
    return grid


def run_suite(
    config: PipelineConfig,
    workloads: Iterable[Workload] | None = None,
    max_uops: int | None = None,
    warmup_uops: int | None = None,
    store: ResultStore | None = None,
    workers: int | None = None,
) -> dict[str, SimulationResult]:
    """Simulate every workload on ``config``; returns results keyed by workload name."""
    return run_grid([config], workloads, max_uops, warmup_uops, store, workers)[config.name]


def suite_ipcs(results: dict[str, SimulationResult]) -> dict[str, float]:
    """Extract the per-workload IPCs from a suite result dictionary."""
    return {name: result.ipc for name, result in results.items()}
