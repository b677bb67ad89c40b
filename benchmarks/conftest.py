"""Shared configuration of the benchmark harness.

Each benchmark file regenerates one table or figure of the paper (see DESIGN.md §4) and
records the produced table under ``benchmarks/results/``.  Environment variables
control the cost/fidelity trade-off:

* ``REPRO_BENCH_WORKLOADS`` — ``subset`` (default, 8 representative workloads) or
  ``all`` (the full 19-benchmark suite, several times slower);
* ``REPRO_SIM_UOPS`` / ``REPRO_SIM_WARMUP`` — committed-µ-op budget per simulation
  (benchmark default: 8000 / 2500; the library's :mod:`repro.analysis.runner`
  defaults to 12000 / 3000 when these variables are unset);
* ``REPRO_RESULT_STORE`` — opt-in persistent result store (a JSON-lines file):
  when set, every simulation lands on disk and repeated benchmark sessions skip
  already-simulated cells entirely (see docs/campaign.md);
* ``REPRO_CAMPAIGN_WORKERS`` — run each figure's grid on a local fleet of that many
  forked worker processes (default 1, serial; see docs/campaign.md).

Within one pytest session, every simulated cell is also kept in the library's
in-process memo (a file-less result store keyed by cell fingerprint) across benchmark
files (the configurations are shared between figures), so the first file pays most
of the cost.
"""

from __future__ import annotations

import os
from pathlib import Path

import pytest

from repro.analysis.report import ExperimentResult, format_table
from repro.campaign.spec import BENCH_SUBSET
from repro.campaign.store import default_store
from repro.workloads.suite import all_workloads, workload

#: Representative subset: strong-VP, EE-friendly, IQ-hungry, offload-heavy, low-coverage
#: and memory-bound behaviours are all present (defined with the campaign's named sets).
SUBSET_NAMES = BENCH_SUBSET

RESULTS_DIR = Path(__file__).parent / "results"


def bench_max_uops() -> int:
    return int(os.environ.get("REPRO_SIM_UOPS", "8000"))


def bench_warmup_uops() -> int:
    return int(os.environ.get("REPRO_SIM_WARMUP", "2500"))


@pytest.fixture(scope="session")
def bench_workloads():
    """Workloads used by every benchmark (subset by default, full suite on request)."""
    if os.environ.get("REPRO_BENCH_WORKLOADS", "subset").lower() == "all":
        return all_workloads()
    return [workload(name) for name in SUBSET_NAMES]


@pytest.fixture(scope="session")
def bench_lengths():
    """(max_uops, warmup_uops) for every simulation run."""
    return bench_max_uops(), bench_warmup_uops()


@pytest.fixture(scope="session", autouse=True)
def figure_progress():
    """Per-figure progress/ETA lines for the long benchmark grids.

    Each figure submits its whole grid through :func:`repro.analysis.runner.run_grid`,
    which consults ``REPRO_PROGRESS``; enabling it here (opt-out: export
    ``REPRO_PROGRESS=0``) makes every grid print cells-done / elapsed / ETA lines to
    stderr, labelled with the figure's experiment id.
    """
    previous = os.environ.get("REPRO_PROGRESS")
    if previous is None:
        os.environ["REPRO_PROGRESS"] = "1"
    yield
    if previous is None:
        os.environ.pop("REPRO_PROGRESS", None)


@pytest.fixture(scope="session", autouse=True)
def persistent_result_store():
    """Report the opt-in persistent store (``REPRO_RESULT_STORE``) around the session.

    The experiment runner consults the store automatically on every simulation, so
    this fixture only has to surface what happened: how many cells were already on
    disk when the session started and how many it contributed.
    """
    store = default_store()
    if store is None:
        yield None
        return
    before = len(store)
    print(f"\n[repro] persistent result store: {store.path} ({before} cells on entry)")
    yield store
    print(
        f"\n[repro] persistent result store: {store.path} "
        f"({len(store)} cells on exit, +{len(store) - before} this session)"
    )


@pytest.fixture(scope="session", autouse=True)
def trace_cache_summary():
    """Report shared trace-cache effectiveness at the end of the benchmark session.

    Every figure grid replays workload traces from :data:`shared_trace_cache`; the
    capture/hit split shows how much architectural emulation the cache avoided
    (high hit counts are why repeated figures are cheap).
    """
    from repro.trace.cache import shared_trace_cache

    yield
    captures = shared_trace_cache.captures
    hits = shared_trace_cache.hits + shared_trace_cache.store_hits
    if captures or hits:
        print(
            f"\n[repro] shared trace cache: {captures} captures, {hits} hits "
            f"({shared_trace_cache.store_hits} from the persistent trace store)"
        )


def record_result(result: ExperimentResult) -> str:
    """Render, persist and return the table of an experiment result."""
    table = format_table(result)
    RESULTS_DIR.mkdir(exist_ok=True)
    path = RESULTS_DIR / f"{result.experiment_id}.txt"
    path.write_text(table + "\n")
    return table
