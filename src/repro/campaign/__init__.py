"""Parallel simulation campaigns with a persistent result store.

The campaign subsystem turns the (configuration × workload) grids behind every figure
of the paper into first-class, resumable jobs:

* :mod:`repro.campaign.spec` — :class:`Campaign`/:class:`CampaignCell` grid specs with
  SPEC-style named workload sets and content-addressed cell fingerprints;
* :mod:`repro.campaign.store` — :class:`ResultStore`, an append-only JSON-lines store
  with load/merge/invalidate semantics (env default: ``REPRO_RESULT_STORE``);
* :mod:`repro.campaign.executor` — :func:`run_campaign`, simulating cells inline or on
  a local fleet of forked workers (env: ``REPRO_CAMPAIGN_WORKERS``) with per-cell
  checkpointing and resume;
* :mod:`repro.campaign.coordinator` — :class:`CampaignService`, the leased work queue
  over a shared directory behind every parallel run (``run --workers``,
  ``repro-campaign serve`` / ``work``);
* :mod:`repro.campaign.progress` — per-cell progress lines with wall-clock ETA;
* :mod:`repro.campaign.cli` — the ``python -m repro.campaign`` command line.

Quickstart::

    from repro.campaign import Campaign, ResultStore, run_campaign

    campaign = Campaign.from_names(["Baseline_6_64", "EOLE_4_64"], "subset",
                                   max_uops=8000, warmup_uops=2000)
    outcome = run_campaign(campaign, store=ResultStore("results.jsonl"), workers=4)
    print(outcome.ipcs())          # every cell, freshly simulated
    outcome = run_campaign(campaign, store=ResultStore("results.jsonl"))
    print(outcome.simulated)       # 0 — everything came from the store
"""

from repro.campaign.coordinator import (
    CampaignService,
    CoordinationError,
    Lease,
    default_worker_id,
    serve,
    work_loop,
)
from repro.campaign.executor import (
    CampaignOutcome,
    campaign_status,
    default_workers,
    failure_payload,
    run_campaign,
    simulate_cell,
)
from repro.campaign.progress import ProgressReporter, format_duration
from repro.campaign.spec import (
    BENCH_SUBSET,
    WORKLOAD_SETS,
    Campaign,
    CampaignCell,
    derive_seed,
    resolve_workload_names,
)
from repro.campaign.store import STORE_ENV_VAR, ResultStore, default_store

__all__ = [
    "BENCH_SUBSET",
    "Campaign",
    "CampaignCell",
    "CampaignOutcome",
    "CampaignService",
    "CoordinationError",
    "Lease",
    "ProgressReporter",
    "ResultStore",
    "STORE_ENV_VAR",
    "WORKLOAD_SETS",
    "campaign_status",
    "default_store",
    "default_worker_id",
    "default_workers",
    "derive_seed",
    "failure_payload",
    "format_duration",
    "resolve_workload_names",
    "run_campaign",
    "serve",
    "simulate_cell",
    "work_loop",
]
