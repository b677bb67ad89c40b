"""The serial, parallel and step-wise reference paths pinned to the committed
golden, not just to each other.

Every other parallel test compares one execution flavour against another, so a
change to shared model code (predictors, FPC, LSQ) moves both sides at once and
stays invisible.  These cells are checked against the benchmark's committed
``figure_grid`` digests instead: the first 16 hex digits of the SHA-256 of the
sorted-JSON ``SimulationResult.to_dict()``.  An intentional model change
regenerates the goldens (see perfbench/README.md).
"""

import hashlib
import json
from pathlib import Path

import pytest

from repro.campaign.executor import run_campaign
from repro.campaign.spec import Campaign
from repro.campaign.store import ResultStore
from repro.trace.cache import TRACE_CACHE_ENV_VAR, shared_trace_cache
from repro.workloads.suite import workload

GOLDEN = Path(__file__).resolve().parents[2] / "perfbench" / "golden" / "seed-0.json"
HEADLINE_CONFIGS = ("Baseline_6_64", "Baseline_VP_6_64", "EOLE_4_64", "EOLE_4_64_4ports_4banks")


def _digest(result) -> str:
    return hashlib.sha256(json.dumps(result.to_dict(), sort_keys=True).encode()).hexdigest()[:16]


def _figure_grid_campaign() -> Campaign:
    return Campaign.from_names(
        HEADLINE_CONFIGS, "gcc,mcf", max_uops=8000, warmup_uops=2500, seed=0,
        name="figure_grid",
    )


def _assert_matches_golden(campaign, outcome) -> None:
    expected = json.loads(GOLDEN.read_text())["figure_grid"]
    assert not outcome.failed
    digests = {
        cell.describe(): _digest(outcome.results[(cell.config.name, cell.workload_name)])
        for cell in campaign.cells()
    }
    assert digests == {cell_id: expected[cell_id] for cell_id in digests}


@pytest.mark.parametrize(
    "workers, env",
    [(1, {}), (2, {}), (1, {TRACE_CACHE_ENV_VAR: "0"})],
    ids=["serial", "fleet", "serial-stepwise"],
)
def test_campaign_matches_the_committed_golden(tmp_path, monkeypatch, workers, env):
    """``serial-stepwise`` replays the step-wise emulator's reference trace, the
    oracle for the batched capture the other two replay."""
    for name, value in env.items():
        monkeypatch.setenv(name, value)
    campaign = _figure_grid_campaign()
    outcome = run_campaign(campaign, store=ResultStore(tmp_path / "s.jsonl"), workers=workers)
    _assert_matches_golden(campaign, outcome)


def test_replaying_study_captures_matches_the_committed_golden(tmp_path, monkeypatch):
    """Cells replaying traces first captured for a trace-level study.

    ``trace_for_length`` captures columns without ``DynInst`` objects; the
    timing replay then decodes them, the crossing from the study form.  The
    test is about the cache, so it runs with the cache on whatever the
    environment says (``REPRO_TRACE_CACHE=0`` has its own case above).
    """
    monkeypatch.delenv(TRACE_CACHE_ENV_VAR, raising=False)
    campaign = _figure_grid_campaign()
    shared_trace_cache.clear()
    try:
        for name in ("gcc", "mcf"):
            assert shared_trace_cache.trace_for_length(workload(name), 20000)._insts is None
        captures, hits = shared_trace_cache.captures, shared_trace_cache.hits
        outcome = run_campaign(campaign, store=ResultStore(tmp_path / "s.jsonl"), workers=1)
        assert shared_trace_cache.captures == captures, "a cell re-captured its trace"
        assert shared_trace_cache.hits - hits == len(campaign.cells())
    finally:
        shared_trace_cache.clear()
    _assert_matches_golden(campaign, outcome)
