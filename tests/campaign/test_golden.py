"""The parallel path pinned to the committed golden, not just to the serial path.

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

from repro.campaign.executor import run_campaign
from repro.campaign.spec import Campaign
from repro.campaign.store import ResultStore

GOLDEN = Path(__file__).resolve().parents[2] / "perfbench" / "golden" / "seed-0.json"
HEADLINE_CONFIGS = ("Baseline_6_64", "Baseline_VP_6_64", "EOLE_4_64", "EOLE_4_64_4ports_4banks")


def _digest(result) -> str:
    return hashlib.sha256(json.dumps(result.to_dict(), sort_keys=True).encode()).hexdigest()[:16]


def test_parallel_campaign_matches_the_committed_golden(tmp_path):
    expected = json.loads(GOLDEN.read_text())["figure_grid"]
    campaign = Campaign.from_names(
        HEADLINE_CONFIGS, "gcc,mcf", max_uops=8000, warmup_uops=2500, seed=0,
        name="figure_grid",
    )
    outcome = run_campaign(campaign, store=ResultStore(tmp_path / "s.jsonl"), workers=2)
    assert not outcome.failed
    digests = {
        cell.describe(): _digest(outcome.results[(cell.config.name, cell.workload_name)])
        for cell in campaign.cells()
    }
    assert digests == {cell_id: expected[cell_id] for cell_id in digests}
