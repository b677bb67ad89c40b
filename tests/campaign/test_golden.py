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

import repro.isa.emulator as emulator_module
import repro.pipeline.simulator as simulator_module
import repro.trace.capture as capture_module
import repro.trace.encoding as encoding_module
from repro.campaign.executor import run_campaign
from repro.campaign.spec import Campaign
from repro.campaign.store import ResultStore
from repro.pipeline.simulator import Simulator
from repro.trace.cache import shared_trace_cache
from repro.trace.store import TRACE_STORE_ENV_VAR
from repro.workloads.suite import workload
from tests.oracles import use_oracles

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
    "workers, oracles",
    [
        (1, {}),
        (2, {}),
        (1, {"trace": True}),
        (1, {"loop": True}),
        (1, {"queue": True}),
    ],
    ids=["serial", "fleet", "serial-stepwise", "serial-cycle-stepping", "serial-scan-iq"],
)
def test_campaign_matches_the_committed_golden(tmp_path, monkeypatch, workers, oracles):
    """The last three ids run the references of ``tests/oracles.py``:
    ``serial-stepwise`` replays the step-wise emulator's trace (the batched
    capture's), ``serial-cycle-stepping`` steps every cycle (the event wheel's)
    and ``serial-scan-iq`` walks the scan issue queue (the wake-up lists')."""
    use_oracles(monkeypatch, **oracles)
    campaign = _figure_grid_campaign()
    outcome = run_campaign(campaign, store=ResultStore(tmp_path / "s.jsonl"), workers=workers)
    _assert_matches_golden(campaign, outcome)


def test_replaying_study_captures_matches_the_committed_golden(tmp_path):
    """Cells replaying traces first captured for a trace-level study.

    ``trace_for_length`` and ``trace_for`` share one capture form, so the
    cells replay the study's captures as they are.
    """
    campaign = _figure_grid_campaign()
    shared_trace_cache.clear()
    try:
        for name in ("gcc", "mcf"):
            shared_trace_cache.trace_for_length(workload(name), 20000)
        captures, hits = shared_trace_cache.captures, shared_trace_cache.hits
        outcome = run_campaign(campaign, store=ResultStore(tmp_path / "s.jsonl"), workers=1)
        assert shared_trace_cache.captures == captures, "a cell re-captured its trace"
        assert shared_trace_cache.hits - hits == len(campaign.cells())
    finally:
        shared_trace_cache.clear()
    _assert_matches_golden(campaign, outcome)


def _no_dyninst(*args, **kwargs):
    raise AssertionError("the timing replay built a DynInst")


def test_replay_builds_no_dyninst(tmp_path, monkeypatch):
    """Captured and store-loaded traces replay from their columns alone.

    ``DynInst`` raises wherever the capture, the encoding, the emulator or the
    simulator could build one; a first campaign captures its traces and saves
    them to a trace store, and a second, on a cold cache, loads them.  Both
    must match the golden.
    """
    monkeypatch.setenv(TRACE_STORE_ENV_VAR, str(tmp_path / "traces"))
    for module in (simulator_module, encoding_module, capture_module, emulator_module):
        monkeypatch.setattr(module, "DynInst", _no_dyninst, raising=False)
    campaign = _figure_grid_campaign()
    try:
        for run in ("captured", "store-loaded"):
            shared_trace_cache.clear()
            store_hits = shared_trace_cache.store_hits
            outcome = run_campaign(
                campaign, store=ResultStore(tmp_path / f"{run}.jsonl"), workers=1
            )
            _assert_matches_golden(campaign, outcome)
            loaded = shared_trace_cache.store_hits - store_hits
            assert loaded == (2 if run == "store-loaded" else 0), run
    finally:
        shared_trace_cache.clear()


class _NeverFree(list):
    """A pool free list that drops every slot, so no record is ever recycled."""

    def append(self, slot):
        pass


def test_unpooled_records_match_the_committed_golden():
    """Every fetch builds a fresh ``InflightOp`` through ``pool.acquire``; the
    results must not tell a recycled record from a new one.  The Perfetto and
    Konata exports are not compared: their lanes are pool slots."""
    expected = json.loads(GOLDEN.read_text())["figure_grid"]
    try:
        for cell in _figure_grid_campaign().cells():
            trace = shared_trace_cache.trace_for(
                workload(cell.workload_name), cell.max_uops, cell.config
            )
            simulator = Simulator(cell.config, trace, cell.max_uops, cell.warmup_uops)
            simulator.pool._free = _NeverFree()
            result = simulator.run()
            assert simulator.pool.allocated == result.full_stats.fetched_uops
            assert _digest(result) == expected[cell.describe()], cell.describe()
    finally:
        shared_trace_cache.clear()


class _NoMRU(list):
    """An L1I set whose ``[0]`` never equals a line: ``_fetch``'s MRU shortcut and
    ``Cache.access``'s MRU branch both miss it and take the general ``line in ways``
    path, which keeps the same LRU order and counts."""

    def __getitem__(self, index):
        return -1 if index == 0 else super().__getitem__(index)


def test_general_l1i_path_matches_the_committed_golden():
    """``_fetch`` serves an MRU L1I hit inline; ``MemoryHierarchy.fetch`` is its
    reference.  Forcing every fetch through the reference must leave the results
    and the L1I counters unchanged."""
    expected = json.loads(GOLDEN.read_text())["figure_grid"]
    try:
        for cell in _figure_grid_campaign().cells():
            trace = shared_trace_cache.trace_for(
                workload(cell.workload_name), cell.max_uops, cell.config
            )
            runs = []
            for force_general in (False, True):
                simulator = Simulator(cell.config, trace, cell.max_uops, cell.warmup_uops)
                hierarchy = simulator.hierarchy
                reference_calls = []
                if force_general:
                    hierarchy.l1i._sets[:] = [_NoMRU(ways) for ways in hierarchy.l1i._sets]
                    reference = hierarchy.fetch

                    def counted_fetch(pc, cycle, reference=reference, calls=reference_calls):
                        calls.append(pc)
                        return reference(pc, cycle)

                    hierarchy.fetch = counted_fetch
                result = simulator.run()
                stats = hierarchy.l1i.stats
                runs.append((_digest(result), stats.accesses, stats.hits, stats.misses))
            assert len(reference_calls) == stats.accesses  # no fetch took the shortcut
            assert runs[1] == runs[0], cell.describe()
            assert runs[1][0] == expected[cell.describe()], cell.describe()
    finally:
        shared_trace_cache.clear()
