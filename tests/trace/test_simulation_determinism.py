"""Bit-identity of simulation results across execution strategies.

Three hard invariants are enforced here, each against a reference of
``tests/oracles.py``:

* **trace subsystem** — every ``SimulationResult`` must be *byte identical* whether
  the simulator replays the step-wise reference trace, a shared in-process capture,
  or a capture decoded from the on-disk store;
* **event-driven scheduler** — the cycle-skipping event wheel must produce results
  byte-identical to the cycle-stepping ``SteppedSimulator`` across the throughput
  harness's 4-configuration × 4-workload grid, plus ``mcf`` (whose IQ stays full)
  and ``OLE_4_64`` (the banked machine without Early Execution);
* **dependency-driven wake-up** — the consumer-list issue queue must produce
  results byte-identical to the ``ScanIssueQueue`` across the same full grid.
"""

import json

import pytest

from repro.campaign.executor import simulate_cell
from repro.campaign.spec import CampaignCell
from repro.pipeline.config import named_config
from repro.pipeline.simulator import simulate
from repro.trace.cache import shared_trace_cache
from repro.trace.capture import capture_workload_trace, required_length
from repro.trace.encoding import CapturedTrace
from repro.trace.store import TRACE_STORE_ENV_VAR
from repro.workloads.suite import workload
from tests.oracles import use_oracles

GRID_CONFIGS = ("Baseline_6_64", "Baseline_VP_6_64", "EOLE_4_64")
GRID_WORKLOADS = ("gcc", "mcf")
MAX_UOPS, WARMUP_UOPS = 2500, 500

#: The throughput harness's grid (benchmarks/perf/throughput.py) plus the
#: machines and workload where dispatch parks on a full IQ (or must not): the
#: event-driven determinism gate runs the full 5 × 5 cross product.
EVENT_GRID_CONFIGS = (
    "Baseline_6_64",
    "Baseline_VP_6_64",
    "EOLE_4_64",
    "EOLE_4_64_4ports_4banks",
    "OLE_4_64",
)
EVENT_GRID_WORKLOADS = ("wupwise", "bzip2", "gcc", "milc", "mcf")


def _grid_dicts(configs, workloads) -> dict[str, dict]:
    out = {}
    for config_name in configs:
        for workload_name in workloads:
            cell = CampaignCell(
                config=named_config(config_name),
                workload_name=workload_name,
                max_uops=MAX_UOPS,
                warmup_uops=WARMUP_UOPS,
            )
            out[cell.describe()] = simulate_cell(cell).to_dict()
    return out


def test_grid_with_trace_cache_is_byte_identical_to_cold_run(monkeypatch):
    monkeypatch.delenv(TRACE_STORE_ENV_VAR, raising=False)
    shared_trace_cache.clear()
    cached = _grid_dicts(GRID_CONFIGS, GRID_WORKLOADS)
    use_oracles(monkeypatch, trace=True)
    cold = _grid_dicts(GRID_CONFIGS, GRID_WORKLOADS)
    assert json.dumps(cached, sort_keys=True) == json.dumps(cold, sort_keys=True)


def test_explicit_trace_matches_inline_emulation():
    config = named_config("Baseline_VP_6_64")
    wl = workload("gcc")
    trace = capture_workload_trace(wl, required_length(MAX_UOPS, config))
    from_trace = simulate(config, wl, MAX_UOPS, WARMUP_UOPS, trace)
    from_decoded = simulate(
        config, wl, MAX_UOPS, WARMUP_UOPS, CapturedTrace.from_bytes(trace.to_bytes(), wl.program)
    )
    assert from_trace.to_dict() == from_decoded.to_dict()


def test_disk_store_replay_is_byte_identical(monkeypatch, tmp_path):
    cell = CampaignCell(
        config=named_config("EOLE_4_64"),
        workload_name="mcf",
        max_uops=MAX_UOPS,
        warmup_uops=WARMUP_UOPS,
    )
    monkeypatch.delenv(TRACE_STORE_ENV_VAR, raising=False)
    shared_trace_cache.clear()
    in_memory = simulate_cell(cell).to_dict()

    monkeypatch.setenv(TRACE_STORE_ENV_VAR, str(tmp_path / "traces"))
    shared_trace_cache.clear()
    simulate_cell(cell)  # populates the store
    shared_trace_cache.clear()  # force the next run to decode from disk
    from_disk = simulate_cell(cell).to_dict()
    assert from_disk == in_memory


def test_shared_cache_counts_replays():
    shared_trace_cache.clear()
    before = shared_trace_cache.captures
    for config_name in ("Baseline_6_64", "EOLE_4_64"):
        cell = CampaignCell(
            config=named_config(config_name),
            workload_name="wupwise",
            max_uops=1000,
            warmup_uops=0,
        )
        simulate_cell(cell)
    assert shared_trace_cache.captures == before + 1  # one emulation, two configs


def test_event_driven_grid_is_byte_identical_to_cycle_stepping(monkeypatch):
    """The cycle-skipping event wheel is invisible across the full 5 × 5 grid.

    Every counter — including the per-stalled-cycle dispatch statistics that the
    scheduler credits in bulk for skipped spans — must match the cycle-stepping
    reference loop exactly.
    """
    monkeypatch.delenv(TRACE_STORE_ENV_VAR, raising=False)
    event = _grid_dicts(EVENT_GRID_CONFIGS, EVENT_GRID_WORKLOADS)
    use_oracles(monkeypatch, loop=True)
    stepped = _grid_dicts(EVENT_GRID_CONFIGS, EVENT_GRID_WORKLOADS)
    assert json.dumps(event, sort_keys=True) == json.dumps(stepped, sort_keys=True)


def test_wakeup_lists_grid_is_byte_identical_to_scan_reference(monkeypatch):
    """The dependency-driven wake-up IQ is invisible across the full 5 × 5 grid.

    Selection order, issue cycles, functional-unit interactions, squash/replay
    recovery and every derived statistic must match the ``ScanIssueQueue``
    exactly.
    """
    monkeypatch.delenv(TRACE_STORE_ENV_VAR, raising=False)
    wake = _grid_dicts(EVENT_GRID_CONFIGS, EVENT_GRID_WORKLOADS)
    use_oracles(monkeypatch, queue=True)
    scan = _grid_dicts(EVENT_GRID_CONFIGS, EVENT_GRID_WORKLOADS)
    assert json.dumps(wake, sort_keys=True) == json.dumps(scan, sort_keys=True)


def test_wakeup_lists_off_under_cycle_stepping_matches_default(monkeypatch):
    """Both references together (scan IQ + stepping loop) still agree with the
    default fast paths — the four execution strategies form one equivalence class."""
    monkeypatch.delenv(TRACE_STORE_ENV_VAR, raising=False)
    cell = CampaignCell(
        config=named_config("EOLE_4_64"),
        workload_name="gcc",
        max_uops=MAX_UOPS,
        warmup_uops=WARMUP_UOPS,
    )
    fast = simulate_cell(cell).to_dict()
    use_oracles(monkeypatch, loop=True, queue=True)
    reference = simulate_cell(cell).to_dict()
    assert fast == reference


def test_fault_arming_never_perturbs_simulation(monkeypatch):
    """``REPRO_FAULTS`` touches durability plumbing and liveness only: arming a
    plan — even one whose sites fire on every hit — leaves every simulation
    counter byte-identical to the faults-off run (the sites live in store/trace
    I/O and lease transitions, never in simulator loops)."""
    from repro.faults.plan import FAULTS_ENV_VAR, active_faults

    cell = CampaignCell(
        config=named_config("EOLE_4_64"),
        workload_name="gcc",
        max_uops=MAX_UOPS,
        warmup_uops=WARMUP_UOPS,
    )
    monkeypatch.delenv(FAULTS_ENV_VAR, raising=False)
    assert active_faults() is None  # the kill switch: off means off
    shared_trace_cache.clear()
    baseline = simulate_cell(cell).to_dict()

    monkeypatch.setenv(
        FAULTS_ENV_VAR,
        "coord.heartbeat.drop:every=1:n=0;coord.claim.delay:every=1:n=0:delay=0",
    )
    shared_trace_cache.clear()
    armed = simulate_cell(cell).to_dict()
    monkeypatch.delenv(FAULTS_ENV_VAR)
    assert json.dumps(armed, sort_keys=True) == json.dumps(baseline, sort_keys=True)


def test_fleet_under_injected_faults_is_byte_identical(monkeypatch, tmp_path):
    """A leased-queue fleet worker crashing on an injected torn append and losing
    heartbeats still lands results byte-identical to the serial path: crashes
    cost retries, never bits (the chaos smoke runs the subprocess version)."""
    from repro.campaign.coordinator import CampaignService, work_loop
    from repro.campaign.executor import run_campaign
    from repro.campaign.spec import Campaign
    from repro.faults.plan import FAULTS_ENV_VAR

    campaign = Campaign.from_names(
        GRID_CONFIGS[:2],
        ",".join(GRID_WORKLOADS),
        max_uops=MAX_UOPS,
        warmup_uops=WARMUP_UOPS,
        name="faulty-fleet",
    )
    service = CampaignService(tmp_path / "svc")
    service.submit(campaign, backoff_seconds=0.05, max_attempts=4)
    monkeypatch.setenv(TRACE_STORE_ENV_VAR, str(service.trace_dir))
    monkeypatch.setenv(
        FAULTS_ENV_VAR,
        "store.append.torn:at=2;coord.heartbeat.drop:every=2:n=0",
    )
    shared_trace_cache.clear()
    counts = work_loop(service, worker_id="w1", poll_seconds=0.05)
    monkeypatch.delenv(FAULTS_ENV_VAR)
    assert counts["requeued"] >= 1  # the torn append really did cost a retry

    store = service.result_store()
    assert not store.failures()
    monkeypatch.delenv(TRACE_STORE_ENV_VAR)
    shared_trace_cache.clear()
    serial = run_campaign(campaign, store=None, workers=1)
    for cell in campaign.cells():
        record = store.get_record(cell.fingerprint)
        expected = serial.results[(cell.config.name, cell.workload_name)]
        assert record is not None, f"missing {cell.describe()}"
        assert json.dumps(record["result"], sort_keys=True) == json.dumps(
            expected.to_dict(), sort_keys=True
        ), f"fleet result diverges for {cell.describe()}"


@pytest.fixture(autouse=True)
def _clean_shared_cache():
    yield
    shared_trace_cache.clear()
