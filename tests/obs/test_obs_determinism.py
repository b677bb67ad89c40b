"""Observability kill-switches are invisible: the full throughput grid stays
byte-identical with tracing on, and with metrics on once the opt-in payload is
removed — the same bar the event wheel and the wake-up lists meet against their
references."""

import json

import pytest

from repro.campaign.executor import simulate_cell
from repro.campaign.spec import CampaignCell
from repro.obs.metrics import METRICS_ENV_VAR
from repro.obs.tracer import PIPE_TRACE_ENV_VAR
from repro.pipeline.config import named_config
from repro.trace.cache import shared_trace_cache
from tests.oracles import use_oracles

GRID_CONFIGS = (
    "Baseline_6_64",
    "Baseline_VP_6_64",
    "EOLE_4_64",
    "EOLE_4_64_4ports_4banks",
)
GRID_WORKLOADS = ("wupwise", "bzip2", "gcc", "milc")
MAX_UOPS, WARMUP_UOPS = 2500, 500


@pytest.fixture(autouse=True)
def _clean_shared_cache():
    yield
    shared_trace_cache.clear()


def _grid_dicts() -> dict[str, dict]:
    out = {}
    for config_name in GRID_CONFIGS:
        for workload_name in GRID_WORKLOADS:
            cell = CampaignCell(
                config=named_config(config_name),
                workload_name=workload_name,
                max_uops=MAX_UOPS,
                warmup_uops=WARMUP_UOPS,
            )
            out[cell.describe()] = simulate_cell(cell).to_dict()
    return out


def test_pipe_trace_grid_is_byte_identical(monkeypatch):
    """Event tracing observes the pipeline without perturbing it anywhere."""
    monkeypatch.delenv(PIPE_TRACE_ENV_VAR, raising=False)
    off = _grid_dicts()
    monkeypatch.setenv(PIPE_TRACE_ENV_VAR, "1")
    on = _grid_dicts()
    assert json.dumps(on, sort_keys=True) == json.dumps(off, sort_keys=True)


def test_metrics_grid_is_byte_identical_modulo_the_payload(monkeypatch):
    """Metrics collection only *adds* the opt-in ``extra["metrics"]`` payload."""
    monkeypatch.delenv(METRICS_ENV_VAR, raising=False)
    off = _grid_dicts()
    monkeypatch.setenv(METRICS_ENV_VAR, "1")
    on = _grid_dicts()
    for cell_dict in on.values():
        payload = cell_dict["extra"].pop("metrics")
        assert payload["scalars"]["sim.committed_uops"] > 0
    assert json.dumps(on, sort_keys=True) == json.dumps(off, sort_keys=True)


def _metrics_payloads(workloads) -> dict[str, dict]:
    out = {}
    for config_name in GRID_CONFIGS:
        for workload_name in workloads:
            cell = CampaignCell(
                config=named_config(config_name),
                workload_name=workload_name,
                max_uops=MAX_UOPS,
                warmup_uops=WARMUP_UOPS,
            )
            out[cell.describe()] = simulate_cell(cell).to_dict()["extra"]["metrics"]
    return out


def test_metrics_payload_is_the_same_under_both_loops(monkeypatch):
    """Every metric but the event wheel's own skip distances is loop-independent:
    ``iq.occupancy`` samples each dispatch cycle, skipped stall spans included."""
    monkeypatch.setenv(METRICS_ENV_VAR, "1")
    event = _metrics_payloads(("milc", "mcf"))
    use_oracles(monkeypatch, loop=True)
    stepped = _metrics_payloads(("milc", "mcf"))
    for payload in (*event.values(), *stepped.values()):
        payload["histograms"].pop("scheduler.skip_distance")
    assert event == stepped
