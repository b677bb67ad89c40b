"""Campaign telemetry: per-cell rows in the store, heartbeat log, report --metrics."""

import json

import pytest

from repro.campaign.cli import main
from repro.campaign.executor import run_campaign
from repro.campaign.progress import HEARTBEAT_ENV_VAR
from repro.campaign.spec import Campaign
from repro.campaign.store import ResultStore
from repro.obs.telemetry import TraceCacheSnapshot, cell_telemetry
from repro.pipeline.config import PipelineConfig
from repro.trace.cache import shared_trace_cache

UOPS, WARMUP = 500, 100


@pytest.fixture(autouse=True)
def _clean_shared_cache():
    yield
    shared_trace_cache.clear()


def _fast_config(name, **kw) -> PipelineConfig:
    return PipelineConfig(name=name, predictor_name="hybrid-small", **kw)


def _campaign(workloads=("gcc", "mcf")) -> Campaign:
    return Campaign(
        name="telemetry-test",
        configs=(_fast_config("CfgA"), _fast_config("CfgB", value_prediction=True)),
        workload_names=tuple(workloads),
        max_uops=UOPS,
        warmup_uops=WARMUP,
    )


class TestStoredTelemetry:
    def test_serial_campaign_stores_telemetry_rows(self, tmp_path):
        store = ResultStore(tmp_path / "s.jsonl")
        run_campaign(_campaign(), store=store, workers=1)
        records = store.records()
        assert len(records) == 4
        for record in records:
            telemetry = record["telemetry"]
            assert telemetry["wall_seconds"] > 0
            assert telemetry["uops_per_second"] > 0
            assert set(telemetry["trace_cache"]) == {"captures", "hits", "store_hits"}
            assert isinstance(telemetry["worker_pid"], int)

    def test_sharded_campaign_stores_telemetry_rows(self, tmp_path):
        store = ResultStore(tmp_path / "s.jsonl")
        run_campaign(_campaign(), store=store, workers=2)
        for record in store.records():
            assert record["telemetry"]["wall_seconds"] > 0

    def test_snapshot_delta_counts_cache_activity(self):
        shared_trace_cache.clear()
        snapshot = TraceCacheSnapshot()
        assert snapshot.delta() == {"captures": 0, "hits": 0, "store_hits": 0}

    def test_cell_telemetry_handles_zero_wall_clock(self):
        class _Result:
            class full_stats:
                committed_uops = 600

        row = cell_telemetry(_Result(), 0.0, TraceCacheSnapshot())
        assert row["uops_per_second"] == 0.0


class TestHeartbeatLog:
    def test_heartbeat_jsonl_covers_the_run(self, tmp_path, monkeypatch):
        heartbeat = tmp_path / "logs" / "heartbeat.jsonl"
        monkeypatch.setenv(HEARTBEAT_ENV_VAR, str(heartbeat))
        run_campaign(_campaign(workloads=("gcc",)), store=None, workers=1)
        rows = [json.loads(line) for line in heartbeat.read_text().splitlines()]
        events = [row["event"] for row in rows]
        assert events.count("cell_started") == 2
        assert events.count("cell_done") == 2
        assert events[-1] == "finish"
        assert 0.0 <= rows[-1]["utilization"] <= 1.0
        done = [row for row in rows if row["event"] == "cell_done"]
        assert all(row["cell"] and row["seconds"] >= 0 for row in done)

    def test_unwritable_heartbeat_path_is_swallowed(self, monkeypatch):
        monkeypatch.setenv(HEARTBEAT_ENV_VAR, "/proc/definitely/not/writable.jsonl")
        outcome = run_campaign(_campaign(workloads=("gcc",)), store=None, workers=1)
        assert outcome.simulated == 2  # the campaign still completed


class TestReportMetrics:
    def _populated_store(self, tmp_path) -> str:
        store = ResultStore(tmp_path / "s.jsonl")
        run_campaign(_campaign(), store=store, workers=1)
        return str(store.path)

    def test_table_has_telemetry_columns(self, tmp_path, capsys):
        store_path = self._populated_store(tmp_path)
        assert main(["report", "--store", store_path, "--metrics"]) == 0
        out = capsys.readouterr().out
        assert "wall_seconds" in out and "uops_per_second" in out
        assert "trace_captures" in out and "trace_hits" in out
        assert "CfgA" in out and "gcc" in out

    def test_json_rows_carry_numbers(self, tmp_path, capsys):
        store_path = self._populated_store(tmp_path)
        assert main(
            ["report", "--store", store_path, "--metrics", "--format", "json"]
        ) == 0
        payload = json.loads(capsys.readouterr().out)
        assert len(payload["cells"]) == 4
        for row in payload["cells"]:
            assert row["ipc"] > 0
            assert row["wall_seconds"] > 0
            assert row["uops_per_second"] > 0

    def test_pre_telemetry_records_render_as_missing(self, tmp_path, capsys):
        store = ResultStore(tmp_path / "s.jsonl")
        campaign = _campaign(workloads=("gcc",))
        run_campaign(campaign, store=store, workers=1)
        # Strip the telemetry key, emulating a store written before this feature
        # existed — which also predates row stamping, so drop the version/CRC
        # keys too (keeping a stale CRC would make this bit rot, not legacy).
        stripped = []
        for line in store.path.read_text().splitlines():
            record = json.loads(line)
            for key in ("telemetry", "v", "crc"):
                record.pop(key, None)
            stripped.append(json.dumps(record))
        store.path.write_text("\n".join(stripped) + "\n")
        assert main(["report", "--store", str(store.path), "--metrics"]) == 0
        out = capsys.readouterr().out
        assert "—" in out

    def test_csv_format(self, tmp_path, capsys):
        store_path = self._populated_store(tmp_path)
        assert main(
            ["report", "--store", store_path, "--metrics", "--format", "csv"]
        ) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0].startswith("config,workload,ipc,wall_seconds")
        assert len(lines) == 5
