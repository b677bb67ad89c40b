"""Tests for the persistent result store and result serialisation."""

import dataclasses
import json

from repro.campaign.spec import CampaignCell
from repro.campaign.store import ResultStore, default_store
from repro.campaign.executor import simulate_cell
from repro.pipeline.config import PipelineConfig
from repro.pipeline.stats import SimStats, SimulationResult


def _fast_config(name="store_test", **kw) -> PipelineConfig:
    return PipelineConfig(name=name, predictor_name="hybrid-small", **kw)


def _cell(name="store_test", workload="gcc", max_uops=400, warmup=0) -> CampaignCell:
    return CampaignCell(_fast_config(name), workload, max_uops, warmup)


def _result(cell: CampaignCell) -> SimulationResult:
    return simulate_cell(cell)


class TestResultSerialisation:
    def test_simstats_round_trip(self):
        stats = SimStats(cycles=123, committed_uops=456, early_executed=7)
        assert SimStats.from_dict(stats.to_dict()) == stats

    def test_simstats_from_dict_ignores_unknown_keys(self):
        data = SimStats(cycles=5).to_dict()
        data["counter_from_the_future"] = 99
        assert SimStats.from_dict(data).cycles == 5

    def test_simulation_result_round_trips_exactly(self):
        result = _result(_cell())
        restored = SimulationResult.from_dict(result.to_dict())
        assert restored == result  # dataclass equality covers every field
        assert restored.ipc == result.ipc

    def test_round_trip_survives_json(self):
        result = _result(_cell())
        restored = SimulationResult.from_dict(json.loads(json.dumps(result.to_dict())))
        assert restored == result


class TestResultStore:
    def test_put_get_and_reopen(self, tmp_path):
        path = tmp_path / "store.jsonl"
        cell = _cell()
        result = _result(cell)
        store = ResultStore(path)
        store.put(cell, result)
        assert cell.fingerprint in store
        assert store.get(cell.fingerprint) == result
        reopened = ResultStore(path)
        assert len(reopened) == 1
        assert reopened.get(cell.fingerprint) == result

    def test_missing_fingerprint_returns_none(self, tmp_path):
        store = ResultStore(tmp_path / "store.jsonl")
        assert store.get("no-such-fingerprint") is None

    def test_truncated_trailing_line_is_skipped(self, tmp_path):
        path = tmp_path / "store.jsonl"
        cell = _cell()
        store = ResultStore(path)
        store.put(cell, _result(cell))
        with path.open("a", encoding="utf-8") as handle:
            handle.write('{"fingerprint": "deadbeef", "result": {"config_na')
        reopened = ResultStore(path)
        assert len(reopened) == 1
        assert reopened.skipped_lines == 1
        assert reopened.get(cell.fingerprint) is not None

    def test_newest_duplicate_wins_and_compact_drops_it(self, tmp_path):
        path = tmp_path / "store.jsonl"
        cell = _cell()
        result = _result(cell)
        store = ResultStore(path)
        store.put(cell, result)
        newer = dataclasses.replace(result, predictor_coverage=0.5)
        store.put(cell, newer)
        reopened = ResultStore(path)
        assert len(reopened) == 1
        assert reopened.get(cell.fingerprint).predictor_coverage == 0.5
        assert len(path.read_text().splitlines()) == 2
        reopened.compact()
        assert len(path.read_text().splitlines()) == 1

    def test_merge_adopts_only_missing_cells(self, tmp_path):
        mine, theirs = ResultStore(tmp_path / "a.jsonl"), ResultStore(tmp_path / "b.jsonl")
        shared, private = _cell(), _cell(workload="mcf")
        mine.put(shared, _result(shared))
        theirs.put(shared, _result(shared))
        theirs.put(private, _result(private))
        assert mine.merge(theirs) == 1
        assert len(mine) == 2
        assert private.fingerprint in mine

    def test_invalidate_by_config_and_workload(self, tmp_path):
        store = ResultStore(tmp_path / "store.jsonl")
        cells = [_cell(), _cell(workload="mcf"), _cell(name="other_config")]
        for cell in cells:
            store.put(cell, _result(cells[0]))
        assert store.invalidate(workload="mcf") == 1
        assert store.invalidate(config="other_config") == 1
        assert len(store) == 1
        assert len(ResultStore(store.path)) == 1  # rewrite persisted

    def test_invalidate_everything(self, tmp_path):
        store = ResultStore(tmp_path / "store.jsonl")
        cell = _cell()
        store.put(cell, _result(cell))
        assert store.invalidate() == 1
        assert len(store) == 0

    def test_summary_counts(self, tmp_path):
        store = ResultStore(tmp_path / "store.jsonl")
        for cell in (_cell(), _cell(workload="mcf")):
            store.put(cell, _result(_cell()))
        summary = store.summary()
        assert summary["records"] == 2
        assert summary["configs"] == {"store_test": 2}
        assert summary["workloads"] == {"gcc": 1, "mcf": 1}


class TestDefaultStore:
    def test_disabled_without_env(self, monkeypatch):
        monkeypatch.delenv("REPRO_RESULT_STORE", raising=False)
        assert default_store() is None

    def test_env_selects_and_caches_the_store(self, tmp_path, monkeypatch):
        path = tmp_path / "env_store.jsonl"
        monkeypatch.setenv("REPRO_RESULT_STORE", str(path))
        store = default_store()
        assert store is not None
        assert store.path == path
        assert default_store() is store


class TestCompaction:
    @staticmethod
    def _fake_result(tag: int) -> SimulationResult:
        stats = SimStats(cycles=100 + tag, committed_uops=50 + tag)
        return SimulationResult(
            config_name="store_test", workload_name="gcc", stats=stats, full_stats=stats
        )

    def _put_grid(self, store, count: int = 4):
        cells = []
        for index in range(count):
            cell = _cell(max_uops=1000 + index)
            store.put(cell, self._fake_result(index))
            cells.append(cell)
        return cells

    def test_superseding_rows_are_counted_and_compacted(self, tmp_path):
        from repro.campaign.store import ResultStore

        store = ResultStore(tmp_path / "store.jsonl")
        cells = self._put_grid(store, count=3)
        store.put(cells[0], self._fake_result(99))  # duplicate fingerprint
        assert store.superseded_lines == 1
        assert len((tmp_path / "store.jsonl").read_text().splitlines()) == 4
        outcome = store.compact()
        assert outcome["superseded_dropped"] == 1
        assert outcome["evicted"] == 0
        assert outcome["bytes_after"] < outcome["bytes_before"]
        assert len((tmp_path / "store.jsonl").read_text().splitlines()) == 3
        reloaded = ResultStore(tmp_path / "store.jsonl")
        assert len(reloaded) == 3 and reloaded.superseded_lines == 0

    def test_size_cap_evicts_oldest_records(self, tmp_path):
        from repro.campaign.store import ResultStore

        store = ResultStore(tmp_path / "store.jsonl")
        self._put_grid(store, count=4)
        # Rows differ in length (the ``saved_unix`` repr varies), so the cap is
        # exactly the two newest lines as written, not twice an average row.
        newest_two = (tmp_path / "store.jsonl").read_bytes().splitlines(keepends=True)[-2:]
        budget = sum(map(len, newest_two))
        outcome = store.compact(max_bytes=budget)
        assert outcome["evicted"] == 2
        assert store.size_bytes() <= budget
        # The two newest records survive (eviction is oldest-saved first).
        kept = {record["max_uops"] for record in store.records()}
        assert kept == {1002, 1003}

    def test_append_auto_compacts_past_the_cap(self, tmp_path, monkeypatch):
        from repro.campaign.store import MAX_MB_ENV_VAR, ResultStore

        probe = ResultStore(tmp_path / "probe.jsonl")
        self._put_grid(probe, count=1)
        line_size = probe.size_bytes()
        # Cap at ~2.5 rows: the store must keep itself within the budget.
        monkeypatch.setenv(MAX_MB_ENV_VAR, str(line_size * 2.5 / (1024 * 1024)))
        store = ResultStore(tmp_path / "capped.jsonl")
        assert store.max_bytes is not None
        self._put_grid(store, count=6)
        assert store.size_bytes() <= store.max_bytes
        assert 1 <= len(store) <= 2

    def test_invalid_cap_env_is_ignored(self, monkeypatch, tmp_path):
        from repro.campaign.store import MAX_MB_ENV_VAR, ResultStore

        monkeypatch.setenv(MAX_MB_ENV_VAR, "not-a-number")
        store = ResultStore(tmp_path / "store.jsonl")
        assert store.max_bytes is None


class TestFailureRows:
    def test_failure_rows_never_satisfy_get_or_contains(self, tmp_path):
        store = ResultStore(tmp_path / "store.jsonl")
        cell = _cell()
        store.put_failure(cell, {"type": "RuntimeError", "message": "boom"})
        assert cell.fingerprint not in store
        assert store.get(cell.fingerprint) is None
        assert store.get_failure(cell.fingerprint)["error"]["message"] == "boom"
        assert len(store.failures()) == 1
        assert store.summary()["failures"] == 1

    def test_failure_rows_survive_reload_and_compaction(self, tmp_path):
        store = ResultStore(tmp_path / "store.jsonl")
        cell = _cell()
        store.put_failure(cell, {"type": "RuntimeError", "message": "boom"})
        reloaded = ResultStore(store.path)
        assert reloaded.get_failure(cell.fingerprint) is not None
        reloaded.compact()
        assert ResultStore(store.path).get_failure(cell.fingerprint) is not None

    def test_success_supersedes_failure_and_vice_versa(self, tmp_path):
        store = ResultStore(tmp_path / "store.jsonl")
        cell = _cell()
        store.put_failure(cell, {"type": "RuntimeError", "message": "boom"})
        result = _result(cell)
        store.put(cell, result)
        assert store.get(cell.fingerprint) == result
        assert store.get_failure(cell.fingerprint) is None
        store.put_failure(cell, {"type": "RuntimeError", "message": "again"})
        assert cell.fingerprint not in store  # newest row wins across kinds
        reloaded = ResultStore(store.path)
        assert reloaded.get(cell.fingerprint) is None
        assert reloaded.get_failure(cell.fingerprint)["error"]["message"] == "again"

    def test_invalidate_drops_matching_failure_rows(self, tmp_path):
        store = ResultStore(tmp_path / "store.jsonl")
        store.put_failure(_cell(), {"type": "E", "message": "x"})
        store.put_failure(_cell(workload="mcf"), {"type": "E", "message": "y"})
        store.invalidate(workload="mcf")
        reloaded = ResultStore(store.path)
        assert len(reloaded.failures()) == 1
        assert reloaded.failures()[0]["workload"] == "gcc"
