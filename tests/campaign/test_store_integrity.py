"""Integrity-layer tests for the result store: CRC rows, torn tails, quarantine.

The satellite acceptance case lives here too: a campaign resumed over a store
whose final JSONL line was truncated (the classic SIGKILL artefact) must
quarantine exactly the torn row, keep every intact row, and retry exactly the
torn cell — and appends made *after* the tear must not be corrupted by it.
"""

import json

import pytest

from repro.campaign.executor import run_campaign, simulate_cell
from repro.campaign.spec import Campaign, CampaignCell
from repro.campaign.store import ROW_VERSION, ResultStore, row_crc, stamp_row
from repro.faults.plan import FAULTS_ENV_VAR, InjectedFault
from repro.faults.sites import (
    STORE_APPEND_CORRUPT,
    STORE_APPEND_TORN,
    STORE_REWRITE_CRASH,
)
from repro.pipeline.config import PipelineConfig

UOPS, WARMUP = 400, 100


def _cell(name="integrity_test", workload="gcc") -> CampaignCell:
    config = PipelineConfig(name=name, predictor_name="hybrid-small")
    return CampaignCell(config, workload, UOPS, WARMUP)


def _filled_store(path, cells) -> ResultStore:
    store = ResultStore(path)
    for cell in cells:
        store.put(cell, simulate_cell(cell))
    return store


class TestRowStamping:
    def test_rows_are_stamped_with_version_and_crc(self, tmp_path):
        store = _filled_store(tmp_path / "s.jsonl", [_cell()])
        (line,) = (tmp_path / "s.jsonl").read_text().splitlines()
        record = json.loads(line)
        assert record["v"] == ROW_VERSION
        assert record["crc"] == row_crc(record)

    def test_crc_round_trips_through_json(self):
        record = stamp_row({"fingerprint": "abc", "value": 1.5, "nested": {"x": [1, 2]}})
        reparsed = json.loads(json.dumps(record, sort_keys=True))
        assert row_crc(reparsed) == reparsed["crc"]

    def test_bit_rot_is_quarantined_not_served(self, tmp_path):
        path = tmp_path / "s.jsonl"
        cell = _cell()
        _filled_store(path, [cell])
        text = path.read_text()
        # Flip a digit inside the row body without breaking the JSON syntax.
        rotted = text.replace('"max_uops": 400', '"max_uops": 401', 1)
        assert rotted != text
        path.write_text(rotted)
        reopened = ResultStore(path)
        assert cell.fingerprint not in reopened
        (entry,) = reopened.quarantined()
        assert entry["reason"] == "crc"

    def test_unknown_future_version_is_quarantined(self, tmp_path):
        path = tmp_path / "s.jsonl"
        record = stamp_row({"fingerprint": "future", "result": {}})
        record["v"] = ROW_VERSION + 1
        record.pop("crc")
        record["crc"] = row_crc(record)
        path.write_text(json.dumps(record, sort_keys=True) + "\n")
        store = ResultStore(path)
        assert len(store) == 0
        (entry,) = store.quarantined()
        assert entry["reason"] == "version"

    def test_legacy_unstamped_rows_still_load(self, tmp_path):
        path = tmp_path / "s.jsonl"
        cell = _cell()
        store = _filled_store(path, [cell])
        record = json.loads(path.read_text())
        for key in ("v", "crc"):
            record.pop(key)
        path.write_text(json.dumps(record, sort_keys=True) + "\n")
        reopened = ResultStore(path)
        assert cell.fingerprint in reopened
        assert reopened.unstamped_lines == 1
        assert reopened.get(cell.fingerprint) == store.get(cell.fingerprint)

    def test_compaction_upgrades_legacy_rows(self, tmp_path):
        path = tmp_path / "s.jsonl"
        _filled_store(path, [_cell()])
        record = json.loads(path.read_text())
        for key in ("v", "crc"):
            record.pop(key)
        path.write_text(json.dumps(record, sort_keys=True) + "\n")
        store = ResultStore(path)
        store.compact()
        upgraded = json.loads(path.read_text())
        assert upgraded["v"] == ROW_VERSION
        assert upgraded["crc"] == row_crc(upgraded)
        assert ResultStore(path).unstamped_lines == 0


class TestTornTail:
    def test_later_appends_survive_a_torn_tail(self, tmp_path):
        path = tmp_path / "s.jsonl"
        first, second = _cell(workload="gcc"), _cell(workload="mcf")
        store = _filled_store(path, [first])
        # Tear the tail mid-row, as a crash mid-append would.
        torn = path.read_text()[:-40]
        assert not torn.endswith("\n")
        path.write_text(torn)
        # A fresh handle appends the next row: the heal must put it on its own
        # line instead of gluing it to the torn fragment.
        appender = ResultStore(path)
        appender.put(second, simulate_cell(second))
        reopened = ResultStore(path)
        assert second.fingerprint in reopened
        assert reopened.skipped_lines == 1  # the torn fragment, nothing else
        (entry,) = reopened.quarantined()
        assert entry["reason"] == "parse"

    def test_resume_retries_exactly_the_torn_cell(self, tmp_path):
        campaign = Campaign.from_names(
            ("Baseline_6_64", "EOLE_4_64"),
            "gcc,mcf",
            max_uops=UOPS,
            warmup_uops=WARMUP,
            name="resume",
        )
        path = tmp_path / "campaign.jsonl"
        store = ResultStore(path)
        run_campaign(campaign, store=store, workers=1)
        assert len(store) == 4
        reference = {
            cell.fingerprint: store.get_record(cell.fingerprint)["result"]
            for cell in campaign.cells()
        }
        # Truncate the final line mid-row: exactly one cell is lost.
        lines = path.read_text().splitlines()
        torn_fingerprint = json.loads(lines[-1])["fingerprint"]
        path.write_text("\n".join(lines[:-1]) + "\n" + lines[-1][: len(lines[-1]) // 2])

        resumed = ResultStore(path)
        assert len(resumed) == 3
        assert torn_fingerprint not in resumed
        outcome = run_campaign(campaign, store=resumed, workers=1)
        # Exactly the torn cell was re-simulated, the other three were reused.
        assert outcome.simulated == 1
        assert outcome.from_store == 3
        final = ResultStore(path)
        assert final.skipped_lines == 1  # the fragment is still quarantined, inert
        for cell in campaign.cells():
            assert final.get_record(cell.fingerprint)["result"] == reference[cell.fingerprint]

    def test_compaction_spills_quarantine_sidecar(self, tmp_path):
        path = tmp_path / "s.jsonl"
        store = _filled_store(path, [_cell()])
        with path.open("a", encoding="utf-8") as handle:
            handle.write('{"fingerprint": "torn-half')
        store = ResultStore(path)
        store.compact()
        sidecar = store.quarantine_path
        assert sidecar.exists()
        (spilled,) = [json.loads(line) for line in sidecar.read_text().splitlines()]
        assert spilled["reason"] == "parse"
        assert spilled["raw"].startswith('{"fingerprint": "torn-half')
        # The data file itself is clean again.
        assert ResultStore(path).skipped_lines == 0


class TestInjectedStoreFaults:
    def test_torn_append_site_tears_and_raises(self, tmp_path, monkeypatch):
        monkeypatch.setenv(FAULTS_ENV_VAR, STORE_APPEND_TORN)
        path = tmp_path / "s.jsonl"
        cell = _cell()
        store = ResultStore(path)
        with pytest.raises(InjectedFault):
            store.put(cell, simulate_cell(cell))
        monkeypatch.delenv(FAULTS_ENV_VAR)
        # The file ends mid-row; a fresh store quarantines the fragment.
        assert not path.read_text().endswith("\n")
        reopened = ResultStore(path)
        assert len(reopened) == 0
        assert reopened.skipped_lines == 1
        # The next append heals the tail (fresh line) and lands intact.
        reopened.put(cell, simulate_cell(cell))
        final = ResultStore(path)
        assert cell.fingerprint in final

    def test_corrupt_append_site_is_silent_but_caught_on_load(
        self, tmp_path, monkeypatch
    ):
        monkeypatch.setenv(FAULTS_ENV_VAR, STORE_APPEND_CORRUPT)
        path = tmp_path / "s.jsonl"
        cell = _cell()
        store = ResultStore(path)
        store.put(cell, simulate_cell(cell))  # no exception: the worker is fooled
        monkeypatch.delenv(FAULTS_ENV_VAR)
        reopened = ResultStore(path)
        assert cell.fingerprint not in reopened
        (entry,) = reopened.quarantined()
        assert entry["reason"] in ("parse", "crc")

    def test_rewrite_crash_site_leaves_data_file_and_tmp_orphan(
        self, tmp_path, monkeypatch
    ):
        path = tmp_path / "s.jsonl"
        cell = _cell()
        _filled_store(path, [cell])
        before = path.read_text()
        monkeypatch.setenv(FAULTS_ENV_VAR, STORE_REWRITE_CRASH)
        with pytest.raises(InjectedFault):
            ResultStore(path).compact()
        monkeypatch.delenv(FAULTS_ENV_VAR)
        # The data file is untouched (the rename never ran) and the staged tmp
        # survives, SIGKILL-faithfully, for fsck to sweep.
        assert path.read_text() == before
        orphans = list(tmp_path.glob(".*.tmp"))
        assert len(orphans) == 1
        assert cell.fingerprint in ResultStore(path)
