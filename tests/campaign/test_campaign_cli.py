"""Tests for the ``python -m repro.campaign`` command line."""

import pytest

from repro.analysis.runner import run_suite
from repro.campaign.cli import main
from repro.campaign.store import ResultStore
from repro.pipeline.config import named_config
from repro.workloads.suite import FAST_SUBSET, fast_workloads

UOPS, WARMUP = 500, 100
CONFIGS = "Baseline_6_64,Baseline_VP_6_64"


def _run_args(store_path, workers=2):
    return [
        "run",
        "--configs", CONFIGS,
        "--workloads", "subset",
        "--max-uops", str(UOPS),
        "--warmup-uops", str(WARMUP),
        "--store", str(store_path),
        "--workers", str(workers),
        "--quiet",
    ]


@pytest.fixture(autouse=True)
def _no_ambient_store(monkeypatch):
    monkeypatch.delenv("REPRO_RESULT_STORE", raising=False)


class TestRunCommand:
    def test_two_config_fast_subset_campaign_matches_serial_and_resumes(
        self, tmp_path, capsys
    ):
        """Acceptance: 2 configs × fast subset on 2 workers == serial run_suite IPCs,
        results persist, and a second invocation simulates nothing new."""
        store_path = tmp_path / "campaign.jsonl"
        assert main(_run_args(store_path, workers=2)) == 0
        first_out = capsys.readouterr().out
        assert f"{len(FAST_SUBSET) * 2} simulated" in first_out

        store = ResultStore(store_path)
        assert len(store) == len(FAST_SUBSET) * 2

        # Per-cell IPC parity with the serial library path.
        for config_name in CONFIGS.split(","):
            serial = run_suite(
                named_config(config_name), fast_workloads(), UOPS, WARMUP, store=ResultStore(None)
            )
            stored = {
                record["workload"]: record
                for record in store.records()
                if record["config"] == config_name
            }
            for name, result in serial.items():
                cell_stats = stored[name]["result"]["stats"]
                assert cell_stats["committed_uops"] / cell_stats["cycles"] == result.ipc

        # Second invocation: everything comes from the store, zero new simulations.
        assert main(_run_args(store_path, workers=2)) == 0
        second_out = capsys.readouterr().out
        assert "0 simulated" in second_out
        assert f"{len(FAST_SUBSET) * 2} from store" in second_out

    def test_unknown_config_is_a_clean_error(self, tmp_path, capsys):
        code = main(
            ["run", "--configs", "NoSuchMachine", "--workloads", "subset",
             "--max-uops", "500", "--warmup-uops", "0",
             "--store", str(tmp_path / "s.jsonl"), "--quiet"]
        )
        assert code == 2
        assert "error" in capsys.readouterr().err


class TestStatusCommand:
    def test_status_reports_missing_then_done(self, tmp_path, capsys):
        store_path = tmp_path / "campaign.jsonl"
        status_args = [
            "status",
            "--configs", CONFIGS,
            "--workloads", "subset",
            "--max-uops", str(UOPS),
            "--warmup-uops", str(WARMUP),
            "--store", str(store_path),
        ]
        assert main(status_args) == 1  # nothing simulated yet
        out = capsys.readouterr().out
        assert f"0/{len(FAST_SUBSET) * 2} cells done" in out
        assert "missing Baseline_6_64/wupwise" in out

        main(_run_args(store_path, workers=1))
        capsys.readouterr()
        assert main(status_args) == 0
        out = capsys.readouterr().out
        assert f"{len(FAST_SUBSET) * 2}/{len(FAST_SUBSET) * 2} cells done" in out


class TestReportCommand:
    def test_report_tabulates_ipcs_and_speedups(self, tmp_path, capsys):
        store_path = tmp_path / "campaign.jsonl"
        main(_run_args(store_path, workers=1))
        capsys.readouterr()

        assert main(["report", "--store", str(store_path)]) == 0
        out = capsys.readouterr().out
        assert "Baseline_6_64" in out and "Baseline_VP_6_64" in out
        for name in FAST_SUBSET:
            assert name in out

        assert main(
            ["report", "--store", str(store_path), "--baseline", "Baseline_6_64"]
        ) == 0
        assert "speedup over Baseline_6_64" in capsys.readouterr().out

    def test_report_on_empty_store(self, tmp_path, capsys):
        assert main(["report", "--store", str(tmp_path / "void.jsonl")]) == 1
        assert "empty" in capsys.readouterr().err

    def test_report_with_unknown_baseline(self, tmp_path, capsys):
        store_path = tmp_path / "campaign.jsonl"
        main(_run_args(store_path, workers=1))
        capsys.readouterr()
        assert main(["report", "--store", str(store_path), "--baseline", "Nope"]) == 1
        assert "not in store" in capsys.readouterr().err

    def test_report_json_format_is_parseable_and_complete(self, tmp_path, capsys):
        import json

        store_path = tmp_path / "campaign.jsonl"
        main(_run_args(store_path, workers=1))
        capsys.readouterr()
        assert main(["report", "--store", str(store_path), "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["metric"] == "ipc"
        assert payload["baseline"] is None
        assert sorted(payload["configs"]) == sorted(CONFIGS.split(","))
        assert set(payload["workloads"]) == set(FAST_SUBSET)
        for name in FAST_SUBSET:
            for config_name in CONFIGS.split(","):
                assert payload["values"][name][config_name] > 0

    def test_report_json_speedups_normalise_against_baseline(self, tmp_path, capsys):
        import json

        store_path = tmp_path / "campaign.jsonl"
        main(_run_args(store_path, workers=1))
        capsys.readouterr()
        assert main(
            ["report", "--store", str(store_path), "--format", "json",
             "--baseline", "Baseline_6_64"]
        ) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["metric"] == "speedup"
        assert payload["baseline"] == "Baseline_6_64"
        for name in FAST_SUBSET:
            assert payload["values"][name]["Baseline_6_64"] == 1.0

    def test_report_csv_format(self, tmp_path, capsys):
        import csv
        import io

        store_path = tmp_path / "campaign.jsonl"
        main(_run_args(store_path, workers=1))
        capsys.readouterr()
        assert main(["report", "--store", str(store_path), "--format", "csv"]) == 0
        rows = list(csv.reader(io.StringIO(capsys.readouterr().out)))
        assert rows[0] == ["workload"] + sorted(CONFIGS.split(","))
        assert len(rows) == 1 + len(FAST_SUBSET)
        for row in rows[1:]:
            assert row[0] in FAST_SUBSET
            for value in row[1:]:
                assert float(value) > 0


def _compact_cell(max_uops: int = 400):
    from repro.campaign.spec import CampaignCell

    return CampaignCell(
        config=named_config("Baseline_6_64"),
        workload_name="gcc",
        max_uops=max_uops,
        warmup_uops=0,
    )


class TestCompactCommand:
    def test_compact_drops_superseded_rows_and_reports(self, tmp_path, capsys):
        from repro.campaign.cli import main
        from repro.campaign.store import ResultStore
        from repro.pipeline.stats import SimStats, SimulationResult

        store_path = tmp_path / "store.jsonl"
        store = ResultStore(store_path)
        stats = SimStats(cycles=10, committed_uops=5)
        result = SimulationResult(
            config_name="c", workload_name="w", stats=stats, full_stats=stats
        )
        cell = _compact_cell()
        store.put(cell, result)
        store.put(cell, result)  # superseded row
        lines_before = len(store_path.read_text().splitlines())
        assert lines_before == 2
        assert main(["compact", "--store", str(store_path)]) == 0
        out = capsys.readouterr().out
        assert "1 superseded" in out
        assert len(store_path.read_text().splitlines()) == 1

    def test_compact_with_max_mb_evicts(self, tmp_path, capsys):
        from repro.campaign.cli import main
        from repro.campaign.store import ResultStore
        from repro.pipeline.stats import SimStats, SimulationResult

        store_path = tmp_path / "store.jsonl"
        store = ResultStore(store_path)
        for index in range(4):
            stats = SimStats(cycles=10 + index, committed_uops=5)
            store.put(
                _compact_cell(max_uops=500 + index),
                SimulationResult(
                    config_name="c", workload_name="w", stats=stats, full_stats=stats
                ),
            )
        per_line = store.size_bytes() / 4
        cap_mb = (per_line * 2 + 2) / (1024 * 1024)
        assert main(["compact", "--store", str(store_path), "--max-mb", str(cap_mb)]) == 0
        assert "2 evicted" in capsys.readouterr().out
        assert len(ResultStore(store_path)) == 2
