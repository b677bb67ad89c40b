"""The throughput harness's append-only speedup ladder (BENCH_throughput.json)."""

import importlib.util
import json
import subprocess
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[2]

_spec = importlib.util.spec_from_file_location(
    "throughput_harness", REPO_ROOT / "benchmarks" / "perf" / "throughput.py"
)
throughput = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(throughput)


def _legacy_report() -> dict:
    return {
        "label": "PR3 entry",
        "grid": {"seconds": 2.28, "cells": 16},
        "single_cell": {"seconds": 0.169, "config": "EOLE_4_64", "workload": "gcc"},
        "grid_speedup": 1.34,
        "baseline": {
            "label": "PR2 entry",
            "grid": {"seconds": 3.05, "cells": 16},
            "single_cell": {"seconds": 0.215, "config": "EOLE_4_64", "workload": "gcc"},
        },
    }


class TestLadder:
    def test_migrates_legacy_single_report_with_embedded_baseline(self, tmp_path):
        path = tmp_path / "bench.json"
        path.write_text(json.dumps(_legacy_report()))
        entries = throughput.load_ladder(path)
        assert [entry["label"] for entry in entries] == ["PR2 entry", "PR3 entry"]
        assert entries[0]["grid"]["seconds"] == 3.05
        assert entries[1]["grid_speedup"] == 1.34

    def test_ladder_roundtrip_is_append_only(self, tmp_path):
        path = tmp_path / "bench.json"
        path.write_text(json.dumps(_legacy_report()))
        entries = throughput.load_ladder(path)
        entries.append({"label": "new rung", "grid": {"seconds": 1.5},
                        "single_cell": {"seconds": 0.1}})
        throughput.write_ladder(path, entries)
        data = json.loads(path.read_text())
        assert data["format"] == throughput.LADDER_FORMAT
        reloaded = throughput.load_ladder(path)
        assert [entry["label"] for entry in reloaded] == [
            "PR2 entry", "PR3 entry", "new rung",
        ]

    def test_missing_file_is_an_empty_ladder(self, tmp_path):
        assert throughput.load_ladder(tmp_path / "absent.json") == []

    def test_committed_ladder_file_is_loadable(self):
        entries = throughput.load_ladder(REPO_ROOT / "BENCH_throughput.json")
        assert entries, "BENCH_throughput.json must hold at least one rung"
        for entry in entries:
            assert "grid" in entry and "seconds" in entry["grid"]
            assert "single_cell" in entry


class TestEntryProvenance:
    def test_git_sha_points_at_head(self):
        """HEAD's sha inside a git work tree; ``None`` in a copy outside one."""

        def git(*args: str) -> str | None:
            try:
                out = subprocess.run(
                    ["git", *args], cwd=REPO_ROOT, capture_output=True, text=True, timeout=10
                )
            except (OSError, subprocess.SubprocessError):
                return None
            return out.stdout.strip() if out.returncode == 0 else None

        sha = throughput._git_sha()
        if git("rev-parse", "--is-inside-work-tree") == "true":
            assert sha == git("rev-parse", "HEAD")
            assert len(sha) == 40 and all(c in "0123456789abcdef" for c in sha)
        else:
            assert sha is None

    def test_host_info_shape(self):
        host = throughput._host_info()
        assert set(host) == {"hostname", "machine", "cpus"}
        assert host["cpus"] >= 1

    def test_meta_pairs_parse(self):
        assert throughput._parse_meta(["ci=true", "branch=main"]) == {
            "ci": "true",
            "branch": "main",
        }
        assert throughput._parse_meta(["note=a=b"]) == {"note": "a=b"}
        assert throughput._parse_meta([]) == {}

    def test_malformed_meta_is_rejected(self):
        with pytest.raises(SystemExit):
            throughput._parse_meta(["no-equals"])
        with pytest.raises(SystemExit):
            throughput._parse_meta(["=valueless"])
