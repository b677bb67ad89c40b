"""Smoke test of the benchmark harness on a tiny in-process grid.

Runs the harness code itself — set-up, one timed pass, the traced rerun with the
layer wrappers installed — on 2 configs × 2 workloads at 1500/500 µ-ops plus 2
predictor evaluations, and checks what ``run.py`` reports from it.
"""

from __future__ import annotations

import copy
import json
import time
from pathlib import Path

import pytest

import harness
import run
import spans
from repro.campaign.spec import Campaign
from repro.campaign.store import ResultStore
from repro.obs.tracer import validate_trace_events

SPEC = json.loads((Path(__file__).resolve().parents[1] / "BENCHMARK.json").read_text())

TINY = {
    "figure_grid": harness.FigureGrid(
        configs=("Baseline_6_64", "EOLE_4_64"), workloads=("gcc", "milc"),
        max_uops=1500, warmup_uops=500,
    ),
    "predictor_study": harness.PredictorStudy(
        families=("stride", "lvp"), workloads=("gcc",), max_uops=1500
    ),
}


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    """Workload → (untraced result, traced result, traced spans, untraced workdir)."""
    out = {}
    with pytest.MonkeyPatch.context() as env:
        env.delenv("REPRO_TRACE_STORE", raising=False)
        for name, definition in TINY.items():
            workdir = tmp_path_factory.mktemp(f"{name}-untraced")
            started = time.monotonic()
            untraced = harness.run_child(definition, seed=0, passes=1, workdir=workdir)
            untraced["setup_s"] = untraced["setup_end"] - started
            tracer = spans.Tracer()
            undo = spans.install(tracer)
            try:
                traced = harness.run_child(
                    definition, seed=0, passes=1,
                    workdir=tmp_path_factory.mktemp(f"{name}-traced"), tracer=tracer,
                )
            finally:
                undo()
            traced["layers"] = spans.layer_metrics(tracer.spans)
            out[name] = (untraced, traced, tracer.spans, workdir)
    return out


def test_every_benchmark_metric_is_emitted_with_its_unit(runs):
    for untraced, traced, _, _ in runs.values():
        values = run.end_to_end(untraced, [untraced["setup_s"]])
        layers = run.per_layer(untraced, traced)
        for section, computed in (("end_to_end", values), ("per_layer", layers)):
            named = {metric["name"]: metric["unit"] for metric in SPEC[section]}
            assert set(computed) == set(named)
            emitted = run.emit(SPEC, section, computed)
            assert {name: m["unit"] for name, m in emitted.items()} == named
            assert all(isinstance(m["value"], (int, float)) for m in emitted.values())
        assert all(values[name] > 0 for name in values)


def test_tail_percentile_has_ten_samples_beyond_it():
    assert [run.tail_percentile(n) for n in (76, 32, 114, 96)] == [86, 68, 91, 89]
    for n in (11, 12, 32, 76, 96, 114, 192, 1000):
        samples = [float(i) for i in range(n)]
        p = run.tail_percentile(n)
        beyond = sum(s > run.nearest_rank(samples, p) for s in samples)
        assert beyond >= 10
        if p < 100:
            assert sum(s > run.nearest_rank(samples, p + 1) for s in samples) < 10
    assert run.nearest_rank([3.0, 1.0, 2.0], run.tail_percentile(3)) == 3.0


def test_cell_time_is_its_fastest_pass():
    passes = [
        {"id": "a", "seconds": 0.3}, {"id": "b", "seconds": 0.2},
        {"id": "a", "seconds": 0.1}, {"id": "b", "seconds": 0.4},
        {"id": "c", "error": "missing"},
    ]
    assert run.cell_seconds(passes) == {"a": 0.1, "b": 0.2}


def test_spans_nest_and_self_time_is_non_negative(runs):
    for _, traced, recorded, _ in runs.values():
        by_id = {record["id"]: record for record in recorded}
        for record in recorded:
            assert record["start"] <= record["end"]
            parent = by_id.get(record["parent"])
            if record["parent"] is not None:
                assert parent is not None
                assert (parent["pid"], parent["tid"]) == (record["pid"], record["tid"])
                assert parent["start"] <= record["start"] <= record["end"] <= parent["end"]
        assert all(ns >= 0 for ns in spans.self_times(recorded).values())
        validate_trace_events(spans.to_chrome(recorded))
        assert traced["layers"]["bench.other_s"] <= 0.05 * traced["timed_s"]
    grid_layers = runs["figure_grid"][1]["layers"]
    assert grid_layers["pipeline.sim_uops"] == 4 * 1500
    assert grid_layers["store.append_count"] == 4
    assert grid_layers["isa.capture_count"] == 2
    assert runs["predictor_study"][1]["layers"]["vp.lookup_count"] > 0


def test_changed_stat_counts_as_failed(runs):
    untraced, _, _, workdir = runs["figure_grid"]
    cells = untraced["cells"]
    golden = {cell["id"]: cell["digest"] for cell in cells}
    assert run.check_cells(cells, golden) == []

    tiny = TINY["figure_grid"]
    campaign = Campaign.from_names(
        tiny.configs, tiny.workloads, tiny.max_uops, tiny.warmup_uops, seed=0
    )
    cell = campaign.cells()[0]
    payload = copy.deepcopy(
        ResultStore(workdir / "figure_grid-0" / "results.jsonl").get_record(cell.fingerprint)[
            "result"
        ]
    )
    payload["stats"]["branch_mispredictions"] += 1
    changed = harness.simulation_record(cell, payload, 0.1)
    assert changed["ok"]
    failures = run.check_cells([changed] + cells[1:], golden)
    assert [cell_id for cell_id, _ in failures] == [cell.describe()]
    # A seed without a golden still checks the seed-independent (no-VP) cells.
    assert not cell.config.value_prediction
    assert len(run.check_cells([changed], golden, seeded_too=False)) == 1
