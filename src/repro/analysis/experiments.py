"""The per-figure / per-table experiment registry.

Each public function regenerates one artefact of the paper's evaluation (Section 5 and
Section 6) over the synthetic workload suite and returns an
:class:`~repro.analysis.report.ExperimentResult` that the benchmark harness prints and
records under ``benchmarks/results/``.  The experiment ids match DESIGN.md §4.

Every figure is a (configuration × workload) grid, so each function submits its whole
grid — baseline and variants together — to the campaign engine via
:func:`~repro.analysis.runner.run_grid` in one shot.  With
``REPRO_CAMPAIGN_WORKERS > 1`` the cells run on a local fleet of workers, and with
``REPRO_RESULT_STORE`` set, previously simulated cells are reloaded from disk instead
of re-simulated.
"""

from __future__ import annotations

from collections.abc import Iterable

from repro.analysis.report import ExperimentResult, ExperimentSeries
from repro.analysis.runner import run_grid
from repro.core.eole import EOLEVariant, eole_config
from repro.pipeline.config import (
    PipelineConfig,
    baseline_6_64,
    baseline_vp_4_64,
    baseline_vp_6_48,
    baseline_vp_6_64,
    eoe_4_64,
    eole_4_64,
    eole_4_64_banked,
    eole_6_48,
    eole_6_64,
    ole_4_64,
)
from repro.pipeline.stats import SimulationResult
from repro.vp.confidence import DETERMINISTIC_3BIT_VECTOR, PAPER_FPC_VECTOR
from repro.vp.hybrid import VTAGE2DStrideHybrid
from repro.vp.stride import TwoDeltaStridePredictor
from repro.vp.vtage import VTAGEPredictor
from repro.analysis.predictor_eval import evaluate_predictor
from repro.workloads.suite import Workload, all_workloads


def _suite(workloads: Iterable[Workload] | None) -> list[Workload]:
    return list(workloads) if workloads is not None else all_workloads()


def _speedup_series(
    label: str,
    results: dict[str, SimulationResult],
    baseline_results: dict[str, SimulationResult],
) -> ExperimentSeries:
    values = {
        name: results[name].ipc / baseline_results[name].ipc
        for name in results
        if baseline_results[name].ipc > 0
    }
    return ExperimentSeries(label=label, values=values)


def _comparison_figure(
    result: ExperimentResult,
    baseline_config: PipelineConfig,
    labelled_configs: tuple[tuple[str, PipelineConfig], ...],
    workloads: Iterable[Workload] | None,
    max_uops: int | None,
    warmup_uops: int | None,
) -> ExperimentResult:
    """Run one grid (baseline + variants) and append one speedup series per variant."""
    selected = _suite(workloads)
    configs = [baseline_config] + [config for _, config in labelled_configs]
    grid = run_grid(
        configs, selected, max_uops, warmup_uops, label=result.experiment_id
    )
    baseline = grid[baseline_config.name]
    for label, config in labelled_configs:
        result.series.append(_speedup_series(label, grid[config.name], baseline))
    return result


# --------------------------------------------------------------------------- Figure 2
def fig2_early_execution_share(
    workloads: Iterable[Workload] | None = None,
    max_uops: int | None = None,
    warmup_uops: int | None = None,
    depths: tuple[int, ...] = (1, 2),
) -> ExperimentResult:
    """Fig. 2: fraction of committed µ-ops early-executed, for 1 and 2 ALU stages."""
    selected = _suite(workloads)
    result = ExperimentResult(
        experiment_id="fig2_early_exec_share",
        title="Proportion of committed µ-ops that can be early-executed",
        value_kind="ratio",
        notes="Paper: single ALU stage captures nearly all of the benefit (Fig. 2).",
    )
    configs = [
        eole_6_64().derive(
            name=f"EOLE_6_64_ee{depth}",
            eole=eole_config(variant=EOLEVariant.EOLE, ee_depth=depth),
        )
        for depth in depths
    ]
    grid = run_grid(
        configs, selected, max_uops, warmup_uops, label=result.experiment_id
    )
    for depth, config in zip(depths, configs):
        runs = grid[config.name]
        result.series.append(
            ExperimentSeries(
                label=f"{depth} ALU stage{'s' if depth > 1 else ''}",
                values={name: run.stats.early_executed_ratio for name, run in runs.items()},
            )
        )
    return result


# --------------------------------------------------------------------------- Figure 4
def fig4_late_execution_share(
    workloads: Iterable[Workload] | None = None,
    max_uops: int | None = None,
    warmup_uops: int | None = None,
) -> ExperimentResult:
    """Fig. 4: fraction of committed µ-ops late-executed (disjoint from Fig. 2)."""
    selected = _suite(workloads)
    config = eole_6_64()
    runs = run_grid(
        [config], selected, max_uops, warmup_uops, label="fig4_late_exec_share"
    )[config.name]
    result = ExperimentResult(
        experiment_id="fig4_late_exec_share",
        title="Proportion of committed µ-ops that can be late-executed",
        value_kind="ratio",
        notes="Late-executable µ-ops that could also early-execute are not counted.",
    )
    result.series.append(
        ExperimentSeries(
            label="High-confidence branches",
            values={
                name: run.stats.late_resolved_branches / run.stats.committed_uops
                if run.stats.committed_uops
                else 0.0
                for name, run in runs.items()
            },
        )
    )
    result.series.append(
        ExperimentSeries(
            label="Value-predicted",
            values={
                name: run.stats.late_executed_alu / run.stats.committed_uops
                if run.stats.committed_uops
                else 0.0
                for name, run in runs.items()
            },
        )
    )
    result.series.append(
        ExperimentSeries(
            label="Total offload (EE+LE)",
            values={name: run.stats.offload_ratio for name, run in runs.items()},
        )
    )
    return result


# --------------------------------------------------------------------------- Table 3
def table3_baseline_ipc(
    workloads: Iterable[Workload] | None = None,
    max_uops: int | None = None,
    warmup_uops: int | None = None,
) -> ExperimentResult:
    """Table 3: per-benchmark IPC of the 6-issue, 64-entry-IQ baseline (no VP)."""
    selected = _suite(workloads)
    config = baseline_6_64()
    runs = run_grid(
        [config], selected, max_uops, warmup_uops, label="table3_baseline_ipc"
    )[config.name]
    result = ExperimentResult(
        experiment_id="table3_baseline_ipc",
        title="Baseline_6_64 IPC per workload",
        value_kind="ipc",
    )
    result.series.append(
        ExperimentSeries(label="Measured IPC", values={n: r.ipc for n, r in runs.items()})
    )
    result.series.append(
        ExperimentSeries(
            label="Paper IPC",
            values={
                workload.name: workload.spec.paper_ipc
                for workload in selected
                if workload.spec.paper_ipc is not None
            },
        )
    )
    return result


# --------------------------------------------------------------------------- Figure 6
def fig6_vp_speedup(
    workloads: Iterable[Workload] | None = None,
    max_uops: int | None = None,
    warmup_uops: int | None = None,
) -> ExperimentResult:
    """Fig. 6: speedup of Baseline_VP_6_64 (VTAGE-2DStride) over Baseline_6_64."""
    result = ExperimentResult(
        experiment_id="fig6_vp_speedup",
        title="Speedup brought by Value Prediction (VTAGE-2DStride)",
        baseline_label="Baseline_6_64",
        value_kind="speedup",
        notes="Paper: speedups up to ~1.4x on the most predictable codes, no slowdowns.",
    )
    return _comparison_figure(
        result,
        baseline_6_64(),
        (("VTAGE-2D-Str", baseline_vp_6_64()),),
        workloads,
        max_uops,
        warmup_uops,
    )


# --------------------------------------------------------------------------- Figure 7
def fig7_issue_width(
    workloads: Iterable[Workload] | None = None,
    max_uops: int | None = None,
    warmup_uops: int | None = None,
) -> ExperimentResult:
    """Fig. 7: issue-width impact on EOLE vs the VP baseline (normalised to VP_6_64)."""
    result = ExperimentResult(
        experiment_id="fig7_issue_width",
        title="Performance vs issue width",
        baseline_label="Baseline_VP_6_64",
        value_kind="speedup",
        notes="Paper: EOLE_4_64 stays on par with Baseline_VP_6_64; Baseline_VP_4_64 loses up to ~12%.",
    )
    return _comparison_figure(
        result,
        baseline_vp_6_64(),
        (
            ("Baseline_VP_4_64", baseline_vp_4_64()),
            ("EOLE_4_64", eole_4_64()),
            ("EOLE_6_64", eole_6_64()),
        ),
        workloads,
        max_uops,
        warmup_uops,
    )


# --------------------------------------------------------------------------- Figure 8
def fig8_iq_size(
    workloads: Iterable[Workload] | None = None,
    max_uops: int | None = None,
    warmup_uops: int | None = None,
) -> ExperimentResult:
    """Fig. 8: IQ-size impact on EOLE vs the VP baseline (normalised to VP_6_64)."""
    result = ExperimentResult(
        experiment_id="fig8_iq_size",
        title="Performance vs instruction queue size",
        baseline_label="Baseline_VP_6_64",
        value_kind="speedup",
        notes="Paper: EOLE mitigates the loss of shrinking the IQ from 64 to 48 entries.",
    )
    return _comparison_figure(
        result,
        baseline_vp_6_64(),
        (
            ("Baseline_VP_6_48", baseline_vp_6_48()),
            ("EOLE_6_48", eole_6_48()),
            ("EOLE_6_64", eole_6_64()),
        ),
        workloads,
        max_uops,
        warmup_uops,
    )


# --------------------------------------------------------------------------- Figure 10
def fig10_prf_banks(
    workloads: Iterable[Workload] | None = None,
    max_uops: int | None = None,
    warmup_uops: int | None = None,
    bank_counts: tuple[int, ...] = (2, 4, 8),
) -> ExperimentResult:
    """Fig. 10: EOLE_4_64 with a banked PRF, normalised to the single-bank EOLE_4_64."""
    result = ExperimentResult(
        experiment_id="fig10_prf_banks",
        title="Impact of PRF banking on EOLE_4_64",
        baseline_label="EOLE_4_64 (1 bank)",
        value_kind="speedup",
        notes="Paper: 4 banks of 64 registers is a reasonable tradeoff (losses are marginal).",
    )
    labelled = tuple(
        (
            f"{banks} banks",
            eole_4_64_banked(
                banks=banks, levt_ports_per_bank=None, ee_write_ports_per_bank=None
            ).derive(name=f"EOLE_4_64_{banks}banks"),
        )
        for banks in bank_counts
    )
    return _comparison_figure(
        result, eole_4_64(), labelled, workloads, max_uops, warmup_uops
    )


# --------------------------------------------------------------------------- Figure 11
def fig11_levt_ports(
    workloads: Iterable[Workload] | None = None,
    max_uops: int | None = None,
    warmup_uops: int | None = None,
    port_counts: tuple[int, ...] = (2, 3, 4),
) -> ExperimentResult:
    """Fig. 11: limiting LE/VT read ports per bank on a 4-banked EOLE_4_64."""
    result = ExperimentResult(
        experiment_id="fig11_levt_ports",
        title="Impact of limited LE/VT read ports (4-bank PRF)",
        baseline_label="EOLE_4_64 (unconstrained ports)",
        value_kind="speedup",
        notes="Paper: 2 ports per bank are not enough; 4 ports per bank are near-neutral.",
    )
    labelled = tuple(
        (
            f"{ports}P/4B",
            eole_4_64_banked(banks=4, levt_ports_per_bank=ports).derive(
                name=f"EOLE_4_64_{ports}P_4B"
            ),
        )
        for ports in port_counts
    )
    return _comparison_figure(
        result, eole_4_64(), labelled, workloads, max_uops, warmup_uops
    )


# --------------------------------------------------------------------------- Figure 12
def fig12_overall(
    workloads: Iterable[Workload] | None = None,
    max_uops: int | None = None,
    warmup_uops: int | None = None,
) -> ExperimentResult:
    """Fig. 12: the realistic EOLE design point vs the VP baseline and the no-VP baseline."""
    result = ExperimentResult(
        experiment_id="fig12_overall",
        title="Overall comparison (normalised to Baseline_VP_6_64)",
        baseline_label="Baseline_VP_6_64",
        value_kind="speedup",
        notes="Paper: EOLE_4_64 with 4 banks / 4 LE-VT ports retains the VP speedup over Baseline_6_64.",
    )
    return _comparison_figure(
        result,
        baseline_vp_6_64(),
        (
            ("Baseline_6_64", baseline_6_64()),
            ("EOLE_4_64", eole_4_64()),
            ("EOLE_4_64_4ports_4banks", eole_4_64_banked(banks=4, levt_ports_per_bank=4)),
        ),
        workloads,
        max_uops,
        warmup_uops,
    )


# --------------------------------------------------------------------------- Figure 13
def fig13_variants(
    workloads: Iterable[Workload] | None = None,
    max_uops: int | None = None,
    warmup_uops: int | None = None,
) -> ExperimentResult:
    """Fig. 13: EOLE vs OLE (Late only) vs EOE (Early only), all 4-issue, banked PRF."""
    result = ExperimentResult(
        experiment_id="fig13_variants",
        title="Modularity of EOLE: Early-only and Late-only variants",
        baseline_label="Baseline_VP_6_64",
        value_kind="speedup",
        notes="Paper: removing Late Execution hurts more than removing Early Execution; "
        "all variants stay within ~5% of the 6-issue VP baseline.",
    )
    return _comparison_figure(
        result,
        baseline_vp_6_64(),
        (
            ("EOLE_4_64_4ports_4banks", eole_4_64_banked(banks=4, levt_ports_per_bank=4)),
            ("OLE_4_64_4ports_4banks", ole_4_64()),
            ("EOE_4_64_4ports_4banks", eoe_4_64()),
        ),
        workloads,
        max_uops,
        warmup_uops,
    )


# --------------------------------------------------------------------------- ablations
def ablation_fpc_vector(
    workloads: Iterable[Workload] | None = None,
    max_uops: int = 20_000,
) -> ExperimentResult:
    """FPC ablation (Section 4.2): probabilistic vs deterministic confidence counters.

    Reported values are the *accuracy* of used predictions per workload for each
    confidence scheme; coverage is recorded in the companion series.  The paper's point
    is that FPC pushes accuracy high enough for squash-based recovery at a modest
    coverage cost.
    """
    selected = _suite(workloads)
    result = ExperimentResult(
        experiment_id="ablation_fpc",
        title="Confidence estimation ablation: FPC vs deterministic 3-bit counters",
        value_kind="ratio",
        notes="FPC (paper vector) should give near-1.0 accuracy; deterministic counters "
        "trade accuracy for coverage.",
    )
    schemes = (
        ("FPC accuracy", PAPER_FPC_VECTOR, "accuracy"),
        ("FPC coverage", PAPER_FPC_VECTOR, "coverage"),
        ("3-bit accuracy", DETERMINISTIC_3BIT_VECTOR, "accuracy"),
        ("3-bit coverage", DETERMINISTIC_3BIT_VECTOR, "coverage"),
    )
    evaluations: dict[tuple[str, int], object] = {}
    for label, vector, metric in schemes:
        values = {}
        for workload in selected:
            key = (str(vector), id(workload))
            if key not in evaluations:
                predictor = VTAGE2DStrideHybrid(
                    vtage=VTAGEPredictor(fpc_vector=vector, seed=0x11),
                    stride=TwoDeltaStridePredictor(fpc_vector=vector, seed=0x22),
                )
                evaluations[key] = evaluate_predictor(predictor, workload, max_uops=max_uops)
            evaluation = evaluations[key]
            values[workload.name] = getattr(evaluation, metric)
        result.series.append(ExperimentSeries(label=label, values=values))
    return result


#: Registry of every experiment regenerated by the benchmark harness.
EXPERIMENTS = {
    "fig2_early_exec_share": fig2_early_execution_share,
    "fig4_late_exec_share": fig4_late_execution_share,
    "table3_baseline_ipc": table3_baseline_ipc,
    "fig6_vp_speedup": fig6_vp_speedup,
    "fig7_issue_width": fig7_issue_width,
    "fig8_iq_size": fig8_iq_size,
    "fig10_prf_banks": fig10_prf_banks,
    "fig11_levt_ports": fig11_levt_ports,
    "fig12_overall": fig12_overall,
    "fig13_variants": fig13_variants,
    "ablation_fpc": ablation_fpc_vector,
}
