"""Experiment result containers and plain-text report formatting.

The benchmark harness regenerates each table/figure of the paper as an
:class:`ExperimentResult`: a set of named series (one per machine configuration or per
bar group) with one value per workload, plus a summary row (geometric mean for
speedups, arithmetic mean for coverage ratios).  :func:`format_table` renders it as the
ASCII table printed by the benchmark suite and recorded under ``benchmarks/results/``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.analysis.metrics import arithmetic_mean, geometric_mean


@dataclass
class ExperimentSeries:
    """One line/bar-group of a figure: a label plus one value per workload."""

    label: str
    values: dict[str, float] = field(default_factory=dict)

    def summary(self, kind: str = "geomean") -> float:
        """Summary statistic across workloads (``geomean`` or ``mean``)."""
        values = list(self.values.values())
        if kind == "geomean":
            return geometric_mean(values)
        return arithmetic_mean(values)


@dataclass
class ExperimentResult:
    """A regenerated table or figure."""

    experiment_id: str
    title: str
    series: list[ExperimentSeries] = field(default_factory=list)
    value_kind: str = "speedup"  # "speedup", "ipc" or "ratio"
    baseline_label: str = ""
    notes: str = ""

    @property
    def workloads(self) -> list[str]:
        """Workload names appearing in any series, preserving first-seen order."""
        seen: dict[str, None] = {}
        for series in self.series:
            for name in series.values:
                seen.setdefault(name)
        return list(seen)

    def series_by_label(self, label: str) -> ExperimentSeries:
        """Look up a series by its label."""
        for series in self.series:
            if series.label == label:
                return series
        raise KeyError(f"no series labelled {label!r} in {self.experiment_id}")

    def summary_kind(self) -> str:
        """Which summary statistic suits this experiment's value kind."""
        return "geomean" if self.value_kind in ("speedup", "ipc") else "mean"


def format_table(result: ExperimentResult, precision: int = 3) -> str:
    """Render an :class:`ExperimentResult` as a fixed-width ASCII table."""
    workloads = result.workloads
    label_width = max([len("workload")] + [len(name) for name in workloads]) + 2
    column_width = max([10] + [len(series.label) + 2 for series in result.series])

    lines = [f"{result.experiment_id}: {result.title}"]
    if result.baseline_label:
        lines.append(f"(values are {result.value_kind}s relative to {result.baseline_label})")
    header = "workload".ljust(label_width) + "".join(
        series.label.rjust(column_width) for series in result.series
    )
    lines.append(header)
    lines.append("-" * len(header))
    for name in workloads:
        row = name.ljust(label_width)
        for series in result.series:
            value = series.values.get(name)
            cell = "-" if value is None else f"{value:.{precision}f}"
            row += cell.rjust(column_width)
        lines.append(row)
    lines.append("-" * len(header))
    summary_kind = result.summary_kind()
    summary_row = summary_kind.ljust(label_width)
    for series in result.series:
        summary_row += f"{series.summary(summary_kind):.{precision}f}".rjust(column_width)
    lines.append(summary_row)
    if result.notes:
        lines.append(result.notes)
    return "\n".join(lines)
