"""Metric helpers shared by the experiment harness: speedups, means, coverage ratios."""

from __future__ import annotations

import math
from collections.abc import Iterable, Mapping


def geometric_mean(values: Iterable[float]) -> float:
    """Geometric mean of positive values (the paper's cross-benchmark summary metric)."""
    values = [value for value in values if value > 0]
    if not values:
        return 0.0
    return math.exp(sum(math.log(value) for value in values) / len(values))


def arithmetic_mean(values: Iterable[float]) -> float:
    """Plain average (used for coverage-style ratios)."""
    values = list(values)
    if not values:
        return 0.0
    return sum(values) / len(values)


def speedups(
    ipcs: Mapping[str, float], baseline_ipcs: Mapping[str, float]
) -> dict[str, float]:
    """Per-workload speedups of ``ipcs`` over ``baseline_ipcs`` (missing entries skipped)."""
    result: dict[str, float] = {}
    for name, ipc in ipcs.items():
        baseline = baseline_ipcs.get(name)
        if baseline:
            result[name] = ipc / baseline
    return result
