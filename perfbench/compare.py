#!/usr/bin/env python3
"""Compare two sets of benchmark runs by the rule of BENCHMARK.json's bounds.

Usage (each directory holds the ``--out`` files of ``run.py`` runs; run the two
sides alternately, with the same seed and ``--seconds``)::

    python3 perfbench/compare.py PARENT_DIR CHANGE_DIR
    python3 perfbench/compare.py --summary DIR      # medians and quartiles as JSON

For every workload and metric it prints both sides' medians and quartiles and the
share of run pairs (parent run i, change run i) the change won, then a verdict:

* ``improved`` — the change won at least 9/10 of the pairs and the medians differ
  by more than the parent's own quartile spread;
* ``unresolved`` — the parent's spread (IQR / median) is wider than the bound,
  unless every change run reads better than every parent run;
* ``regressed`` — the change's median is worse than the parent's by more than the
  bound;
* ``within bound`` — otherwise.

Metrics without a bound (the per-layer ones) are listed with ``-``.  The exit
status is 1 when any metric regressed or the share of failed cells grew.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

#: Share of pairs the change must win before a gain may be claimed.
WIN_SHARE = 0.9


def load_runs(directory: Path) -> dict[str, list[dict]]:
    """Workload → its runs in the order they were recorded."""
    runs: dict[str, list[dict]] = {}
    for path in sorted(directory.glob("*.json")):
        record = json.loads(path.read_text())
        runs.setdefault(record["workload"], []).append(record)
    for records in runs.values():
        records.sort(key=lambda record: record["recorded_unix"])
    return runs


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(q1, median, q3) as ``statistics.quantiles(n=4)`` gives them."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def spread(values: list[float]) -> str:
    q1, median, q3 = quartiles(values)
    return f"{median:.6g} [{q1:.6g}, {q3:.6g}]"


def summarise(runs: dict[str, list[dict]]) -> dict:
    """Workload → metric → n, median, quartiles and IQR as a share of the median."""
    out: dict[str, dict] = {}
    for workload, records in sorted(runs.items()):
        metrics: dict[str, dict] = {}
        for name in records[0]["metrics"]:
            values = [record["metrics"][name]["value"] for record in records]
            q1, median, q3 = quartiles(values)
            metrics[name] = {
                "unit": records[0]["metrics"][name]["unit"],
                "n": len(values),
                "median": median,
                "q1": q1,
                "q3": q3,
                "iqr_frac": (q3 - q1) / median if median else 0.0,
            }
        out[workload] = metrics
    return out


def verdict(parent: list[float], change: list[float], better: str, bound: float | None):
    """(status, share of pairs won) for one metric on one workload."""
    sign = 1.0 if better == "higher" else -1.0
    pairs = list(zip(parent, change))
    won = sum(1 for p, c in pairs if sign * (c - p) > 0) / len(pairs)
    if bound is None:
        return "-", won
    p_q1, p_median, p_q3 = quartiles(parent)
    _, c_median, _ = quartiles(change)
    spread = p_q3 - p_q1
    all_better = all(sign * (c - p) > 0 for p in parent for c in change)
    if p_median and spread / abs(p_median) > bound and not all_better:
        return "unresolved", won
    if won >= WIN_SHARE and abs(c_median - p_median) > spread:
        return "improved", won
    if p_median and sign * (p_median - c_median) / abs(p_median) > bound:
        return "regressed", won
    return "within bound", won


def failed_frac(records: list[dict]) -> float:
    return sum(r["failed"] for r in records) / max(1, sum(r["attempted"] for r in records))


def compare(parent_dir: Path, change_dir: Path) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    metric_spec = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    parent, change = load_runs(parent_dir), load_runs(change_dir)
    regressed = False
    for workload in sorted(set(parent) & set(change)):
        p_runs, c_runs = parent[workload], change[workload]
        print(f"== {workload}: {len(p_runs)} parent runs, {len(c_runs)} change runs")
        print(f"   {'metric':<30s} {'parent median [q1, q3]':>34s} "
              f"{'change median [q1, q3]':>34s} {'won':>5s}  status")
        names = [n for n in p_runs[0]["metrics"] if n in c_runs[0]["metrics"]]
        for name in names:
            p_values = [r["metrics"][name]["value"] for r in p_runs]
            c_values = [r["metrics"][name]["value"] for r in c_runs]
            status, won = verdict(
                p_values, c_values, metric_spec[name]["better"], metric_spec[name].get("bound")
            )
            regressed |= status == "regressed"
            print(f"   {name:<30s} {spread(p_values):>34s} {spread(c_values):>34s} "
                  f"{won:>5.0%}  {status}")
        p_failed, c_failed = failed_frac(p_runs), failed_frac(c_runs)
        status = "regressed" if c_failed > p_failed else "within bound"
        regressed |= c_failed > p_failed
        print(f"   {'failed_frac':<30s} {p_failed:>34.4g} {c_failed:>34.4g} {'':>5s}  {status}")
    return 1 if regressed else 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("dirs", nargs="*", metavar="DIR")
    parser.add_argument("--summary", default=None, metavar="DIR",
                        help="print the medians and quartiles of one set of runs as JSON")
    args = parser.parse_args(argv)
    if args.summary:
        print(json.dumps(summarise(load_runs(Path(args.summary))), indent=1))
        return 0
    if len(args.dirs) != 2:
        parser.error("expected PARENT_DIR CHANGE_DIR")
    return compare(Path(args.dirs[0]), Path(args.dirs[1]))


if __name__ == "__main__":
    sys.exit(main())
