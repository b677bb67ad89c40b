#!/usr/bin/env python3
"""Quickstart: simulate one workload on the paper's three headline machines.

Runs the ``namd`` analogue (wide ILP, highly value-predictable — the paper's best case
for EOLE) on:

* ``Baseline_6_64``        — the 6-issue superscalar of Table 1, no value prediction;
* ``Baseline_VP_6_64``     — the same machine plus the VTAGE-2DStride value predictor;
* ``EOLE_4_64``            — Early/Late Execution with the OoO issue width reduced to 4.

Usage::

    python examples/quickstart.py [workload] [max_uops]
"""

from __future__ import annotations

import sys

from repro.analysis.runner import run_workload
from repro.pipeline.config import baseline_6_64, baseline_vp_6_64, eole_4_64
from repro.workloads.suite import workload


def main() -> None:
    name = sys.argv[1] if len(sys.argv) > 1 else "namd"
    max_uops = int(sys.argv[2]) if len(sys.argv) > 2 else 12_000
    warmup = max_uops // 3
    selected = workload(name)

    print(f"workload: {name}  (stand-in for {selected.paper_benchmark})")
    print(f"simulating {max_uops} µ-ops ({warmup} warm-up) per configuration\n")

    # run_workload routes through the campaign engine: the three configurations
    # replay one captured trace, results land in the in-process memo store, and
    # with REPRO_RESULT_STORE set they persist across sessions (docs/campaign.md).
    results = {}
    for config in (baseline_6_64(), baseline_vp_6_64(), eole_4_64()):
        result = run_workload(config, selected, max_uops, warmup)
        results[config.name] = result
        print(result.summary())

    base = results["Baseline_6_64"]
    vp = results["Baseline_VP_6_64"]
    eole = results["EOLE_4_64"]
    print()
    print(f"value prediction speedup (VP_6_64 / 6_64):        {vp.ipc / base.ipc:5.3f}")
    print(f"EOLE_4_64 relative to Baseline_VP_6_64:           {eole.ipc / vp.ipc:5.3f}")
    print(f"µ-ops bypassing the OoO engine under EOLE:        {eole.stats.offload_ratio:5.1%}")
    print(f"  - early-executed (front-end, next to Rename):   {eole.stats.early_executed_ratio:5.1%}")
    print(f"  - late-executed/resolved (pre-commit LE/VT):    {eole.stats.late_executed_ratio:5.1%}")
    print(f"value predictor coverage / accuracy:              "
          f"{vp.predictor_coverage:5.1%} / {vp.predictor_accuracy:7.4%}")


if __name__ == "__main__":
    main()
