#!/usr/bin/env python3
"""Explore the EOLE hardware design space on one workload.

Sweeps the knobs discussed in Section 6 of the paper:

* EOLE vs OLE (Late Execution only) vs EOE (Early Execution only) — Fig. 13;
* PRF banking (1/2/4/8 banks) — Fig. 10;
* LE/VT read ports per bank (2/3/4/unlimited) — Fig. 11;

all on a 4-issue OoO engine, reported relative to Baseline_VP_6_64.

Usage::

    python examples/eole_design_space.py [workload]
"""

from __future__ import annotations

import sys

from repro.analysis.runner import run_workload
from repro.pipeline.config import (
    baseline_vp_6_64,
    eoe_4_64,
    eole_4_64,
    eole_4_64_banked,
    ole_4_64,
)
from repro.workloads.suite import workload


def main() -> None:
    name = sys.argv[1] if len(sys.argv) > 1 else "namd"
    selected = workload(name)
    max_uops, warmup = 10_000, 3_000

    # Routed through the campaign engine: all ten configurations replay one captured
    # trace, and with REPRO_RESULT_STORE set the sweep persists/resumes across runs.
    baseline = run_workload(baseline_vp_6_64(), selected, max_uops, warmup)
    print(f"workload {name}: Baseline_VP_6_64 IPC = {baseline.ipc:.3f}\n")

    configurations = [
        ("EOLE_4_64 (ideal PRF)", eole_4_64()),
        ("OLE_4_64 (Late Execution only)", ole_4_64()),
        ("EOE_4_64 (Early Execution only)", eoe_4_64()),
        ("EOLE_4_64, 2 banks", eole_4_64_banked(banks=2, levt_ports_per_bank=None)),
        ("EOLE_4_64, 4 banks", eole_4_64_banked(banks=4, levt_ports_per_bank=None)),
        ("EOLE_4_64, 8 banks", eole_4_64_banked(banks=8, levt_ports_per_bank=None)),
        ("EOLE_4_64, 4 banks, 2 LE/VT ports", eole_4_64_banked(banks=4, levt_ports_per_bank=2)),
        ("EOLE_4_64, 4 banks, 3 LE/VT ports", eole_4_64_banked(banks=4, levt_ports_per_bank=3)),
        ("EOLE_4_64, 4 banks, 4 LE/VT ports", eole_4_64_banked(banks=4, levt_ports_per_bank=4)),
    ]

    print(f"{'configuration':<40s} {'IPC':>6s} {'vs VP_6_64':>11s} {'offload':>8s} {'LE/VT stalls':>13s}")
    print("-" * 82)
    for label, config in configurations:
        result = run_workload(config, selected, max_uops, warmup)
        print(
            f"{label:<40s} {result.ipc:6.3f} {result.ipc / baseline.ipc:11.3f} "
            f"{result.stats.offload_ratio:8.1%} {result.stats.levt_port_stalls:13d}"
        )
    print(
        "\nThe paper's recommended point — 4 banks with 4 LE/VT read ports per bank — keeps\n"
        "the PRF port count of a 6-issue baseline without VP while staying within a few\n"
        "percent of the unconstrained EOLE_4_64 (Sections 6.3-6.4)."
    )


if __name__ == "__main__":
    main()
