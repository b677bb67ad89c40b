#!/usr/bin/env python3
"""Inspect the synthetic SPEC-analogue workload suite (the Table 3 substitution).

For each workload, prints the paper benchmark it stands in for, its dynamic instruction
mix, and the micro-architectural character the knobs were tuned for.  Useful to
understand what the reproduction actually runs instead of SPEC.

Usage::

    python examples/workload_gallery.py [max_uops_per_workload]
"""

from __future__ import annotations

import sys
from itertools import islice

from repro.isa.opcode import OpClass
from repro.isa.trace import characterize
from repro.trace.cache import shared_trace_cache
from repro.workloads.suite import all_workloads


def main() -> None:
    max_uops = int(sys.argv[1]) if len(sys.argv) > 1 else 4_000
    header = (
        f"{'workload':>9s} {'paper benchmark':>16s} {'cat':>4s} {'branches':>9s} "
        f"{'memory':>7s} {'FP':>6s} {'VP-eligible':>12s}  description"
    )
    print(header)
    print("-" * (len(header) + 20))
    for wl in all_workloads():
        # Traces come from the shared cache, so a later simulation study in the same
        # process (or session, with REPRO_TRACE_STORE) reuses these captures.
        trace = shared_trace_cache.trace_for_length(wl, max_uops)
        stats = characterize(islice(trace.replay(), max_uops))
        fp_ratio = (
            stats.class_ratio(OpClass.FP_ALU)
            + stats.class_ratio(OpClass.FP_MUL)
            + stats.class_ratio(OpClass.FP_DIV)
        )
        print(
            f"{wl.name:>9s} {wl.paper_benchmark:>16s} {wl.spec.category:>4s} "
            f"{stats.branch_ratio:9.1%} {stats.memory_ratio:7.1%} {fp_ratio:6.1%} "
            f"{stats.vp_eligible_ratio:12.1%}  {wl.spec.description}"
        )


if __name__ == "__main__":
    main()
