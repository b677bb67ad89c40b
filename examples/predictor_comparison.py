#!/usr/bin/env python3
"""Compare value-predictor families at the trace level (coverage / accuracy / storage).

Evaluates Last-Value, Stride, 2-Delta Stride, FCM, VTAGE and the paper's VTAGE-2DStride
hybrid on a few contrasting workloads, using the offline evaluation harness (no pipeline
timing involved).  This mirrors the predictor discussion of Section 2 and Table 2.

Each workload is emulated once: all six predictors replay the same captured trace from
the shared trace cache, and with ``REPRO_TRACE_STORE`` set repeated comparison sessions
skip emulation entirely (docs/performance.md).

Usage::

    python examples/predictor_comparison.py [workload ...]
"""

from __future__ import annotations

import sys

from repro.analysis.predictor_eval import evaluate_predictor
from repro.vp.confidence import SCALED_FPC_VECTOR
from repro.vp.fcm import FCMPredictor
from repro.vp.hybrid import default_paper_predictor
from repro.vp.last_value import LastValuePredictor
from repro.vp.stride import StridePredictor, TwoDeltaStridePredictor
from repro.vp.vtage import VTAGEPredictor
from repro.workloads.suite import workload

DEFAULT_WORKLOADS = ("bzip2", "wupwise", "hmmer", "milc")


def make_predictors():
    """Fresh predictor instances (scaled FPC vector, suited to short traces)."""
    return {
        "LVP": LastValuePredictor(fpc_vector=SCALED_FPC_VECTOR),
        "Stride": StridePredictor(fpc_vector=SCALED_FPC_VECTOR),
        "2D-Stride": TwoDeltaStridePredictor(fpc_vector=SCALED_FPC_VECTOR),
        "FCM": FCMPredictor(fpc_vector=SCALED_FPC_VECTOR),
        "VTAGE": VTAGEPredictor(fpc_vector=SCALED_FPC_VECTOR),
        "VTAGE-2DStride": default_paper_predictor(fpc_vector=SCALED_FPC_VECTOR),
    }


def main() -> None:
    names = sys.argv[1:] if len(sys.argv) > 1 else list(DEFAULT_WORKLOADS)
    max_uops = 15_000
    header = f"{'workload':>10s} {'predictor':>16s} {'coverage':>9s} {'accuracy':>9s} {'size KB':>8s}"
    print(header)
    print("-" * len(header))
    for name in names:
        selected = workload(name)
        for label, predictor in make_predictors().items():
            evaluation = evaluate_predictor(predictor, selected, max_uops=max_uops)
            print(
                f"{name:>10s} {label:>16s} {evaluation.coverage:9.1%} "
                f"{evaluation.accuracy:9.3%} {evaluation.storage_kilobytes:8.1f}"
            )
        print("-" * len(header))
    print(
        "\nCoverage = fraction of eligible µ-ops predicted with saturated FPC confidence;\n"
        "accuracy = fraction of those that were correct (what keeps squashes affordable)."
    )


if __name__ == "__main__":
    main()
