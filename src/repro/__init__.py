"""repro — a from-scratch reproduction of *EOLE: Paving the Way for an Effective
Implementation of Value Prediction* (Perais & Seznec, ISCA 2014).

The package is organised bottom-up:

* :mod:`repro.isa` — the µ-op ISA, programs and the architectural emulator;
* :mod:`repro.vp` — value predictors (VTAGE, 2-Delta Stride, the paper's hybrid, FPC);
* :mod:`repro.bpu` — TAGE branch prediction with confidence, BTB, RAS;
* :mod:`repro.mem` — caches, stride prefetcher and the DRAM model;
* :mod:`repro.ooo` — ROB, issue queue, LSQ, Store Sets, FU pool, banked PRF;
* :mod:`repro.core` — the paper's contribution: Early/Late Execution and EOLE variants;
* :mod:`repro.pipeline` — the cycle-level simulator and the named machine configurations;
* :mod:`repro.workloads` — the 19 synthetic SPEC-analogue kernels;
* :mod:`repro.analysis` — experiment harness regenerating every table and figure.

Quickstart::

    from repro.pipeline import baseline_vp_6_64, eole_4_64, simulate
    from repro.workloads import workload

    base = simulate(baseline_vp_6_64(), workload("namd"), max_uops=8000)
    eole = simulate(eole_4_64(), workload("namd"), max_uops=8000)
    print(base.ipc, eole.ipc, eole.ipc / base.ipc)
"""

from repro.core import EOLEConfig, EOLEVariant, eole_config
from repro.pipeline import (
    PipelineConfig,
    SimulationResult,
    Simulator,
    baseline_6_64,
    baseline_vp_6_64,
    eole_4_64,
    eole_6_64,
    named_config,
    simulate,
)
from repro.workloads import Workload, WorkloadSpec, all_workloads, workload

__version__ = "1.0.0"

__all__ = [
    "EOLEConfig",
    "EOLEVariant",
    "PipelineConfig",
    "SimulationResult",
    "Simulator",
    "Workload",
    "WorkloadSpec",
    "all_workloads",
    "baseline_6_64",
    "baseline_vp_6_64",
    "eole_4_64",
    "eole_6_64",
    "eole_config",
    "named_config",
    "simulate",
    "workload",
    "__version__",
]
