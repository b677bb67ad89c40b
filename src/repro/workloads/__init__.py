"""Synthetic workloads: the 19 SPEC-analogue kernels."""

from repro.workloads.kernels import (
    CHASE_BASE,
    JUMP_TABLE_BASE,
    OUTER_ITERATIONS,
    RANDOM_BASE,
    STORE_BASE,
    STRIDED_BASE,
    build_program,
    make_arch_state,
)
from repro.workloads.spec import WorkloadSpec
from repro.workloads.suite import (
    FAST_SUBSET,
    SUITE_ORDER,
    Workload,
    all_workloads,
    fast_workloads,
    workload,
    workload_names,
)

__all__ = [
    "CHASE_BASE",
    "FAST_SUBSET",
    "JUMP_TABLE_BASE",
    "OUTER_ITERATIONS",
    "RANDOM_BASE",
    "STORE_BASE",
    "STRIDED_BASE",
    "SUITE_ORDER",
    "Workload",
    "WorkloadSpec",
    "all_workloads",
    "build_program",
    "fast_workloads",
    "make_arch_state",
    "workload",
    "workload_names",
]
