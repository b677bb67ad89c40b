"""The 19-benchmark synthetic suite mirroring Table 3 of the paper.

Each entry pairs a SPEC CPU2000/2006 program used in the paper with a synthetic
analogue whose behavioural knobs (see :class:`~repro.workloads.spec.WorkloadSpec`) are
chosen to land in the same qualitative regime: IPC band, value-prediction benefit,
Early/Late-Execution coverage, memory-boundedness and branch behaviour.  The mapping is
a *substitution*, documented in DESIGN.md §2 — per-benchmark absolute numbers are not
expected to match the paper, but the spread across the suite (which programs benefit
from VP/EOLE, which are insensitive, which are memory-bound) is.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import ConfigurationError
from repro.isa.emulator import ArchState
from repro.isa.program import Program
from repro.workloads.kernels import build_program, make_arch_state
from repro.workloads.spec import WorkloadSpec


@dataclass
class Workload:
    """A runnable synthetic benchmark: spec + lazily built program + fresh state factory."""

    spec: WorkloadSpec
    _program: Program | None = field(default=None, repr=False)
    _case_labels: list[str] = field(default_factory=list, repr=False)

    @property
    def name(self) -> str:
        """Workload name (the SPEC analogue's short name)."""
        return self.spec.name

    @property
    def paper_benchmark(self) -> str:
        """The paper benchmark this workload stands in for (e.g. ``"429.mcf"``)."""
        return self.spec.paper_benchmark

    @property
    def program(self) -> Program:
        """The kernel program (built on first use, then cached)."""
        if self._program is None:
            self._program, self._case_labels = build_program(self.spec)
        return self._program

    def make_state(self) -> ArchState:
        """A fresh architectural state whose memory image holds the workload's arrays.

        The arrays are closed-form regions computed on first read, so this is O(1).
        A new state must be used for every simulation run, because the emulator mutates
        memory and registers.
        """
        program = self.program  # ensure built so case labels exist
        return make_arch_state(self.spec, program, self._case_labels)


# --------------------------------------------------------------------------- the suite
_SPECS: list[WorkloadSpec] = [
    WorkloadSpec(
        name="gzip",
        paper_benchmark="164.gzip",
        paper_ipc=0.984,
        category="INT",
        description="LZ-style byte crunching: unpredictable load-fed chain, some branches",
        chain_alu_ops=2,
        chain_loads=2,
        chain_values_predictable=False,
        chain_footprint_words=1 << 13,
        chain_unpred_ops=5,
        unpred_chain_footprint_words=1 << 11,
        pred_chains=1,
        pred_chain_ops=2,
        invariant_alu_ops=1,
        immediate_alu_ops=2,
        unpred_alu_ops=2,
        strided_loads=1,
        strided_values_predictable=False,
        strided_footprint_words=1 << 13,
        stores=1,
        data_dep_branches=1,
        pred_branches=1,
    ),
    WorkloadSpec(
        name="wupwise",
        paper_benchmark="168.wupwise",
        paper_ipc=1.553,
        category="FP",
        description="FP accumulation chains with predictable operands: big VP benefit",
        chain_alu_ops=5,
        chain_fp_ops=6,
        chain_loads=1,
        chain_values_predictable=True,
        chain_unpred_ops=3,
        pred_chains=1,
        pred_chain_ops=2,
        invariant_alu_ops=2,
        immediate_alu_ops=2,
        unpred_alu_ops=1,
        strided_loads=1,
        strided_values_predictable=True,
        strided_footprint_words=1 << 12,
        stores=1,
        pred_branches=1,
    ),
    WorkloadSpec(
        name="applu",
        paper_benchmark="173.applu",
        paper_ipc=1.591,
        category="FP",
        description="Structured-grid sweeps: strided FP with predictable values",
        chain_alu_ops=7,
        chain_fp_ops=6,
        chain_loads=1,
        chain_values_predictable=True,
        chain_unpred_ops=3,
        pred_chains=2,
        pred_chain_ops=2,
        invariant_alu_ops=2,
        immediate_alu_ops=2,
        unpred_alu_ops=1,
        strided_loads=2,
        strided_values_predictable=True,
        strided_footprint_words=1 << 13,
        stores=2,
        fp_chains=1,
        fp_chain_ops=2,
        fp_mul_ops=1,
        pred_branches=1,
    ),
    WorkloadSpec(
        name="vpr",
        paper_benchmark="175.vpr",
        paper_ipc=1.326,
        category="INT",
        description="Place & route: hash-walk chain, moderate branches, moderate VP",
        chain_alu_ops=4,
        chain_loads=0,
        chain_unpred_ops=4,
        pred_chains=2,
        pred_chain_ops=2,
        invariant_alu_ops=2,
        immediate_alu_ops=2,
        unpred_alu_ops=2,
        strided_loads=1,
        strided_values_predictable=True,
        strided_footprint_words=1 << 12,
        random_loads=1,
        random_footprint_words=1 << 13,
        stores=1,
        data_dep_branches=1,
        pred_branches=1,
        calls=1,
    ),
    WorkloadSpec(
        name="art",
        paper_benchmark="179.art",
        paper_ipc=1.211,
        category="FP",
        description="Neural-net scan: highly regular, most of the chain predictable",
        chain_alu_ops=14,
        chain_fp_ops=4,
        chain_loads=1,
        chain_values_predictable=True,
        chain_unpred_ops=3,
        pred_chains=3,
        pred_chain_ops=2,
        invariant_alu_ops=3,
        immediate_alu_ops=3,
        unpred_alu_ops=1,
        strided_loads=2,
        strided_values_predictable=True,
        strided_footprint_words=1 << 14,
        stores=1,
        fp_chains=1,
        fp_chain_ops=2,
        pred_branches=2,
        inner_loop_trip=8,
    ),
    WorkloadSpec(
        name="crafty",
        paper_benchmark="186.crafty",
        paper_ipc=1.769,
        category="INT",
        description="Chess search: bit-twiddling on immediates, Early-Execution friendly",
        chain_alu_ops=5,
        chain_loads=1,
        chain_values_predictable=True,
        chain_footprint_words=1 << 10,
        chain_unpred_ops=5,
        pred_chains=1,
        pred_chain_ops=2,
        invariant_alu_ops=3,
        immediate_alu_ops=6,
        unpred_alu_ops=3,
        strided_loads=1,
        strided_values_predictable=False,
        strided_footprint_words=1 << 11,
        stores=1,
        data_dep_branches=1,
        pred_branches=2,
        calls=1,
    ),
    WorkloadSpec(
        name="parser",
        paper_benchmark="197.parser",
        paper_ipc=0.544,
        category="INT",
        description="Linked-structure walking with hard branches: low IPC, low coverage",
        chain_alu_ops=2,
        chain_unpred_ops=4,
        unpred_chain_footprint_words=1 << 12,
        pred_chains=1,
        pred_chain_ops=1,
        invariant_alu_ops=1,
        immediate_alu_ops=1,
        unpred_alu_ops=2,
        strided_loads=1,
        strided_values_predictable=False,
        strided_footprint_words=1 << 12,
        pointer_chase_loads=1,
        chase_footprint_words=1 << 15,
        stores=1,
        data_dep_branches=2,
        calls=1,
    ),
    WorkloadSpec(
        name="vortex",
        paper_benchmark="255.vortex",
        paper_ipc=1.781,
        category="INT",
        description="Object database: wide ILP, many calls and stores, issue-width hungry",
        chain_alu_ops=5,
        chain_loads=1,
        chain_values_predictable=True,
        chain_unpred_ops=4,
        pred_chains=3,
        pred_chain_ops=2,
        invariant_alu_ops=3,
        immediate_alu_ops=3,
        unpred_alu_ops=2,
        strided_loads=2,
        strided_values_predictable=True,
        strided_footprint_words=1 << 13,
        stores=3,
        pred_branches=2,
        calls=2,
    ),
    WorkloadSpec(
        name="bzip2",
        paper_benchmark="401.bzip2",
        paper_ipc=0.888,
        category="INT",
        description="Burrows-Wheeler: long predictable integer chains, notable VP benefit",
        chain_alu_ops=26,
        chain_loads=1,
        chain_values_predictable=True,
        chain_unpred_ops=5,
        pred_chains=1,
        pred_chain_ops=3,
        invariant_alu_ops=1,
        immediate_alu_ops=2,
        unpred_alu_ops=2,
        strided_loads=1,
        strided_values_predictable=False,
        strided_footprint_words=1 << 14,
        stores=1,
        data_dep_branches=1,
        pred_branches=1,
    ),
    WorkloadSpec(
        name="gcc",
        paper_benchmark="403.gcc",
        paper_ipc=1.055,
        category="INT",
        description="Compiler: branchy, call/indirect heavy, mixed predictability",
        chain_alu_ops=6,
        chain_loads=1,
        chain_values_predictable=True,
        chain_unpred_ops=3,
        pred_chains=1,
        pred_chain_ops=2,
        invariant_alu_ops=2,
        immediate_alu_ops=3,
        unpred_alu_ops=2,
        strided_loads=1,
        strided_values_predictable=True,
        strided_footprint_words=1 << 13,
        random_loads=1,
        random_footprint_words=1 << 14,
        stores=2,
        data_dep_branches=2,
        pred_branches=2,
        calls=2,
        indirect_jump_targets=4,
    ),
    WorkloadSpec(
        name="gamess",
        paper_benchmark="416.gamess",
        paper_ipc=1.929,
        category="FP",
        description="Quantum chemistry: high-IPC FP with immediate-fed integer glue",
        chain_alu_ops=4,
        chain_fp_ops=3,
        chain_values_predictable=True,
        chain_unpred_ops=4,
        pred_chains=2,
        pred_chain_ops=2,
        invariant_alu_ops=3,
        immediate_alu_ops=5,
        unpred_alu_ops=1,
        strided_loads=2,
        strided_values_predictable=True,
        strided_footprint_words=1 << 12,
        stores=1,
        fp_chains=1,
        fp_chain_ops=2,
        fp_mul_ops=2,
        pred_branches=1,
        inner_loop_trip=4,
    ),
    WorkloadSpec(
        name="mcf",
        paper_benchmark="429.mcf",
        paper_ipc=0.105,
        category="INT",
        description="Network simplex: serial pointer chasing over a DRAM-resident graph",
        chain_alu_ops=2,
        chain_unpred_ops=0,
        pred_chains=1,
        pred_chain_ops=2,
        invariant_alu_ops=1,
        immediate_alu_ops=1,
        unpred_alu_ops=2,
        strided_loads=0,
        pointer_chase_loads=2,
        chase_footprint_words=1 << 19,
        stores=1,
        data_dep_branches=2,
    ),
    WorkloadSpec(
        name="milc",
        paper_benchmark="433.milc",
        paper_ipc=0.459,
        category="FP",
        description="Lattice QCD: memory-bound FP, little value predictability (<10% offload)",
        chain_alu_ops=1,
        chain_unpred_ops=2,
        unpred_chain_footprint_words=1 << 12,
        pred_chains=0,
        pred_chain_ops=1,
        invariant_alu_ops=1,
        immediate_alu_ops=1,
        unpred_alu_ops=2,
        strided_loads=1,
        strided_values_predictable=False,
        strided_footprint_words=1 << 16,
        random_loads=1,
        random_footprint_words=1 << 19,
        stores=1,
        fp_chains=2,
        fp_chain_ops=2,
        fp_mul_ops=2,
    ),
    WorkloadSpec(
        name="namd",
        paper_benchmark="444.namd",
        paper_ipc=1.860,
        category="FP",
        description="Molecular dynamics: very wide ILP, ~60% offloadable, issue-width hungry",
        chain_alu_ops=7,
        chain_fp_ops=1,
        chain_loads=1,
        chain_values_predictable=True,
        chain_unpred_ops=2,
        pred_chains=6,
        pred_chain_ops=3,
        invariant_alu_ops=6,
        immediate_alu_ops=6,
        unpred_alu_ops=1,
        strided_loads=2,
        strided_values_predictable=True,
        strided_footprint_words=1 << 12,
        stores=1,
        fp_chains=2,
        fp_chain_ops=2,
        fp_mul_ops=1,
        pred_branches=1,
        inner_loop_trip=8,
    ),
    WorkloadSpec(
        name="gobmk",
        paper_benchmark="445.gobmk",
        paper_ipc=0.766,
        category="INT",
        description="Go engine: hard data-dependent branches, calls, modest predictability",
        chain_alu_ops=2,
        chain_loads=1,
        chain_values_predictable=False,
        chain_footprint_words=1 << 12,
        chain_unpred_ops=2,
        pred_chains=1,
        pred_chain_ops=2,
        invariant_alu_ops=2,
        immediate_alu_ops=2,
        unpred_alu_ops=2,
        strided_loads=1,
        strided_values_predictable=False,
        strided_footprint_words=1 << 13,
        random_loads=1,
        random_footprint_words=1 << 13,
        stores=1,
        data_dep_branches=3,
        pred_branches=1,
        calls=2,
    ),
    WorkloadSpec(
        name="hmmer",
        paper_benchmark="456.hmmer",
        paper_ipc=2.477,
        category="INT",
        description="Profile HMM inner loop: huge integer ILP, low VP coverage, IQ hungry",
        chain_alu_ops=1,
        chain_loads=2,
        chain_values_predictable=False,
        chain_footprint_words=1 << 10,
        chain_unpred_ops=4,
        pred_chains=1,
        pred_chain_ops=1,
        invariant_alu_ops=1,
        immediate_alu_ops=1,
        unpred_alu_ops=8,
        strided_loads=4,
        strided_values_predictable=False,
        strided_footprint_words=1 << 10,
        stores=2,
        pred_branches=1,
        inner_loop_trip=16,
    ),
    WorkloadSpec(
        name="sjeng",
        paper_benchmark="458.sjeng",
        paper_ipc=1.321,
        category="INT",
        description="Chess: branchy search with indirect dispatch, moderate predictability",
        chain_alu_ops=3,
        chain_loads=1,
        chain_values_predictable=True,
        chain_footprint_words=1 << 11,
        chain_unpred_ops=4,
        pred_chains=1,
        pred_chain_ops=2,
        invariant_alu_ops=2,
        immediate_alu_ops=3,
        unpred_alu_ops=2,
        strided_loads=1,
        strided_values_predictable=False,
        strided_footprint_words=1 << 12,
        stores=1,
        data_dep_branches=2,
        pred_branches=1,
        calls=1,
        indirect_jump_targets=4,
    ),
    WorkloadSpec(
        name="h264ref",
        paper_benchmark="464.h264ref",
        paper_ipc=1.312,
        category="INT",
        description="Video encode: strided pixel loads with predictable values, good VP benefit",
        chain_alu_ops=14,
        chain_loads=2,
        chain_values_predictable=True,
        chain_unpred_ops=3,
        pred_chains=3,
        pred_chain_ops=2,
        invariant_alu_ops=2,
        immediate_alu_ops=3,
        unpred_alu_ops=2,
        strided_loads=3,
        strided_values_predictable=True,
        strided_footprint_words=1 << 13,
        stores=2,
        data_dep_branches=1,
        pred_branches=1,
        inner_loop_trip=4,
    ),
    WorkloadSpec(
        name="lbm",
        paper_benchmark="470.lbm",
        paper_ipc=0.748,
        category="FP",
        description="Lattice-Boltzmann streaming: DRAM-bandwidth bound, low offload",
        chain_alu_ops=1,
        chain_loads=2,
        chain_values_predictable=False,
        chain_footprint_words=1 << 19,
        chain_unpred_ops=2,
        unpred_chain_footprint_words=1 << 12,
        pred_chains=1,
        pred_chain_ops=1,
        invariant_alu_ops=1,
        immediate_alu_ops=1,
        unpred_alu_ops=2,
        strided_loads=3,
        strided_values_predictable=False,
        strided_footprint_words=1 << 19,
        stores=3,
        fp_chains=2,
        fp_chain_ops=2,
        fp_mul_ops=1,
    ),
]

_SUITE: dict[str, Workload] = {spec.name: Workload(spec) for spec in _SPECS}

#: Workload names in the paper's Table 3 order.
SUITE_ORDER: tuple[str, ...] = tuple(spec.name for spec in _SPECS)

#: A small representative subset (fast CI / examples): covers high-VP, low-VP,
#: memory-bound, IQ-hungry and offload-heavy behaviours.
FAST_SUBSET: tuple[str, ...] = ("wupwise", "crafty", "mcf", "namd", "hmmer", "gcc")


def workload(name: str) -> Workload:
    """Look up a workload by name."""
    if name not in _SUITE:
        raise ConfigurationError(f"unknown workload {name!r}; known: {sorted(_SUITE)}")
    return _SUITE[name]


def all_workloads() -> list[Workload]:
    """All 19 workloads, in Table 3 order."""
    return [_SUITE[name] for name in SUITE_ORDER]


def fast_workloads() -> list[Workload]:
    """The representative fast subset (see :data:`FAST_SUBSET`)."""
    return [_SUITE[name] for name in FAST_SUBSET]


def workload_names() -> list[str]:
    """Names of all workloads in suite order."""
    return list(SUITE_ORDER)
