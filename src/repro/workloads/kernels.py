"""Kernel generator: turn a :class:`~repro.workloads.spec.WorkloadSpec` into a program.

Every synthetic benchmark is a steady-state loop whose body is assembled from a small
set of behavioural building blocks (predictable accumulator chains, loop-invariant ALU
work, immediate-fed ALU work, strided/random/pointer-chasing loads, stores, FP chains,
data-dependent branches, calls, indirect jumps).  The blocks are chosen so that the
micro-architectural phenomena the paper relies on all occur and can be dialled per
workload:

* stride- and context-predictable results → value-prediction coverage, Late Execution;
* immediate/predicted operands inside a rename group → Early Execution;
* unpredictable load-dependent results → the uncovered fraction;
* footprints sized against the Table 1 cache hierarchy → L1/L2/DRAM behaviour;
* data-dependent branches → TAGE (high- and low-confidence) behaviour.
"""

from __future__ import annotations

from repro.isa.builder import ProgramBuilder
from repro.isa.emulator import ArchState
from repro.isa.program import Program
from repro.workloads.spec import WorkloadSpec

# Memory map of the synthetic kernels (byte addresses, 8-byte words).
STRIDED_BASE = 0x0100_0000
RANDOM_BASE = 0x0200_0000
CHASE_BASE = 0x0300_0000
STORE_BASE = 0x0400_0000
JUMP_TABLE_BASE = 0x0500_0000
CHAIN_BASE = 0x0600_0000

#: Value stored in every word of the chain array when the chain is predictable.
CHAIN_CONSTANT_VALUE = 42

#: Practically-infinite outer loop bound: the emulator stops at the requested µ-op count.
OUTER_ITERATIONS = 1 << 40

# Register allocation convention (see module docstring of repro.isa.registers).
R_ITER = 1          # outer iteration counter
R_STRIDE_OFF = 2    # strided-array byte offset
R_RANDOM_STATE = 3  # xorshift state for random addresses
R_CHASE_PTR = 4     # pointer-chase cursor (absolute address)
R_INNER = 5         # inner loop counter
R_STORE_OFF = 6     # store-array byte offset
R_ADDR_TMP = 7      # address scratch
R_TMP_BASE = 8      # r8..r15: temporaries (load results, branch data)
R_ACC_BASE = 16     # r16..r25: accumulators for predictable chains
R_CHAIN_UNPRED = 26  # cursor of the unpredictable loop-carried hash-walk chain
R_CHAIN = 27        # accumulator of the predictable loop-carried critical chain
R_CONST_ONE = 28
R_CONST_STRIDE = 29
R_INVARIANT_A = 30
R_INVARIANT_B = 31
F_ACC_BASE = 32     # f0..f11 as accumulators (register ids 32..43)
F_CONST_ADD = 44    # f12
F_CONST_MUL = 45    # f13
F_TMP = 46          # f14


class _KernelEmitter:
    """Stateful helper emitting the loop body blocks for one spec."""

    def __init__(self, spec: WorkloadSpec) -> None:
        self.spec = spec
        self.builder = ProgramBuilder(spec.name)
        self._label_counter = 0
        self._tmp_rotation = 0
        self._last_load_reg = R_INVARIANT_A  # something predictable until a load happens

    # ------------------------------------------------------------------ helpers
    def _label(self, stem: str) -> str:
        self._label_counter += 1
        return f"{stem}_{self._label_counter}"

    def _tmp(self) -> int:
        reg = R_TMP_BASE + (self._tmp_rotation % 8)
        self._tmp_rotation += 1
        return reg

    # ------------------------------------------------------------------ initialisation
    def emit_init(self) -> None:
        b = self.builder
        b.movi(R_ITER, 0)
        b.movi(R_STRIDE_OFF, 0)
        b.movi(R_RANDOM_STATE, 0x9E3779B9)
        b.movi(R_CHASE_PTR, CHASE_BASE)
        b.movi(R_STORE_OFF, 0)
        b.movi(R_CONST_ONE, 1)
        b.movi(R_CONST_STRIDE, 8)
        b.movi(R_INVARIANT_A, 0x1234_5678)
        b.movi(R_INVARIANT_B, 0x0FED_CBA9)
        b.movi(R_CHAIN, 7)
        b.movi(R_CHAIN_UNPRED, 0x1357_9BDF)
        for chain in range(10):
            b.movi(R_ACC_BASE + chain, 100 + chain)
        # Floating-point constants and accumulators.
        tmp = self._tmp()
        b.movi(tmp, 7)
        b.fcvt(F_CONST_ADD, tmp)
        b.movi(tmp, 3)
        b.fcvt(F_CONST_MUL, tmp)
        for chain in range(12):
            b.movi(tmp, 50 + chain)
            b.fcvt(F_ACC_BASE + chain, tmp)

    # ------------------------------------------------------------------ body blocks
    def emit_critical_chain(self) -> None:
        """The loop-carried critical chains that bound baseline IPC.

        Two serial chains are carried across iterations:

        * the **predictable chain** (``R_CHAIN`` / ``F_ACC_BASE``): constant integer
          increments, constant-valued chain loads and constant FP increments.  Its
          latency is what value prediction — and therefore EOLE — collapses.
        * the **unpredictable chain** (``R_CHAIN_UNPRED``): a hash-walk whose next
          address depends on the previously loaded (pseudo-random) value.  The value
          predictor cannot learn it, so it remains the serial floor under VP — which is
          how per-workload VP speedups are kept in a realistic range.
        """
        spec = self.spec
        b = self.builder
        mask = spec.chain_footprint_words * 8 - 1
        load_budget = spec.chain_loads
        alu_budget = spec.chain_alu_ops
        if load_budget and not spec.strided_loads:
            # Keep the chain-load addresses moving even when there is no independent
            # strided-load block advancing the shared offset register.
            b.addi(R_STRIDE_OFF, R_STRIDE_OFF, 8)
        # Interleave loads into the ALU chain so the load latency sits on the chain.
        while alu_budget > 0 or load_budget > 0:
            if load_budget > 0:
                # Address: strided walk of the chain array, derived from the offset
                # register (not from the chain value, so the address stays predictable).
                b.and_(R_ADDR_TMP, R_STRIDE_OFF, imm=mask)
                loaded = self._tmp()
                b.ld(loaded, R_ADDR_TMP, CHAIN_BASE)
                b.add(R_CHAIN, R_CHAIN, loaded)
                load_budget -= 1
            steps = min(alu_budget, 3) if load_budget > 0 else alu_budget
            for _step in range(steps):
                b.addi(R_CHAIN, R_CHAIN, 5)
            alu_budget -= steps
        for _op in range(spec.chain_fp_ops):
            b.fadd(F_ACC_BASE, F_ACC_BASE, F_CONST_ADD)
        unpred_mask = (spec.unpred_chain_footprint_words - 1) << 3
        for _op in range(spec.chain_unpred_ops):
            # Hash walk: the next address depends on the value just loaded.
            b.and_(R_ADDR_TMP, R_CHAIN_UNPRED, imm=unpred_mask)
            b.ld(R_CHAIN_UNPRED, R_ADDR_TMP, RANDOM_BASE)

    def emit_predictable_chains(self) -> None:
        spec = self.spec
        b = self.builder
        for chain in range(spec.pred_chains):
            acc = R_ACC_BASE + (chain % 11)
            for _op in range(spec.pred_chain_ops):
                b.addi(acc, acc, 3 + chain)

    def emit_invariant_alu(self) -> None:
        b = self.builder
        for index in range(self.spec.invariant_alu_ops):
            dst = self._tmp()
            if index % 3 == 0:
                b.add(dst, R_INVARIANT_A, R_INVARIANT_B)
            elif index % 3 == 1:
                b.xor(dst, R_INVARIANT_A, R_INVARIANT_B)
            else:
                b.and_(dst, R_INVARIANT_A, R_INVARIANT_B)

    def emit_immediate_alu(self) -> None:
        b = self.builder
        previous = None
        for index in range(self.spec.immediate_alu_ops):
            dst = self._tmp()
            if index % 2 == 0 or previous is None:
                b.movi(dst, 0x40 + index)
            else:
                b.addi(dst, previous, index + 1)
            previous = dst

    def emit_strided_loads(self) -> None:
        spec = self.spec
        if not spec.strided_loads:
            return
        b = self.builder
        mask = spec.strided_footprint_words * 8 - 1
        b.addi(R_STRIDE_OFF, R_STRIDE_OFF, 8)
        b.and_(R_STRIDE_OFF, R_STRIDE_OFF, imm=mask)
        for index in range(spec.strided_loads):
            dst = self._tmp()
            b.ld(dst, R_STRIDE_OFF, STRIDED_BASE + index * 64)
            self._last_load_reg = dst

    def emit_random_loads(self) -> None:
        spec = self.spec
        if not spec.random_loads:
            return
        b = self.builder
        index_mask = spec.random_footprint_words - 1
        for _index in range(spec.random_loads):
            # xorshift step: unpredictable addresses and values.
            b.shl(R_ADDR_TMP, R_RANDOM_STATE, 13)
            b.xor(R_RANDOM_STATE, R_RANDOM_STATE, R_ADDR_TMP)
            b.shr(R_ADDR_TMP, R_RANDOM_STATE, 7)
            b.xor(R_RANDOM_STATE, R_RANDOM_STATE, R_ADDR_TMP)
            b.and_(R_ADDR_TMP, R_RANDOM_STATE, imm=index_mask)
            b.shl(R_ADDR_TMP, R_ADDR_TMP, 3)
            dst = self._tmp()
            b.ld(dst, R_ADDR_TMP, RANDOM_BASE)
            self._last_load_reg = dst

    def emit_pointer_chase(self) -> None:
        for _index in range(self.spec.pointer_chase_loads):
            self.builder.ld(R_CHASE_PTR, R_CHASE_PTR, 0)
            self._last_load_reg = R_CHASE_PTR

    def emit_unpredictable_alu(self) -> None:
        b = self.builder
        source = self._last_load_reg
        for index in range(self.spec.unpred_alu_ops):
            dst = self._tmp()
            if index % 2 == 0:
                b.add(dst, source, R_ACC_BASE + (index % 11))
            else:
                b.xor(dst, source, R_ACC_BASE + (index % 11))
            source = dst

    def emit_stores(self) -> None:
        spec = self.spec
        if not spec.stores:
            return
        b = self.builder
        mask = spec.strided_footprint_words * 8 - 1
        b.addi(R_STORE_OFF, R_STORE_OFF, 8)
        b.and_(R_STORE_OFF, R_STORE_OFF, imm=mask)
        for index in range(spec.stores):
            b.st(R_STORE_OFF, R_ACC_BASE + (index % 11), STORE_BASE + index * 64)
        if spec.stores >= 2:
            # A load that reads back a just-stored location: exercises store-to-load
            # forwarding and (before Store Sets train) memory-order speculation.
            dst = self._tmp()
            b.ld(dst, R_STORE_OFF, STORE_BASE)

    def emit_fp(self) -> None:
        spec = self.spec
        b = self.builder
        for chain in range(spec.fp_chains):
            acc = F_ACC_BASE + 1 + (chain % 11)
            for _op in range(spec.fp_chain_ops):
                b.fadd(acc, acc, F_CONST_ADD)
        for index in range(spec.fp_mul_ops):
            acc = F_ACC_BASE + 1 + (index % 11)
            b.fmul(acc, acc, F_CONST_MUL)

    def emit_muldiv(self) -> None:
        spec = self.spec
        b = self.builder
        for index in range(spec.int_mul_ops):
            dst = self._tmp()
            b.mul(dst, R_ACC_BASE + (index % 11), R_CONST_STRIDE)
        for index in range(spec.int_div_ops):
            dst = self._tmp()
            b.div(dst, R_ACC_BASE + (index % 11), R_CONST_STRIDE)

    def emit_data_dependent_branches(self) -> None:
        b = self.builder
        for index in range(self.spec.data_dep_branches):
            bit = self._tmp()
            b.and_(bit, self._last_load_reg, imm=1 << (index % 3))
            b.cmp(bit, imm=0)
            skip = self._label("ddskip")
            b.beq(skip)
            b.addi(R_ACC_BASE + (index % 11), R_ACC_BASE + (index % 11), 1)
            b.label(skip)

    def emit_predictable_branches(self) -> None:
        b = self.builder
        for index in range(self.spec.pred_branches):
            bit = self._tmp()
            b.and_(bit, R_ITER, imm=3 << index)
            b.cmp(bit, imm=0)
            skip = self._label("pbskip")
            b.bne(skip)
            b.addi(R_ACC_BASE + ((index + 5) % 11), R_ACC_BASE + ((index + 5) % 11), 2)
            b.label(skip)

    def emit_calls(self, function_labels: list[str]) -> None:
        for index in range(self.spec.calls):
            self.builder.call(function_labels[index % len(function_labels)])

    def emit_indirect_jump(self) -> list[str]:
        """Emit an indirect-jump switch; returns the case labels (for jump-table init)."""
        spec = self.spec
        targets = spec.indirect_jump_targets
        if targets <= 0:
            return []
        b = self.builder
        selector = self._tmp()
        b.and_(selector, self._last_load_reg, imm=targets - 1)
        b.shl(selector, selector, 3)
        b.ld(R_ADDR_TMP, selector, JUMP_TABLE_BASE)
        b.jmpi(R_ADDR_TMP)
        end_label = self._label("switch_end")
        case_labels = []
        for case in range(targets):
            case_label = self._label("case")
            b.label(case_label)
            case_labels.append(case_label)
            b.addi(R_ACC_BASE + (case % 11), R_ACC_BASE + (case % 11), case + 1)
            b.jmp(end_label)
        b.label(end_label)
        return case_labels

    # ------------------------------------------------------------------ program assembly
    def emit_functions(self) -> list[str]:
        """Emit small leaf functions used by the call block (before the main loop)."""
        if not self.spec.calls:
            return []
        b = self.builder
        labels = []
        entry_skip = self._label("skip_functions")
        b.jmp(entry_skip)
        for index in range(min(self.spec.calls, 3)):
            label = self._label("leaf")
            b.label(label)
            labels.append(label)
            tmp = self._tmp()
            b.add(tmp, R_INVARIANT_A, R_INVARIANT_B)
            b.addi(tmp, tmp, index)
            b.ret()
        b.label(entry_skip)
        return labels

    def build(self) -> tuple[Program, list[str]]:
        """Assemble the full program; returns it plus the indirect-jump case labels."""
        spec = self.spec
        b = self.builder
        self.emit_init()
        function_labels = self.emit_functions()

        b.label("outer")
        case_labels: list[str] = []

        def emit_body() -> None:
            self.emit_critical_chain()
            self.emit_immediate_alu()
            self.emit_predictable_chains()
            self.emit_strided_loads()
            self.emit_invariant_alu()
            self.emit_random_loads()
            self.emit_pointer_chase()
            self.emit_unpredictable_alu()
            self.emit_fp()
            self.emit_muldiv()
            self.emit_data_dependent_branches()
            self.emit_predictable_branches()
            if function_labels:
                self.emit_calls(function_labels)
            case_labels.extend(self.emit_indirect_jump())
            self.emit_stores()

        if spec.inner_loop_trip > 0:
            b.movi(R_INNER, 0)
            b.label("inner")
            emit_body()
            b.addi(R_INNER, R_INNER, 1)
            b.cmp(R_INNER, imm=spec.inner_loop_trip)
            b.bne("inner")
        else:
            emit_body()

        b.addi(R_ITER, R_ITER, 1)
        b.cmp(R_ITER, imm=OUTER_ITERATIONS)
        b.bne("outer")
        return b.build(), case_labels


def build_program(spec: WorkloadSpec) -> tuple[Program, list[str]]:
    """Build the program of ``spec``; returns ``(program, indirect_case_labels)``."""
    return _KernelEmitter(spec).build()


def make_arch_state(spec: WorkloadSpec, program: Program, case_labels: list[str]) -> ArchState:
    """Fresh architectural state whose memory image holds the arrays of ``spec``.

    Each array is a closed-form region of the state (see
    :class:`~repro.isa.emulator.ArchState`), computed word by word as the
    program first reads it, so building a state is O(1) in the footprint.
    """
    regions = []
    if spec.strided_loads and spec.strided_values_predictable:
        words = spec.strided_footprint_words
        regions.append((STRIDED_BASE, STRIDED_BASE + 8 * words, lambda index: 1000 + 7 * index))
    if spec.chain_loads and spec.chain_values_predictable:
        words = spec.chain_footprint_words
        regions.append((CHAIN_BASE, CHAIN_BASE + 8 * words, lambda index: CHAIN_CONSTANT_VALUE))
    if spec.pointer_chase_loads:
        # Full-period affine (LCG) permutation: successor = a*i + c (mod words) with
        # a ≡ 1 (mod 4) and c odd.  Successive pointers are spread irregularly across
        # the array, so neither the stride prefetcher nor the value predictor can learn
        # the walk — the behaviour that makes mcf-style codes memory-latency bound.
        chase_words = spec.chase_footprint_words
        increment = (chase_words // 3) | 1
        regions.append((
            CHASE_BASE,
            CHASE_BASE + 8 * chase_words,
            lambda index: CHASE_BASE + 8 * ((5 * index + increment) % chase_words),
        ))
    if case_labels:
        targets = tuple(map(program.pc_of, case_labels[: spec.indirect_jump_targets]))
        regions.append((JUMP_TABLE_BASE, JUMP_TABLE_BASE + 8 * len(targets), targets.__getitem__))
    state = ArchState()
    state.regions = tuple(regions)
    return state
