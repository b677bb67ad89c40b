"""Tests for the kernel generator: programs build, execute and honour their spec."""

import pytest

from repro.isa.emulator import ArchState, _default_memory_value
from repro.isa.trace import characterize
from repro.workloads.kernels import (
    CHAIN_BASE,
    CHAIN_CONSTANT_VALUE,
    CHASE_BASE,
    JUMP_TABLE_BASE,
    STRIDED_BASE,
    build_program,
    make_arch_state,
)
from repro.workloads.spec import WorkloadSpec
from repro.workloads.suite import SUITE_ORDER, workload
from tests.oracles import StepEmulator, read_mem, write_mem


def _build(spec):
    program, case_labels = build_program(spec)
    state = make_arch_state(spec, program, case_labels)
    return program, state


class TestGeneratedPrograms:
    def test_minimal_spec_builds_and_runs(self):
        spec = WorkloadSpec(name="tiny")
        program, state = _build(spec)
        trace = list(StepEmulator(program, state=state).run(500))
        assert len(trace) == 500  # the outer loop is effectively infinite

    def test_memory_blocks_emit_loads_and_stores(self):
        spec = WorkloadSpec(name="memory", strided_loads=2, random_loads=1, stores=2)
        program, state = _build(spec)
        stats = characterize(StepEmulator(program, state=state).run(2000))
        assert stats.loads > 0
        assert stats.stores > 0

    def test_branchy_spec_has_branches(self):
        spec = WorkloadSpec(name="branchy", data_dep_branches=2, pred_branches=2)
        program, state = _build(spec)
        stats = characterize(StepEmulator(program, state=state).run(2000))
        assert stats.branch_ratio > 0.1

    def test_inner_loop_increases_dynamic_branch_count(self):
        flat = WorkloadSpec(name="flat", inner_loop_trip=0)
        nested = WorkloadSpec(name="nested", inner_loop_trip=4)
        flat_stats = characterize(StepEmulator(_build(flat)[0]).run(2000))
        nested_program, nested_state = _build(nested)
        nested_stats = characterize(StepEmulator(nested_program, state=nested_state).run(2000))
        assert nested_stats.branches > flat_stats.branches * 0.8

    def test_calls_and_indirect_jumps_present_when_requested(self):
        spec = WorkloadSpec(name="cfgy", calls=2, indirect_jump_targets=4)
        program, state = _build(spec)
        trace = list(StepEmulator(program, state=state).run(3000))
        opcodes = {inst.uop.opcode.value for inst in trace}
        assert "call" in opcodes and "ret" in opcodes and "jmpi" in opcodes

    def test_chain_array_initialised_when_predictable(self):
        spec = WorkloadSpec(name="chainy", chain_loads=2, chain_values_predictable=True)
        _, state = _build(spec)
        assert read_mem(state, CHAIN_BASE) == CHAIN_CONSTANT_VALUE

    def test_chase_array_is_a_permutation(self):
        spec = WorkloadSpec(name="chase", pointer_chase_loads=1, chase_footprint_words=1 << 8)
        _, state = _build(spec)
        words = 1 << 8
        successors = {read_mem(state, CHASE_BASE + 8 * index) for index in range(words)}
        assert len(successors) == words  # bijective walk

    def test_jump_table_holds_valid_case_targets(self):
        spec = WorkloadSpec(name="switchy", indirect_jump_targets=4)
        program, case_labels = build_program(spec)
        state = make_arch_state(spec, program, case_labels)
        for slot in range(4):
            target = read_mem(state, JUMP_TABLE_BASE + 8 * slot)
            assert 0 <= target < len(program)

    def test_fp_blocks_emit_fp_ops(self):
        spec = WorkloadSpec(name="fp", fp_chains=2, fp_chain_ops=2, fp_mul_ops=1, chain_fp_ops=2)
        program, state = _build(spec)
        stats = characterize(StepEmulator(program, state=state).run(1500))
        from repro.isa.opcode import OpClass

        assert stats.class_ratio(OpClass.FP_ALU) > 0
        assert stats.class_ratio(OpClass.FP_MUL) > 0

    def test_long_runs_do_not_halt(self):
        spec = WorkloadSpec(name="long", calls=1, indirect_jump_targets=2, inner_loop_trip=3)
        program, state = _build(spec)
        emulator = StepEmulator(program, state=state)
        count = sum(1 for _ in emulator.run(20_000))
        assert count == 20_000


def _memory_word_by_word(spec, program, case_labels):
    """The kernels' memory image, one ``write_mem`` per word in layout order."""
    state = ArchState()
    if spec.strided_loads and spec.strided_values_predictable:
        for index in range(spec.strided_footprint_words):
            write_mem(state, STRIDED_BASE + 8 * index, 1000 + 7 * index)
    if spec.chain_loads and spec.chain_values_predictable:
        for index in range(spec.chain_footprint_words):
            write_mem(state, CHAIN_BASE + 8 * index, CHAIN_CONSTANT_VALUE)
    if spec.pointer_chase_loads:
        words = spec.chase_footprint_words
        increment = (words // 3) | 1
        for index in range(words):
            successor = (5 * index + increment) % words
            write_mem(state, CHASE_BASE + 8 * index, CHASE_BASE + 8 * successor)
    for slot, label in enumerate(case_labels[: spec.indirect_jump_targets]):
        write_mem(state, JUMP_TABLE_BASE + 8 * slot, program.pc_of(label))
    return state.memory


def _assert_image_matches_word_by_word_writes(spec):
    """``read_mem`` of a fresh state agrees with the oracle on every region word.

    Each region (a run of consecutive oracle words) is probed word by word, one
    word either side, and at a misaligned address inside; reads that are not
    region words return the untouched-memory pattern.
    """
    program, case_labels = build_program(spec)
    state = make_arch_state(spec, program, case_labels)
    oracle = _memory_word_by_word(spec, program, case_labels)
    addresses = sorted(oracle)
    starts = [a for a in addresses if a - 8 not in oracle]
    ends = [a for a in addresses if a + 8 not in oracle]
    assert len(starts) == len(ends) <= 4
    for start, end in zip(starts, ends):
        for address in [start - 8, start + 4, *range(start, end + 8, 8), end + 8]:
            expected = oracle.get(address, _default_memory_value(address))
            assert read_mem(state, address) == expected, hex(address)


@pytest.mark.parametrize("name", SUITE_ORDER)
def test_bulk_memory_set_up_matches_word_by_word_writes(name):
    _assert_image_matches_word_by_word_writes(workload(name).spec)


@pytest.mark.parametrize("words", [1, 2, 4, 8, 16, 64, 1024])
def test_bulk_chase_permutation_matches_word_by_word_writes_at_every_size(words):
    spec = WorkloadSpec(name="chase", pointer_chase_loads=1, chase_footprint_words=words)
    _assert_image_matches_word_by_word_writes(spec)
