"""Tests for the architectural emulator."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import EmulationError, ProgramError
from repro.isa import emulator as emulator_module
from repro.isa.builder import ProgramBuilder, _reg
from repro.isa.emulator import ArchState, Emulator, _default_memory_value
from repro.isa.flags import ALL_FLAGS, MASK64, SF, SIGN_BIT, flags_from_result
from repro.isa.microop import MicroOp
from repro.isa.opcode import Opcode, is_conditional_branch
from repro.isa.trace import OPTIONAL_FIELDS
from repro.trace.encoding import CapturedTrace, empty_columns
from tests.oracles import StepEmulator, read_mem, trace_from_instructions
from tests.random_programs import RandomProgramGenerator


def _run(builder: ProgramBuilder, max_uops: int = 1000):
    return list(StepEmulator(builder.build()).run(max_uops))


class TestArithmetic:
    def test_add_and_immediate(self):
        b = ProgramBuilder()
        b.movi("r1", 5)
        b.addi("r2", "r1", 7)
        b.add("r3", "r1", "r2")
        trace = _run(b)
        assert trace[1].result == 12
        assert trace[2].result == 17

    def test_sub_wraps_to_64_bits(self):
        b = ProgramBuilder()
        b.movi("r1", 0)
        b.subi("r2", "r1", 1)
        trace = _run(b)
        assert trace[1].result == MASK64

    def test_logical_and_shift_ops(self):
        b = ProgramBuilder()
        b.movi("r1", 0b1100)
        b.and_("r2", "r1", imm=0b1010)
        b.or_("r3", "r1", imm=0b0001)
        b.xor("r4", "r1", imm=0b1111)
        b.shl("r5", "r1", 2)
        b.shr("r6", "r1", 2)
        trace = _run(b)
        assert [t.result for t in trace[1:]] == [0b1000, 0b1101, 0b0011, 0b110000, 0b11]

    def test_mul_div_mod(self):
        b = ProgramBuilder()
        b.movi("r1", 20)
        b.movi("r2", 6)
        b.mul("r3", "r1", "r2")
        b.div("r4", "r1", "r2")
        b.mod("r5", "r1", "r2")
        trace = _run(b)
        assert [t.result for t in trace[2:]] == [120, 3, 2]

    def test_division_by_zero_is_defined(self):
        b = ProgramBuilder()
        b.movi("r1", 5)
        b.movi("r2", 0)
        b.div("r3", "r1", "r2")
        b.mod("r4", "r1", "r2")
        trace = _run(b)
        assert trace[2].result == MASK64
        assert trace[3].result == 0

    def test_min_max_neg_not(self):
        b = ProgramBuilder()
        b.movi("r1", 9)
        b.movi("r2", 4)
        b.min_("r3", "r1", "r2")
        b.max_("r4", "r1", "r2")
        b.neg("r5", "r2")
        b.not_("r6", "r2")
        trace = _run(b)
        assert trace[2].result == 4
        assert trace[3].result == 9
        assert trace[4].result == (-4) & MASK64
        assert trace[5].result == (~4) & MASK64

    @pytest.mark.parametrize(
        "opcode, expected",
        [
            (Opcode.OR, 0b1100 | -3),
            (Opcode.XOR, 0b1100 ^ -3),
            (Opcode.MIN, -3),
        ],
        ids=["or", "xor", "min"],
    )
    def test_negative_immediate_leaves_a_64_bit_record(self, opcode, expected):
        # The record holds what the register receives: the 64-bit wrap of the
        # negative result, with the flags of that (masked) value.
        b = ProgramBuilder()
        b.movi("r1", 0b1100)
        b.emit(MicroOp(opcode, dst=_reg("r2"), srcs=(_reg("r1"),), imm=-3, sets_flags=True))
        emulator = StepEmulator(b.build())
        emulator.step()
        inst = emulator.step()
        assert inst.result == expected & MASK64
        assert emulator.state.regs[_reg("r2")] == inst.result
        assert inst.flags_result == flags_from_result(expected)
        assert inst.flags_result & SF


class TestMemory:
    def test_store_then_load_round_trip(self):
        b = ProgramBuilder()
        b.movi("r1", 0x1000)
        b.movi("r2", 777)
        b.st("r1", "r2", 8)
        b.ld("r3", "r1", 8)
        emulator = StepEmulator(b.build())
        trace = list(emulator.run(1000))
        assert trace[2].addr == 0x1008
        assert emulator.state.memory[0x1008] == 777
        assert trace[3].result == 777

    def test_uninitialised_memory_is_deterministic(self):
        b = ProgramBuilder()
        b.movi("r1", 0x2000)
        b.ld("r2", "r1", 0)
        first = _run(b)[1].result
        second = _run(b)[1].result
        assert first == second == _default_memory_value(0x2000)

    def test_region_words_read_their_image_and_nothing_else(self):
        state = ArchState()
        state.regions = ((0x100, 0x118, lambda index: MASK64 + 1 + index),)
        assert [read_mem(state, 0x100 + 8 * index) for index in range(3)] == [0, 1, 2]
        for outside in (0xF8, 0x118, 0x104):  # either side, and misaligned inside
            assert read_mem(state, outside) == _default_memory_value(outside)

    def test_store_to_a_region_word_overrides_the_image(self):
        b = ProgramBuilder()
        b.movi("r1", 0x100)
        b.movi("r2", 777)
        b.st("r1", "r2", 8)
        b.ld("r3", "r1", 8)
        b.ld("r4", "r1", 16)
        state = ArchState()
        state.regions = ((0x100, 0x120, lambda index: 10 + index),)
        trace = list(StepEmulator(b.build(), state=state).run(100))
        assert trace[3].result == 777
        assert trace[4].result == 12

    def test_first_read_is_memoised(self):
        calls = []

        def value_of_index(index):
            calls.append(index)
            return 40 + index

        state = ArchState()
        state.regions = ((0x100, 0x140, value_of_index),)
        assert read_mem(state, 0x108) == read_mem(state, 0x108) == 41
        assert calls == [1]
        assert read_mem(state, 0x200) == _default_memory_value(0x200)
        assert state.memory == {0x108: 41, 0x200: _default_memory_value(0x200)}

    def test_step_and_run_batch_end_with_equal_memory_on_a_chase_program(self):
        words = 16
        b = ProgramBuilder()
        b.movi("r1", 0x1000)
        b.label("loop")
        b.ld("r1", "r1", 0)
        b.st("r1", "r1", 8)  # overrides the next region word with a pointer
        b.jmp("loop")
        program = b.build()

        def state():
            fresh = ArchState()
            fresh.regions = (
                (0x1000, 0x1000 + 8 * words, lambda i: 0x1000 + 8 * ((5 * i + 3) % words)),
            )
            return fresh

        stepped = StepEmulator(program, state=state())
        expected = [inst.result for inst in stepped.run(200)]
        batched = Emulator(program, state=state())
        columns = empty_columns()
        batched.run_batch(200, columns)
        trace = CapturedTrace(program, *columns, halted=batched.halted)
        assert [inst.result for inst in trace.replay()] == expected
        assert batched.state.memory == stepped.state.memory
        assert stepped.state.memory[0x1000] == 0x1000 + 8 * 3  # read, never written


class TestControlFlow:
    @pytest.mark.parametrize("loop", ["step", "run_batch"])
    def test_invalid_indirect_target_names_the_missing_memory_image(self, loop):
        from repro.workloads.suite import workload

        # gcc's switch jumps through a jump table an empty state does not hold.
        emulator = StepEmulator(workload("gcc").program)
        with pytest.raises(EmulationError, match=r"invalid pc .*workload\.make_state\(\)"):
            if loop == "run_batch":
                emulator.run_batch(1000, empty_columns())
            else:
                list(emulator.run(1000))

    def test_counted_loop_executes_expected_iterations(self):
        b = ProgramBuilder()
        b.movi("r1", 0)
        b.label("loop")
        b.addi("r1", "r1", 1)
        b.cmp("r1", imm=3)
        b.bne("loop")
        b.movi("r2", 99)
        trace = list(StepEmulator(b.build()).run(100))
        # 3 iterations of (add, cmp, bne) plus movi r1 and the trailing movi.
        assert len(trace) == 1 + 3 * 3 + 1
        assert trace[-1].result == 99

    def test_branch_taken_flag_and_target(self):
        b = ProgramBuilder()
        b.movi("r1", 1)
        b.cmp("r1", imm=1)
        b.beq("skip")
        b.movi("r2", 123)
        b.label("skip")
        b.movi("r3", 5)
        trace = list(StepEmulator(b.build()).run(10))
        branch = trace[2]
        assert branch.taken
        assert branch.next_pc == 4
        assert trace[3].uop.opcode.value == "movi" and trace[3].result == 5

    def test_call_and_ret_use_shadow_stack(self):
        b = ProgramBuilder()
        b.jmp("main")
        b.label("func")
        b.movi("r5", 1)
        b.ret()
        b.label("main")
        b.call("func")
        b.movi("r6", 2)
        trace = list(StepEmulator(b.build()).run(20))
        opcodes = [t.uop.opcode.value for t in trace]
        assert opcodes == ["jmp", "call", "movi", "ret", "movi"]
        assert trace[3].next_pc == 4  # returns to the µ-op after the call

    def test_ret_with_empty_stack_halts(self):
        b = ProgramBuilder()
        b.movi("r1", 1)
        b.ret()
        b.movi("r2", 2)
        trace = list(StepEmulator(b.build()).run(10))
        assert len(trace) == 2

    def test_indirect_jump(self):
        b = ProgramBuilder()
        b.la("r1", "target")
        b.jmpi("r1")
        b.movi("r2", 1)
        b.label("target")
        b.movi("r3", 2)
        trace = list(StepEmulator(b.build()).run(10))
        assert trace[1].next_pc == 3
        assert trace[2].result == 2

    def test_flags_register_visible_to_branches(self):
        b = ProgramBuilder()
        b.movi("r1", 2)
        b.cmp("r1", imm=5)
        b.blt("less")
        b.movi("r2", 0)
        b.label("less")
        b.movi("r3", 1)
        trace = list(StepEmulator(b.build()).run(10))
        assert trace[2].taken

    def test_program_falls_off_end_and_halts(self):
        b = ProgramBuilder()
        b.movi("r1", 1)
        b.movi("r2", 2)
        trace = list(StepEmulator(b.build()).run(100))
        assert len(trace) == 2


class TestRunControl:
    def test_run_respects_max_uops(self):
        b = ProgramBuilder()
        b.movi("r1", 0)
        b.label("loop")
        b.addi("r1", "r1", 1)
        b.jmp("loop")
        trace = list(StepEmulator(b.build()).run(50))
        assert len(trace) == 50

    def test_step_returns_none_after_halt(self):
        b = ProgramBuilder()
        b.movi("r1", 1)
        emulator = StepEmulator(b.build())
        assert emulator.step() is not None
        assert emulator.step() is None
        assert emulator.halted

    def test_sequence_numbers_are_contiguous(self):
        b = ProgramBuilder()
        b.movi("r1", 0)
        b.label("loop")
        b.addi("r1", "r1", 1)
        b.jmp("loop")
        trace = list(StepEmulator(b.build()).run(30))
        assert [t.seq for t in trace] == list(range(30))

    @settings(max_examples=10, deadline=None)
    @given(st.integers(min_value=0, max_value=2**32))
    def test_random_programs_always_execute(self, seed):
        program = RandomProgramGenerator(seed).generate(body_ops=20)
        trace = list(StepEmulator(program).run(300))
        assert len(trace) == 300
        for inst in trace:
            if inst.result is not None:
                assert 0 <= inst.result <= MASK64


class TestRunBatch:
    """The batched capture fast path must be bit-identical to step()."""

    @staticmethod
    def _records(insts):
        return [
            (
                i.seq, i.pc, i.uop, i.result, i.flags_result, i.addr, i.taken,
                i.next_pc,
            )
            for i in insts
        ]

    def _assert_equivalent(self, program, state_a, state_b, budget):
        reference = StepEmulator(program, state=state_a)
        batched = Emulator(program, state=state_b)
        expected = list(reference.run(budget))
        columns = empty_columns()
        assert batched.run_batch(budget, columns) is None
        trace = CapturedTrace(program, *columns, halted=batched.halted)
        assert self._records(trace.instructions()) == self._records(expected)
        assert batched.halted == reference.halted
        assert batched.pc == reference.pc
        assert batched.seq == reference.seq
        assert batched.state.regs == reference.state.regs
        assert batched.state.memory == reference.state.memory
        # The reference's records encode to the same blob, which decodes to the
        # same records again.
        blob = trace.to_bytes()
        encoded = trace_from_instructions(program, expected, reference.halted)
        assert encoded.to_bytes() == blob
        decoded = CapturedTrace.from_bytes(blob, program)
        assert self._records(decoded.instructions()) == self._records(expected)

    def test_matches_step_on_every_suite_workload(self):
        from repro.workloads.suite import SUITE_ORDER, workload

        for name in SUITE_ORDER:
            wl = workload(name)
            self._assert_equivalent(wl.program, wl.make_state(), wl.make_state(), 3000)

    @settings(max_examples=10, deadline=None)
    @given(st.integers(min_value=0, max_value=2**32))
    def test_matches_step_on_random_programs(self, seed):
        program = RandomProgramGenerator(seed).generate(body_ops=20)
        self._assert_equivalent(program, None, None, 400)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(min_value=0, max_value=2**32))
    def test_matches_step_on_every_opcode(self, seed):
        program = _every_opcode_program(random.Random(seed))
        self._assert_equivalent(program, None, None, 600)

    def test_every_opcode_has_an_arm(self):
        assert set(emulator_module._DISPATCH_KIND) == set(Opcode)
        conditional = {opcode for opcode in Opcode if is_conditional_branch(opcode)}
        assert set(emulator_module._BRANCH_TAKEN) == conditional

    def test_branch_tables_agree_with_step(self):
        b = ProgramBuilder()
        b.nop()
        reference = StepEmulator(b.build())
        for opcode, taken_by_flags in emulator_module._BRANCH_TAKEN.items():
            assert len(taken_by_flags) == ALL_FLAGS + 1
            for flags in range(ALL_FLAGS + 1):
                assert taken_by_flags[flags] is reference._branch_condition(opcode, flags)

    def test_zero_budget_leaves_the_emulator_untouched(self):
        b = ProgramBuilder()
        b.nop()
        emulator = Emulator(b.build())
        emulator.pc = 5  # out of range: only an executed step would notice
        columns = empty_columns()
        assert emulator.run_batch(0, columns) is None
        assert not emulator.halted
        assert columns == empty_columns()

    def test_resumes_after_partial_batch(self):
        b = ProgramBuilder()
        b.movi("r1", 0)
        b.label("loop")
        b.addi("r1", "r1", 1)
        b.jmp("loop")
        program = b.build()
        reference = StepEmulator(program)
        expected = list(reference.run(50))
        split = Emulator(program)
        columns = empty_columns()
        split.run_batch(20, columns)
        split.run_batch(30, columns)
        trace = CapturedTrace(program, *columns, halted=split.halted)
        assert self._records(trace.instructions()) == self._records(expected)


def _single_uop(opcode: Opcode, sets_flags: bool) -> MicroOp:
    """One valid µ-op of ``opcode``; raises ProgramError where ``sets_flags`` is refused."""
    if opcode in (Opcode.JMP, Opcode.CALL) or is_conditional_branch(opcode):
        return MicroOp(opcode, target="end", sets_flags=sets_flags)
    if opcode is Opcode.JMPI:
        return MicroOp(opcode, srcs=(_reg("r3"),), sets_flags=sets_flags)
    if opcode in (Opcode.RET, Opcode.NOP):
        return MicroOp(opcode, sets_flags=sets_flags)
    if opcode in (Opcode.ST, Opcode.FST):
        return MicroOp(opcode, srcs=(_reg("r2"), _reg("r1")), imm=8, sets_flags=sets_flags)
    if opcode in (Opcode.LD, Opcode.FLD):
        return MicroOp(opcode, dst=_reg("r1"), srcs=(_reg("r2"),), imm=8, sets_flags=sets_flags)
    if opcode is Opcode.CMP:
        return MicroOp(opcode, srcs=(_reg("r1"), _reg("r2")), sets_flags=sets_flags)
    if opcode is Opcode.MOVI:
        return MicroOp(opcode, dst=_reg("r1"), imm=-3, sets_flags=sets_flags)
    srcs = (_reg("r1"), _reg("r2"), _reg("r4"))[: 3 if opcode is Opcode.FMA else 2]
    return MicroOp(opcode, dst=_reg("r1"), srcs=srcs, sets_flags=sets_flags)


def _every_single_uop():
    """One µ-op per opcode, with and without ``sets_flags`` where MicroOp allows it."""
    for opcode in Opcode:
        for sets_flags in (False, True):
            try:
                uop = _single_uop(opcode, sets_flags)
            except ProgramError:
                continue
            yield pytest.param(uop, id=f"{opcode.value}{'-flags' if sets_flags else ''}")


class TestColumnTables:
    """The per-pc tables a columnar capture expands its static columns from."""

    @pytest.mark.parametrize("uop", _every_single_uop())
    def test_presence_bits_match_step(self, uop):
        b = ProgramBuilder()
        b.movi("r1", 7)
        b.movi("r2", 0x4000)
        b.la("r3", "end")
        tested_pc = len(b)
        b.emit(uop)
        b.label("end")
        b.nop()
        emulator = StepEmulator(b.build())
        codes, presence = emulator._build_column_tables()
        code = codes[tested_pc]
        insts = [emulator.step() for _ in range(tested_pc + 1)]
        inst = insts[tested_pc]
        assert inst.pc == tested_pc and inst.uop is uop
        assert tuple(bool(table[code]) for table in presence) == tuple(
            getattr(inst, name) is not None for name in OPTIONAL_FIELDS
        )


_INT_OPS = (
    Opcode.ADD, Opcode.SUB, Opcode.AND, Opcode.OR, Opcode.XOR, Opcode.SHL, Opcode.SHR,
    Opcode.MIN, Opcode.MAX, Opcode.MUL, Opcode.DIV, Opcode.MOD,
)
_INT_UNARY_OPS = (Opcode.MOV, Opcode.NOT, Opcode.NEG)
_FP_OPS = (Opcode.FADD, Opcode.FSUB, Opcode.FMUL, Opcode.FDIV)
_FP_UNARY_OPS = (Opcode.FMOV, Opcode.FCVT, Opcode.FSQRT)
_CONDITIONAL_BRANCHES = (
    Opcode.BEQ, Opcode.BNE, Opcode.BLT, Opcode.BGE,
    Opcode.BGT, Opcode.BLE, Opcode.BCS, Opcode.BVS,
)
_EDGE_VALUES = (0, 1, 2, 63, 64, SIGN_BIT, SIGN_BIT - 1, MASK64, MASK64 - 1)


def _every_opcode_program(rng: random.Random):
    """A loop over every opcode, flag-setting or not, each followed by a branch.

    Registers start at edge values (zero, the sign bit, all ones, ...), so the
    branches see every flag combination the arithmetic can produce.
    """
    b = ProgramBuilder()
    ints = [f"r{index}" for index in range(8, 16)]
    fps = [f"f{index}" for index in range(0, 6)]
    for reg in ints + fps:
        b.movi(reg, rng.choice(_EDGE_VALUES + (rng.getrandbits(64), -rng.randrange(1, 100))))
    b.movi("r2", 0x8000)
    b.jmp("loop")
    b.label("leaf")
    b.add(rng.choice(ints), rng.choice(ints), rng.choice(ints), sets_flags=True)
    b.ret()
    b.label("loop")
    body = [*_INT_OPS, *_INT_UNARY_OPS, *_FP_OPS, *_FP_UNARY_OPS, Opcode.MOVI, Opcode.CMP,
            Opcode.FMA, Opcode.LD, Opcode.FLD, Opcode.ST, Opcode.FST, Opcode.NOP,
            Opcode.CALL, Opcode.JMPI]
    rng.shuffle(body)
    for step, opcode in enumerate(body):
        flags = rng.random() < 0.5
        if opcode in _INT_OPS:
            dst, a = _reg(rng.choice(ints)), _reg(rng.choice(ints))
            if rng.random() < 0.7:
                uop = MicroOp(opcode, dst=dst, srcs=(a, _reg(rng.choice(ints))), sets_flags=flags)
            else:
                uop = MicroOp(opcode, dst=dst, srcs=(a,), imm=rng.randrange(-70, 70),
                              sets_flags=flags)
            b.emit(uop)
        elif opcode in _INT_UNARY_OPS:
            b.emit(MicroOp(opcode, dst=_reg(rng.choice(ints)), srcs=(_reg(rng.choice(ints)),),
                           sets_flags=flags))
        elif opcode in _FP_OPS:
            b.emit(MicroOp(opcode, dst=_reg(rng.choice(fps)),
                           srcs=(_reg(rng.choice(fps)), _reg(rng.choice(fps)))))
        elif opcode in _FP_UNARY_OPS:
            b.emit(MicroOp(opcode, dst=_reg(rng.choice(fps)), srcs=(_reg(rng.choice(fps + ints)),)))
        elif opcode is Opcode.MOVI:
            b.emit(MicroOp(opcode, dst=_reg(rng.choice(ints)), imm=rng.choice(_EDGE_VALUES),
                           sets_flags=flags))
        elif opcode is Opcode.CMP:
            b.cmp(rng.choice(ints), rng.choice(ints))
        elif opcode is Opcode.FMA:
            b.fma(rng.choice(fps), rng.choice(fps), rng.choice(fps), rng.choice(fps))
        elif opcode in (Opcode.LD, Opcode.FLD):
            getattr(b, opcode.value)(rng.choice(ints + fps), "r2", 8 * rng.randrange(4))
        elif opcode in (Opcode.ST, Opcode.FST):
            getattr(b, opcode.value)("r2", rng.choice(ints + fps), 8 * rng.randrange(4))
        elif opcode is Opcode.NOP:
            b.nop()
        elif opcode is Opcode.CALL:
            b.call("leaf")
        else:
            b.la("r3", f"landing_{step}")
            b.jmpi("r3")
            b.nop()
            b.label(f"landing_{step}")
        skip = f"skip_{step}"
        b._branch(rng.choice(_CONDITIONAL_BRANCHES), skip)
        b.addi("r4", "r4", 1)
        b.label(skip)
    b.jmp("loop")
    return b.build()
