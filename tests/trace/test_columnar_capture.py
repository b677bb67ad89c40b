"""Columnar capture against the step-wise emulator, the oracle.

``Emulator.run_batch`` with columns appends each µ-op's pc, taken bit and
present optional values, and expands the next pcs and presence bits from per-pc
tables after the loop.  A mistake in either half
shows here as a blob that differs from the encoded ``StepEmulator.run`` stream's
(``tests/oracles.py``), or as a decoded stream that differs from that stream.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.isa.builder import ProgramBuilder
from repro.isa.emulator import Emulator
from repro.isa.trace import OPTIONAL_FIELDS
from repro.trace.capture import capture_trace, capture_workload_trace
from repro.trace.encoding import CapturedTrace, empty_columns
from repro.workloads.suite import workload
from tests.oracles import StepEmulator, reference_trace
from tests.random_programs import RandomProgramGenerator

FIELDS = ("seq", "pc", "uop", *OPTIONAL_FIELDS, "taken", "next_pc")


def _records(insts):
    return [tuple(getattr(inst, name) for name in FIELDS) for inst in insts]


def _replay_blob(program, budget, state=None):
    """The blob of ``program``'s step-wise ``DynInst`` stream, the reference."""
    return reference_trace(program, budget, state).to_bytes()


def _loop_then_halt(iterations: int = 40):
    """A loop with a call, a store, a load and a branch that falls off its end."""
    b = ProgramBuilder("loop-then-halt")
    b.movi("r1", 0)
    b.movi("r2", 0x2000)
    b.jmp("loop")
    b.label("leaf")
    b.addi("r5", "r1", 3)
    b.ret()
    b.label("loop")
    b.addi("r1", "r1", 1)
    b.st("r2", "r1", 8)
    b.ld("r4", "r2", 8)
    b.call("leaf")
    b.cmp("r1", imm=iterations)
    b.bne("loop")
    return b.build()


def _columns_trace(program, batches):
    """A columnar capture of ``program`` run as the given successive batches."""
    emulator = Emulator(program)
    columns = empty_columns()
    for size in batches:
        assert emulator.run_batch(size, columns) is None
    return emulator, CapturedTrace(program, *columns, halted=emulator.halted)


def test_halting_program_matches_replay_capture():
    program = _loop_then_halt()
    trace = capture_trace(program, 10_000)
    assert trace.halted and 0 < trace.length < 10_000
    assert trace.to_bytes() == _replay_blob(program, 10_000)
    assert _records(trace.instructions()) == _records(StepEmulator(program).run(10_000))


def test_zero_budget_writes_nothing():
    program = _loop_then_halt()
    emulator, trace = _columns_trace(program, [0])
    assert trace.length == 0 and not trace.halted
    assert emulator.pc == 0 and emulator.seq == 0
    assert trace.to_bytes() == _replay_blob(program, 0)
    assert trace.instructions() == ()


@pytest.mark.parametrize("batches", [(20, 30), (1, 1, 48), (37, 10_000)], ids=str)
def test_resumed_capture_matches_one_batch(batches):
    program = _loop_then_halt(12)
    budget = sum(batches)
    emulator, trace = _columns_trace(program, batches)
    reference = StepEmulator(program)
    expected = list(reference.run(budget))
    assert emulator.halted == reference.halted
    assert (emulator.pc, emulator.seq) == (reference.pc, reference.seq)
    assert trace.to_bytes() == _replay_blob(program, budget)
    assert _records(trace.instructions()) == _records(expected)


@pytest.mark.parametrize("name", ["gcc", "mcf", "wupwise", "hmmer"])
def test_decoded_columns_equal_the_step_wise_stream(name):
    wl = workload(name)
    trace = capture_workload_trace(wl, 3000)
    expected = list(StepEmulator(wl.program, state=wl.make_state()).run(3000))
    assert _records(trace.instructions()) == _records(expected)


@settings(max_examples=10, deadline=None)
@given(st.integers(min_value=0, max_value=2**32))
def test_random_programs_match_the_step_wise_stream(seed):
    program = RandomProgramGenerator(seed).generate(body_ops=20)
    trace = capture_trace(program, 400)
    assert trace.to_bytes() == _replay_blob(program, 400)
    assert _records(trace.instructions()) == _records(StepEmulator(program).run(400))
