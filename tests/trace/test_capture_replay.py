"""Trace determinism: capture→replay must equal direct emulation, field for field."""

import gc
import tracemalloc

import pytest

from repro.trace.capture import capture_trace, capture_workload_trace, required_length
from repro.trace.encoding import CapturedTrace, program_fingerprint
from repro.workloads.suite import workload
from tests.oracles import StepEmulator

_DYN_FIELDS = (
    "seq",
    "pc",
    "result",
    "flags_result",
    "addr",
    "taken",
    "next_pc",
)


def _assert_streams_equal(replayed, emulated):
    assert len(replayed) == len(emulated)
    for got, want in zip(replayed, emulated):
        assert got.uop is want.uop  # interned static µ-op, not a copy
        for name in _DYN_FIELDS:
            got_value = getattr(got, name)
            want_value = getattr(want, name)
            assert got_value == want_value, f"{name} differs at seq {want.seq}"
            assert type(got_value) is type(want_value), f"{name} type differs"


@pytest.mark.parametrize("name", ["gcc", "mcf", "wupwise"])
def test_capture_replay_matches_direct_emulation(name):
    wl = workload(name)
    budget = 3000
    trace = capture_workload_trace(wl, budget)
    emulated = list(StepEmulator(wl.program, state=wl.make_state()).run(budget))
    _assert_streams_equal(list(trace.replay()), emulated)


def test_columnar_roundtrip_through_bytes():
    wl = workload("gcc")
    trace = capture_workload_trace(wl, 2000)
    blob = trace.to_bytes()
    decoded = CapturedTrace.from_bytes(blob, wl.program)
    assert decoded.length == trace.length
    assert decoded.halted == trace.halted
    emulated = list(StepEmulator(wl.program, state=wl.make_state()).run(2000))
    _assert_streams_equal(list(decoded.replay()), emulated)


def test_replay_view_is_built_once():
    trace = capture_workload_trace(workload("hmmer"), 500)
    view = trace.replay_view()
    assert trace.replay_view() is view
    assert view.pcs is trace._pcs and len(view.result) == trace.length


def test_halted_trace_covers_any_length():
    # A straight-line program halts long before the capture budget.
    from repro.isa.builder import ProgramBuilder

    builder = ProgramBuilder("tiny")
    builder.movi(1, 7)
    builder.addi(1, 1, 1)
    program = builder.build()
    trace = capture_trace(program, budget=1000)
    assert trace.length == 2
    assert trace.halted
    assert trace.covers(10**9)


def test_truncated_trace_covers_only_its_length():
    wl = workload("gcc")
    trace = capture_workload_trace(wl, 100)
    assert not trace.halted
    assert trace.covers(100)
    assert not trace.covers(101)


def test_required_length_mirrors_simulator_budget():
    from repro.pipeline.config import baseline_6_64

    config = baseline_6_64()
    assert (
        required_length(1000, config)
        == 1000 + config.rob_size + config.frontend_capacity + 64
    )


def test_program_fingerprint_distinguishes_programs():
    assert program_fingerprint(workload("gcc").program) != program_fingerprint(
        workload("mcf").program
    )
    assert program_fingerprint(workload("gcc").program) == program_fingerprint(
        workload("gcc").program
    )


#: Bytes per µ-op a replayed gcc trace keeps: its columns plus the replay view.
#: Measured at 65.4 (81.5 while the trace also kept source values, flags-in and
#: store values); a trace that also kept one ``DynInst`` per µ-op kept 237.5.
REPLAY_READY_BYTES_PER_UOP = 100


def test_a_replay_ready_trace_stays_within_its_memory_bound():
    from repro.pipeline.config import named_config
    from repro.pipeline.simulator import Simulator

    wl = workload("gcc")
    wl.make_state()  # build the program and its memory image outside the window
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        trace = capture_workload_trace(wl, 30_512)
        Simulator(named_config("EOLE_4_64"), trace, 4000, 1000).run()
        gc.collect()
        kept = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert trace.length == 30_512
    assert kept / trace.length <= REPLAY_READY_BYTES_PER_UOP
