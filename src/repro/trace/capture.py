"""Trace capture: run the architectural emulator once, keep the columnar result.

Capture is keyed by ``(workload, capture budget)``: the emulator is deterministic
given the workload's program and initial architectural state, so a captured trace can
be replayed by any number of timing-model configurations.  The capture budget includes
slack over the committed-µ-op target because the pipeline fetches ahead of commit (by
at most the ROB plus the front-end, :func:`required_length`); replay is bit-exact as
long as the captured trace covers that window.

This module holds both of the stream's sources: :func:`capture_trace` runs the
emulator's batched fast path, :func:`reference_trace` its step-wise reference (the
oracle behind ``REPRO_TRACE_CACHE=0``).  :class:`~repro.trace.cache.TraceCache` is
the one place that picks between them.
"""

from __future__ import annotations

from repro.isa.emulator import ArchState, Emulator
from repro.isa.program import Program
from repro.isa.trace import gc_paused
from repro.trace.encoding import CapturedTrace, empty_columns

#: Default fetch-ahead slack added to the committed-µ-op target at capture time.
#: Must cover ``rob_size + frontend_capacity + 64`` of any configuration replaying the
#: trace; 512 covers every named configuration (192 + 120 + 64 = 376) with margin.
#: Configurations needing more trigger a longer re-capture (see ``required_length``).
DEFAULT_TRACE_SLACK = 512


def required_length(max_uops: int, config) -> int:
    """Trace length needed to replay ``config`` for ``max_uops`` committed µ-ops.

    Fetch runs ahead of commit by at most the ROB plus the front-end, so the
    simulator never reads past this many µ-ops, and it rejects a trace that
    covers fewer (:meth:`CapturedTrace.covers`).
    """
    return max_uops + config.rob_size + config.frontend_capacity + 64


def capture_budget(max_uops: int, minimum: int = 0) -> int:
    """Capture budget for a ``max_uops`` run: default slack, or more if required."""
    return max(max_uops + DEFAULT_TRACE_SLACK, minimum)


def capture_trace(
    program: Program, budget: int, state: ArchState | None = None, *, columnar: bool = False
) -> CapturedTrace:
    """Emulate ``program`` for up to ``budget`` µ-ops and encode the committed stream.

    Uses the emulator's batched fast path (:meth:`Emulator.run_batch`, bit-identical
    to the step-wise reference) — capture is the one place that materialises a whole
    stream at once.  By default the loop builds the ``DynInst`` records a timing
    replay shares; ``columnar=True`` has it write the trace columns instead, for a
    consumer that reads only columns (the predictor study, the trace store).  Both
    forms serialise to the same blob and each converts to the other on demand.
    """
    emulator = Emulator(program, state=state)
    with gc_paused():
        if columnar:
            columns = empty_columns()
            emulator.run_batch(budget, columns)
            return CapturedTrace(program, *columns, halted=emulator.halted, budget=budget)
        instructions = emulator.run_batch(budget)
        return CapturedTrace.from_instructions(
            program, instructions, halted=emulator.halted, budget=budget
        )


def reference_trace(
    program: Program, budget: int, state: ArchState | None = None
) -> CapturedTrace:
    """The step-wise oracle: :meth:`Emulator.run` for up to ``budget`` µ-ops, as a trace.

    :meth:`CapturedTrace.from_instructions` wraps the records and encodes nothing;
    the trace is never cached or stored.
    """
    emulator = Emulator(program, state=state)
    with gc_paused():
        instructions = tuple(emulator.run(budget))
    return CapturedTrace.from_instructions(
        program, instructions, halted=emulator.halted, budget=budget
    )


def capture_workload_trace(workload, budget: int, *, columnar: bool = False) -> CapturedTrace:
    """Capture a workload's committed trace from a fresh architectural state."""
    return capture_trace(
        workload.program, budget, state=workload.make_state(), columnar=columnar
    )
