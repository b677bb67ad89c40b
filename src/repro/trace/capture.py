"""Trace capture: run the architectural emulator once, keep the columnar result.

Capture is keyed by ``(workload, capture budget)``: the emulator is deterministic
given the workload's program and initial architectural state, so a captured trace can
be replayed by any number of timing-model configurations.  The capture budget includes
slack over the committed-µ-op target because the pipeline fetches ahead of commit (by
at most the ROB plus the front-end, :func:`required_length`); replay is bit-exact as
long as the captured trace covers that window.

:func:`capture_trace` runs the emulator's batched capture, the stream's one source
in ``src/``; ``reference_trace`` in ``tests/oracles.py`` builds the same trace from
the step-wise reference emulator.
"""

from __future__ import annotations

from repro.isa.emulator import ArchState, Emulator
from repro.isa.program import Program
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
    program: Program, budget: int, state: ArchState | None = None
) -> CapturedTrace:
    """Emulate ``program`` for up to ``budget`` µ-ops and keep the committed stream.

    Uses the emulator's batched loop (:meth:`Emulator.run_batch`), which writes the
    trace columns directly — capture is the one place that materialises a whole
    stream at once.  It builds no ``DynInst`` and no other container per µ-op, so
    the cyclic collector has nothing to walk and is left running.
    """
    emulator = Emulator(program, state=state)
    columns = empty_columns()
    emulator.run_batch(budget, columns)
    return CapturedTrace(program, *columns)


def capture_workload_trace(workload, budget: int) -> CapturedTrace:
    """Capture a workload's committed trace from a fresh architectural state."""
    return capture_trace(workload.program, budget, state=workload.make_state())
