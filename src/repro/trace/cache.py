"""In-process trace cache: capture each workload's committed stream at most once.

The cache sits between the execution layers and the emulator, mirroring the
result store → simulate ladder of :mod:`repro.campaign.executor`:

1. an in-memory hit (same process) is free — the materialised ``DynInst`` tuple is
   shared by every simulation replaying it;
2. an on-disk hit (``REPRO_TRACE_STORE``, a previous process/session) costs one
   columnar decode when replayed by the timing model (the trace-level predictor
   study reads the columns without decoding);
3. anything left is captured by running the architectural emulator once.

A capture takes the form its entry point's consumer reads: :meth:`TraceCache.trace_for`
(timing replay) has the emulator build ``DynInst`` records, and
:meth:`TraceCache.trace_for_length` (trace-level studies) has it write the columns
directly, so neither saving it to the store nor walking it in the study encodes
anything.  A later consumer of the other kind converts the cached trace once: a
replay decodes a study capture's columns, a study encodes a replay capture's.

Entries are keyed by workload name; an entry is reused only when its capture covers
the requested replay length (:meth:`CapturedTrace.covers`), so a configuration with an
unusually deep fetch-ahead window transparently triggers a longer re-capture.

``REPRO_TRACE_CACHE=0`` disables the cache globally: every request then returns a
fresh step-wise reference trace (:func:`~repro.trace.capture.reference_trace`),
nothing cached or stored — the oracle the determinism tests compare against.  This
module is the only reader of the switch.
"""

from __future__ import annotations

import os

from repro.trace.capture import (
    capture_budget,
    capture_workload_trace,
    reference_trace,
    required_length,
)
from repro.trace.encoding import CapturedTrace
from repro.trace.store import TraceStore, default_trace_store

#: Environment variable disabling the trace cache when set to ``0``/``off``/``false``.
TRACE_CACHE_ENV_VAR = "REPRO_TRACE_CACHE"


def trace_cache_enabled() -> bool:
    """True unless ``REPRO_TRACE_CACHE`` explicitly disables trace reuse."""
    return os.environ.get(TRACE_CACHE_ENV_VAR, "1").lower() not in ("0", "off", "false")


class TraceCache:
    """Per-process cache of captured workload traces."""

    def __init__(self, store: TraceStore | None = None) -> None:
        self._traces: dict[tuple[str, int], CapturedTrace] = {}
        self._store = store
        self.captures = 0
        self.hits = 0
        self.store_hits = 0

    def _resolve_store(self) -> TraceStore | None:
        return self._store if self._store is not None else default_trace_store()

    def trace_for(self, workload, max_uops: int, config) -> CapturedTrace:
        """The committed trace of ``workload``, long enough to replay ``config``.

        The required length mirrors the simulator's fetch-ahead window
        (:func:`repro.trace.capture.required_length`); reuse order is
        memory → disk → capture.
        """
        return self._acquire(
            workload, required_length(max_uops, config), max_uops, columnar=False
        )

    # Kept only because perfbench/spans.py wraps it by name.
    def trace_for_many(self, workload, requests) -> CapturedTrace:
        """One trace covering every ``(max_uops, config)`` request.

        The required length is the *maximum* fetch-ahead window across the
        requested configurations, so a batch mixing shallow and deep front-ends
        costs one capture instead of a capture per depth.
        """
        requests = list(requests)
        if not requests:
            raise ValueError("trace_for_many needs at least one (max_uops, config)")
        needed = max(required_length(m, config) for m, config in requests)
        return self._acquire(workload, needed, max(m for m, _ in requests), columnar=False)

    def trace_for_length(self, workload, length: int) -> CapturedTrace:
        """A trace of at least ``length`` committed µ-ops (trace-level studies).

        Used by consumers that walk the committed stream directly (offline predictor
        evaluation, workload characterisation) rather than replaying it through the
        timing model, so a capture writes columns and builds no ``DynInst``.
        """
        return self._acquire(workload, length, length, columnar=True)

    def _acquire(self, workload, needed: int, max_uops: int, columnar: bool) -> CapturedTrace:
        """Memory → disk → capture, re-capturing when a cached trace is too short.

        With ``REPRO_TRACE_CACHE=0`` it returns a fresh step-wise reference trace of
        ``needed`` µ-ops instead, touching no entry, store or counter.

        ``columnar`` picks the form of a fresh capture
        (:func:`~repro.trace.capture.capture_trace`); a hit is returned in
        whatever form it was cached or stored in.

        Entries are keyed by the *program object*, not the workload name: an ad-hoc
        workload sharing a registry name (a different program) must never replay the
        registry twin's trace.  The trace holds its program alive, so the id cannot
        be recycled while the entry exists; the identity check makes that explicit.
        """
        program = workload.program
        if not trace_cache_enabled():
            return reference_trace(program, needed, workload.make_state())
        key = (workload.name, id(program))
        trace = self._traces.get(key)
        if trace is not None and trace.program is program and trace.covers(needed):
            self.hits += 1
            return trace
        store = self._resolve_store()
        if store is not None:
            stored = store.load(program)
            if stored is not None and stored.covers(needed):
                self.store_hits += 1
                self._traces[key] = stored
                return stored
        trace = capture_workload_trace(
            workload, capture_budget(max_uops, needed), columnar=columnar
        )
        self.captures += 1
        self._traces[key] = trace
        if store is not None:
            store.save(trace)
        return trace

    def clear(self) -> None:
        """Drop every cached trace (the counters survive)."""
        self._traces.clear()

    def __len__(self) -> int:
        return len(self._traces)


#: Shared per-process cache used by the execution layers (campaign executor, runner,
#: predictor evaluation).  Clear with ``shared_trace_cache.clear()``.
shared_trace_cache = TraceCache()
