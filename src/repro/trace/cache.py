"""In-process trace cache: capture each workload's committed stream at most once.

The cache sits between the execution layers and the emulator, mirroring the
result store → simulate ladder of :mod:`repro.campaign.executor`:

1. an in-memory hit (same process) is free — the trace, and the replay view the
   timing model builds on it once, are shared by every simulation replaying it;
2. an on-disk hit (``REPRO_TRACE_STORE``, a previous process/session) costs one
   blob read and checksum; the loaded columns are the same form a capture writes;
3. anything left is captured by running the architectural emulator once.

Every trace is columnar (:mod:`repro.trace.encoding`): the emulator writes the
columns, the store saves them as they are, and neither the timing replay nor the
trace-level study decodes a ``DynInst``.

Entries are keyed by ``(workload name, id(program))``; an entry is reused only when its
capture covers the requested replay length (:meth:`CapturedTrace.covers`), so a
configuration with an unusually deep fetch-ahead window transparently triggers a longer
re-capture.

How long an entry lives depends on whether the trace store holds it, that is whether
the entry was loaded from the store or saved to it:

- a held entry lives until another workload is acquired, since bringing it back costs
  one blob read and checksum.  A sweep that finishes one workload before the next (the
  trace-level predictor study, a serial grid, a fleet worker's leases) thus holds one
  workload's traces at a time;
- an entry the store does not hold (no store, a store that persists nothing, a failed
  save) would cost a re-capture, so it lives until its grid's schedule says no cell
  will replay it again: :func:`~repro.campaign.executor.run_campaign` runs its serial
  cells workload-major and releases each workload (:meth:`TraceCache.release`) after
  its last cell, and a fleet worker (:func:`~repro.campaign.coordinator.work_loop`)
  releases a lease's workload when it claims a lease for another one.  Other callers
  (direct :func:`~repro.pipeline.simulator.simulate` calls, a config-major replay of
  pre-captured traces) keep it until :meth:`TraceCache.clear`.
"""

from __future__ import annotations

from repro.trace.capture import capture_budget, capture_workload_trace, required_length
from repro.trace.encoding import CapturedTrace
from repro.trace.store import TraceStore, default_trace_store


class TraceCache:
    """Per-process cache of captured workload traces."""

    def __init__(self, store: TraceStore | None = None) -> None:
        self._traces: dict[tuple[str, int], CapturedTrace] = {}
        #: Keys of the entries the trace store holds (loaded from it or saved to it).
        self._stored: set[tuple[str, int]] = set()
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
        return self._acquire(workload, required_length(max_uops, config), max_uops)

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
        return self._acquire(workload, needed, max(m for m, _ in requests))

    def trace_for_length(self, workload, length: int) -> CapturedTrace:
        """A trace of at least ``length`` committed µ-ops (trace-level studies).

        Used by consumers that walk the committed stream directly (offline predictor
        evaluation, workload characterisation) rather than replaying it through the
        timing model.
        """
        return self._acquire(workload, length, length)

    def _acquire(self, workload, needed: int, max_uops: int) -> CapturedTrace:
        """Memory → disk → capture, re-capturing when a cached trace is too short.

        Acquiring a workload first drops every other workload's entry that the store
        holds (see the module docstring); a store whose ``save`` returns ``None``
        persisted nothing, so the capture it was offered stays an entry it does not hold.

        Entries are keyed by the *program object*, not the workload name: an ad-hoc
        workload sharing a registry name (a different program) must never replay the
        registry twin's trace.  The trace holds its program alive, so the id cannot
        be recycled while the entry exists; the identity check makes that explicit.
        """
        program = workload.program
        name = workload.name
        for key in [key for key in self._stored if key[0] != name]:
            self._stored.discard(key)
            del self._traces[key]
        key = (name, id(program))
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
                self._stored.add(key)
                return stored
        trace = capture_workload_trace(workload, capture_budget(max_uops, needed))
        self.captures += 1
        self._traces[key] = trace
        self._stored.discard(key)
        if store is not None and store.save(trace) is not None:
            self._stored.add(key)
        return trace

    def release(self, name: str) -> None:
        """Drop every cached trace of the workload called ``name`` (the counters survive)."""
        for key in [key for key in self._traces if key[0] == name]:
            self._stored.discard(key)
            del self._traces[key]

    def clear(self) -> None:
        """Drop every cached trace (the counters survive)."""
        self._traces.clear()
        self._stored.clear()

    def __len__(self) -> int:
        return len(self._traces)


#: Shared per-process cache used by the execution layers (campaign executor, runner,
#: predictor evaluation).  Clear with ``shared_trace_cache.clear()``.
shared_trace_cache = TraceCache()
