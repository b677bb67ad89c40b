"""Load/Store Queues with store-to-load forwarding and ordering-violation detection.

The baseline machine has 48-entry load and store queues (Table 1).  Independent memory
instructions, as predicted by the Store Sets predictor, are allowed to issue
out-of-order; the LSQ is responsible for

* forwarding data from an older, already-executed store to a younger load to the same
  address, and
* detecting memory-order violations: a store that executes and finds a younger load to
  the same address that already executed (without forwarding from it) triggers a squash.
"""

from __future__ import annotations

from collections import deque

from repro.errors import ConfigurationError
from repro.ooo.inflight import InflightOp


class LoadStoreQueue:
    """Combined model of the load queue and store queue.

    Both queues are deques in dispatch (= commit) order: dispatch appends to
    ``_loads``/``_stores`` against their capacities (inlined in the simulator), and
    the common commit-time removal pops the oldest entry in O(1).
    """

    def __init__(self, lq_capacity: int = 48, sq_capacity: int = 48) -> None:
        if lq_capacity <= 0 or sq_capacity <= 0:
            raise ConfigurationError("LQ/SQ capacities must be positive")
        self.lq_capacity = lq_capacity
        self.sq_capacity = sq_capacity
        self._loads: deque[InflightOp] = deque()
        self._stores: deque[InflightOp] = deque()
        self.peak_lq_occupancy = 0
        self.peak_sq_occupancy = 0

    # ------------------------------------------------------------------ mutation
    def remove(self, op: InflightOp) -> None:
        """Remove a memory µ-op at commit time.

        Commit is in order, so ``op`` is the queue head in the common case; the
        linear fallback only runs for out-of-band removals (dispatch rollback).
        """
        if op.uop.is_load:
            queue = self._loads
        elif op.uop.is_store:
            queue = self._stores
        else:
            return
        if queue and queue[0] is op:
            queue.popleft()
            return
        try:
            queue.remove(op)
        except ValueError:
            pass

    def remove_squashed(self) -> None:
        """Drop squashed entries after a pipeline flush."""
        self._loads = deque(op for op in self._loads if not op.squashed)
        self._stores = deque(op for op in self._stores if not op.squashed)

    # ------------------------------------------------------------------ forwarding & ordering
    def forwarding_store(self, load: InflightOp) -> InflightOp | None:
        """Youngest older store to the same address that has already executed.

        Returns ``None`` when no forwarding is possible (the load must access the
        cache).  Addresses come from the architectural trace, so the match is exact.
        """
        best: InflightOp | None = None
        for store in self._stores:
            if store.seq >= load.seq:
                break
            if store.issued and store.addr == load.addr:
                best = store
        return best

    def detect_violation(self, store: InflightOp) -> InflightOp | None:
        """Oldest younger load to the same address that executed before ``store``.

        Called when a store executes (its address becomes architecturally known).  A
        match means the load speculatively read stale data: the pipeline must squash
        from that load and the Store Sets predictor must learn the dependence.
        """
        violating: InflightOp | None = None
        for load in self._loads:
            if load.seq <= store.seq:
                continue
            if not load.issued:
                continue
            if load.addr != store.addr:
                continue
            if load.load_forwarded:
                continue
            if violating is None or load.seq < violating.seq:
                violating = load
        return violating
