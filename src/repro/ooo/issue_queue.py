"""The unified instruction queue (scheduler) of the out-of-order engine.

The baseline uses a unified, centralised 64-entry IQ (Table 1); entries are released at
issue.  Selection is age-ordered (oldest ready first), which is the behaviour the
paper's gem5 baseline models.

The queue owns every issue decision of the pipeline; the simulator calls it at:

* dispatch: :meth:`WakeupIssueQueue.insert`, then the next scan cycle is lowered
  to :attr:`WakeupIssueQueue.wake_min`;
* issue: :meth:`WakeupIssueQueue.select_ready` picks and removes the µ-ops, and
  :meth:`WakeupIssueQueue.next_scan_cycle` gives the earliest cycle a later
  select could find work;
* wake-up: a started producer with registered consumers calls
  :meth:`WakeupIssueQueue.producer_available`.

Its reference, a queue that re-walks every entry on every cycle, is
``ScanIssueQueue`` in ``tests/oracles.py``.
"""

from __future__ import annotations

from bisect import insort

from repro.errors import ConfigurationError
from repro.ooo.functional_units import FunctionalUnitPool
from repro.ooo.inflight import InflightOp, UNKNOWN_CYCLE

#: Sentinel for "no known future cycle" (mirrors the simulator's ``_NEVER``).
_NEVER = 1 << 62


class WakeupIssueQueue:
    """Dependency-driven wake-up IQ: O(woken) wake-up, O(ready) select.

    A scan-based queue re-evaluates every waiting entry on every select, making
    it O(occupancy).  This queue maintains the readiness state machine
    explicitly so a scan only touches entries that can actually issue:

    * each entry counts its producers with unknown availability
      (``unknown_producers``) and registers itself in their ``wake_consumers``
      lists; the **producer's issue** resolves all of them in O(consumers)
      (:meth:`producer_available`);
    * a load blocked on a store-set dependence (``mem_blocked``) registers in the
      store's ``mem_waiters`` list; the **store's issue** releases them — within
      the same selection pass, exactly like a full walk, where a younger ready
      load issues in the same cycle its blocking store does;
    * once every gate is open, the entry's readiness cycle is exact —
      ``max(dispatch maturity, producer availabilities)`` — and the entry is
      parked on a time wheel (``_wake_buckets``) keyed by that cycle;
    * ``select_ready`` surfaces ripe buckets onto an age-ordered ready list and
      walks only that list, so selection is O(ready entries + woken entries).

    Scan scheduling uses exact deadlines (:meth:`next_scan_cycle`): a scan before
    :attr:`wake_min` with an empty ready list is provably empty, and an empty
    scan is observably a no-op, so skipping it is invisible.  For the same
    reason no completion needs to re-arm the scan.

    Squash safety: registrations carry the consumer's ``wake_gen`` token, bumped
    whenever a (possibly pooled and recycled) record is reinitialised, so a stale
    registration can never wake a record's next incarnation; squash additionally
    rebuilds the ready/wheel structures (:meth:`remove_squashed`, O(occupancy)).

    Byte-identity with a full walk is structural: the ready list reproduces, in
    age order, exactly the set of entries a walk of the whole queue would find
    ready, so the ``fu_pool.try_issue`` call sequence, the selected µ-ops and
    every issue cycle are identical (``tests/ooo/test_wakeup_issue_queue.py``
    drives randomized dependence graphs with squashes/replays against
    ``tests/oracles.py``'s ``ScanIssueQueue``, and the determinism suite compares
    full-grid simulations).
    """

    def __init__(self, capacity: int = 64, dispatch_to_issue_latency: int = 1) -> None:
        if capacity <= 0:
            raise ConfigurationError("IQ capacity must be positive")
        self.capacity = capacity
        self._d2i = dispatch_to_issue_latency
        #: Current number of waiting µ-ops (maintained, read once per dispatched µ-op).
        self.occupancy = 0
        self.peak_occupancy = 0
        #: Optional pipeline event tracer (repro.obs); the simulator attaches it
        #: when ``REPRO_PIPE_TRACE`` is enabled, otherwise every hook site is one
        #: ``is not None`` check.
        self.tracer = None
        #: Earliest wheel deadline: the first cycle a parked entry becomes ready
        #: (dispatch lowers the next scan cycle to it).
        self.wake_min = _NEVER
        # Authoritative membership: seq -> entry, in dispatch (insertion) order.
        self._members: dict[int, InflightOp] = {}
        # Age-ordered ``(seq, op)`` pairs whose every issue gate is open now.
        self._ready: list[tuple[int, InflightOp]] = []
        # Time wheel: readiness cycle -> [(op, wake_gen), ...]; ``wake_min`` is
        # its earliest bucket.
        self._wake_buckets: dict[int, list] = {}

    def __iter__(self):
        return iter(self._members.values())

    # ------------------------------------------------------------------ mutation
    def insert(self, op: InflightOp) -> None:
        """Dispatch ``op``: register with unresolved producers, park by deadline."""
        self._members[op.seq] = op
        occupancy = self.occupancy + 1
        self.occupancy = occupancy
        if occupancy > self.peak_occupancy:
            self.peak_occupancy = occupancy
        gen = op.wake_gen
        unknown = 0
        ready_at = op.dispatch_cycle + self._d2i
        for producer in op.producers:
            if producer is None:
                continue
            avail = producer.avail_cycle
            if avail == UNKNOWN_CYCLE:
                unknown += 1
                consumers = producer.wake_consumers
                if consumers is None:
                    producer.wake_consumers = [(op, gen)]
                else:
                    consumers.append((op, gen))
            elif avail > ready_at:
                ready_at = avail
        op.unknown_producers = unknown
        # ``mem_dependence`` is only assigned (at dispatch) for loads; recycled
        # records carry a stale value for other µ-ops, so gate on the µ-op kind.
        dependence = op.mem_dependence if op.uop.is_load else None
        if dependence is not None:
            op.mem_blocked = True
            waiters = dependence.mem_waiters
            if waiters is None:
                dependence.mem_waiters = [(op, gen)]
            else:
                waiters.append((op, gen))
        else:
            op.mem_blocked = False
            if not unknown:
                self._park(op, gen, ready_at)

    def _park(self, op: InflightOp, gen: int, ready_at: int) -> None:
        """Wheel ``op`` to surface on the ready list at the first scan >= ready_at."""
        buckets = self._wake_buckets
        bucket = buckets.get(ready_at)
        if bucket is None:
            buckets[ready_at] = [(op, gen)]
            if ready_at < self.wake_min:
                self.wake_min = ready_at
        else:
            bucket.append((op, gen))

    def _ready_cycle(self, op: InflightOp) -> int:
        """Exact readiness cycle of an entry whose gates are all resolved."""
        ready_at = op.dispatch_cycle + self._d2i
        for producer in op.producers:
            if producer is not None and producer.avail_cycle > ready_at:
                ready_at = producer.avail_cycle
        return ready_at

    def producer_available(self, producer: InflightOp) -> None:
        """O(consumers) wake-up: ``producer``'s availability cycle became known.

        Called once per issued producer with registered consumers, so the
        readiness cycle (:meth:`_ready_cycle`) and the park (:meth:`_park`) are
        inlined here.
        """
        consumers = producer.wake_consumers
        if not consumers:
            return
        producer.wake_consumers = None
        d2i = self._d2i
        buckets = self._wake_buckets
        for op, gen in consumers:
            if op.wake_gen != gen or op.squashed:
                continue
            remaining = op.unknown_producers - 1
            op.unknown_producers = remaining
            if remaining or op.mem_blocked:
                continue
            ready_at = op.dispatch_cycle + d2i
            for other in op.producers:
                if other is not None and other.avail_cycle > ready_at:
                    ready_at = other.avail_cycle
            bucket = buckets.get(ready_at)
            if bucket is None:
                buckets[ready_at] = [(op, gen)]
                if ready_at < self.wake_min:
                    self.wake_min = ready_at
            else:
                bucket.append((op, gen))

    def remove_squashed(self) -> None:
        members = self._members
        squashed = [op for op in members.values() if op.squashed]
        if not squashed:
            return
        for op in squashed:
            del members[op.seq]
        self.occupancy = len(members)
        self._ready = [pair for pair in self._ready if not pair[1].squashed]
        buckets = self._wake_buckets
        if buckets:
            for ready_at in list(buckets):
                kept = [
                    entry
                    for entry in buckets[ready_at]
                    if entry[0].wake_gen == entry[1] and not entry[0].squashed
                ]
                if kept:
                    buckets[ready_at] = kept
                else:
                    del buckets[ready_at]
            self.wake_min = min(buckets) if buckets else _NEVER

    # ------------------------------------------------------------------ select
    def select_ready(
        self, cycle: int, issue_width: int, fu_pool: FunctionalUnitPool
    ) -> list[InflightOp]:
        """Age-ordered select over the maintained ready list (O(ready + woken))."""
        if self.wake_min <= cycle:
            self._surface_ripe(cycle)
        ready = self._ready
        if not ready or issue_width <= 0:
            return []
        selected: list[InflightOp] = []
        members = self._members
        try_issue = fu_pool.try_issue
        width_left = issue_width
        index = 0
        while index < len(ready) and width_left:
            seq, op = ready[index]
            uop = op.uop
            if not try_issue(uop.opclass, cycle, uop.latency):
                index += 1
                continue
            del ready[index]
            del members[seq]
            op.issued = True
            op.issue_cycle = cycle
            selected.append(op)
            width_left -= 1
            if uop.is_store:
                # Store-set release: dependent loads (always younger, hence later
                # in age order) become selectable within this very pass, exactly
                # like a full walk observing ``dependence.issued``.
                waiters = op.mem_waiters
                if waiters:
                    op.mem_waiters = None
                    for waiter, gen in waiters:
                        if waiter.wake_gen != gen or waiter.squashed:
                            continue
                        waiter.mem_blocked = False
                        if waiter.unknown_producers:
                            continue
                        ready_at = self._ready_cycle(waiter)
                        if ready_at <= cycle:
                            insort(ready, (waiter.seq, waiter))
                            if self.tracer is not None:
                                self.tracer.emit(cycle, "wakeup", waiter, "store_release")
                        else:
                            self._park(waiter, gen, ready_at)
        self.occupancy -= issue_width - width_left
        return selected

    def _surface_ripe(self, cycle: int) -> None:
        """Move every wheel entry whose readiness cycle has passed onto the ready list."""
        buckets = self._wake_buckets
        ready = self._ready
        tracer = self.tracer
        added = False
        while buckets:
            key = self.wake_min
            if key > cycle:
                break
            for op, gen in buckets.pop(key):
                if op.wake_gen == gen and not op.squashed:
                    ready.append((op.seq, op))
                    added = True
                    if tracer is not None:
                        tracer.emit(cycle, "wakeup", op, "wheel")
            self.wake_min = min(buckets) if buckets else _NEVER
        if added:
            ready.sort()

    def next_scan_cycle(self, cycle: int) -> int:
        """Exact re-arm: leftovers retry next cycle, else the earliest wheel deadline.

        Leftover ready entries mean a refused unit or an exhausted width.  Parks
        made by the select and by the wake-ups of the selected µ-ops' consumers
        are already in :attr:`wake_min`.
        """
        return cycle + 1 if self._ready else self.wake_min
