"""The unified instruction queue (scheduler) of the out-of-order engine.

The baseline uses a unified, centralised 64-entry IQ (Table 1); entries are released at
issue.  Selection is age-ordered (oldest ready first), which is the behaviour the
paper's gem5 baseline models.  Wakeup is modelled by evaluating operand readiness
against producer completion times (see :meth:`IssueQueue.select`).
"""

from __future__ import annotations

import os
from bisect import insort
from collections.abc import Callable

from repro.errors import ConfigurationError
from repro.ooo.functional_units import FunctionalUnitPool
from repro.ooo.inflight import InflightOp, UNKNOWN_CYCLE

#: Environment variable: ``0`` selects the scan-based reference :class:`IssueQueue`
#: instead of the dependency-driven :class:`WakeupIssueQueue` (both byte-identical).
WAKEUP_ENV_VAR = "REPRO_WAKEUP_LISTS"

#: Sentinel for "no known future cycle" (mirrors the simulator's ``_NEVER``).
_NEVER = 1 << 62


def wakeup_lists_enabled() -> bool:
    """True unless ``REPRO_WAKEUP_LISTS=0`` selects the scan-based reference IQ."""
    return os.environ.get(WAKEUP_ENV_VAR, "1") != "0"


class IssueQueue:
    """Bounded, age-ordered instruction queue with issue-width-limited select."""

    def __init__(self, capacity: int = 64) -> None:
        if capacity <= 0:
            raise ConfigurationError("IQ capacity must be positive")
        self.capacity = capacity
        self._entries: list[InflightOp] = []
        self.peak_occupancy = 0
        self.full_stall_events = 0
        #: Optional pipeline event tracer (repro.obs); the simulator attaches it
        #: when ``REPRO_PIPE_TRACE`` is enabled, otherwise every hook site is one
        #: ``is not None`` check.
        self.tracer = None
        #: Byproduct of the last :meth:`select_ready` walk: the earliest future
        #: dispatch-maturity deadline among the entries it examined (``None`` when
        #: every examined entry was already mature).  Only meaningful when the walk
        #: covered the whole queue, i.e. when the issue width was *not* exhausted —
        #: the simulator only consults it in exactly those cases.
        self.next_immature_cycle: int | None = None

    # ------------------------------------------------------------------ capacity
    def __len__(self) -> int:
        return len(self._entries)

    @property
    def occupancy(self) -> int:
        """Current number of waiting µ-ops."""
        return len(self._entries)

    def has_space(self, count: int = 1) -> bool:
        """True if ``count`` more µ-ops fit."""
        return len(self._entries) + count <= self.capacity

    # ------------------------------------------------------------------ mutation
    def insert(self, op: InflightOp) -> None:
        """Dispatch ``op`` into the queue."""
        op.in_issue_queue = True
        # Recycled records skip the ``wait_until`` reset in ``_init``; the insert
        # is the last writer before the scan reads it.
        op.wait_until = 0
        self._entries.append(op)
        if len(self._entries) > self.peak_occupancy:
            self.peak_occupancy = len(self._entries)
        for producer in op.producers:
            if producer is not None:
                producer.iq_waiters += 1

    def _release_waiters(self, op: InflightOp) -> None:
        """Undo the producer waiter accounting of an entry leaving the queue."""
        for producer in op.producers:
            if producer is not None:
                producer.iq_waiters -= 1

    def remove_squashed(self) -> None:
        """Drop entries that have been squashed by a pipeline flush."""
        kept = []
        for op in self._entries:
            if op.squashed:
                self._release_waiters(op)
            else:
                kept.append(op)
        self._entries = kept

    # ------------------------------------------------------------------ select
    def select(
        self,
        cycle: int,
        issue_width: int,
        fu_pool: FunctionalUnitPool,
        is_ready: Callable[[InflightOp, int], bool],
        latency_of: Callable[[InflightOp], int],
    ) -> list[InflightOp]:
        """Select up to ``issue_width`` ready µ-ops, oldest first.

        ``is_ready`` decides operand/memory-dependence readiness at ``cycle``;
        ``latency_of`` supplies the execution latency used to reserve unpipelined units.
        Selected entries are removed from the queue (entries are released at issue, as
        in the baseline machine).
        """
        if not self._entries or issue_width <= 0:
            return []
        selected: list[InflightOp] = []
        remaining: list[InflightOp] = []
        # Entries are kept in dispatch order, so a single pass is age-ordered select.
        for op in self._entries:
            if len(selected) >= issue_width:
                remaining.append(op)
                continue
            if op.squashed:
                self._release_waiters(op)
                continue
            if not is_ready(op, cycle):
                remaining.append(op)
                continue
            if not fu_pool.try_issue(op.uop.opclass, cycle, latency_of(op)):
                remaining.append(op)
                continue
            op.issued = True
            op.issue_cycle = cycle
            op.in_issue_queue = False
            self._release_waiters(op)
            selected.append(op)
        self._entries = remaining
        return selected

    def select_ready(
        self,
        cycle: int,
        issue_width: int,
        fu_pool: FunctionalUnitPool,
        dispatch_to_issue_latency: int,
    ) -> list[InflightOp]:
        """The pipeline's hot-path select: :meth:`select` with the simulator's
        readiness and latency rules inlined.

        Semantically identical to calling :meth:`select` with the simulator's
        ``_is_ready``/``_execution_latency`` callbacks; inlining the per-entry
        readiness walk (operand wake-up against producer completion times, store-set
        memory dependences) avoids several function calls per waiting µ-op per cycle.
        """
        entries = self._entries
        self.next_immature_cycle = None
        if not entries or issue_width <= 0:
            return []
        selected: list[InflightOp] = []
        # ``remaining`` is created lazily at the first *removed* entry (a selection
        # or a squashed drop): the common nothing-issues scan then touches no lists
        # at all, and the queue object is left as-is.
        remaining: list[InflightOp] | None = None
        try_issue = fu_pool.try_issue
        width_left = issue_width
        for position, op in enumerate(entries):
            if width_left == 0:
                # Width exhausted: the untouched tail (squashed entries included,
                # matching select()) stays in dispatch order.
                remaining.extend(entries[position:])
                break
            if op.squashed:
                self._release_waiters(op)
                if remaining is None:
                    remaining = entries[:position]
                continue
            if cycle < op.dispatch_cycle + dispatch_to_issue_latency:
                # Entries are in dispatch order, so the first immature entry
                # carries the earliest maturity deadline — and everything after it
                # is immature too: stop the walk wholesale.
                self.next_immature_cycle = op.dispatch_cycle + dispatch_to_issue_latency
                if remaining is not None:
                    remaining.extend(entries[position:])
                break
            if cycle < op.wait_until:
                # A previous scan saw a producer with a known future availability;
                # re-walking the producers before that cycle cannot succeed.
                if remaining is not None:
                    remaining.append(op)
                continue
            ready = True
            for producer in op.producers:
                if producer is None:
                    continue
                # ``avail_cycle`` is maintained eagerly (dispatch for predicted /
                # early-executed results, issue for everything else), so operand
                # wake-up is a single field read per producer.
                available = producer.avail_cycle
                if available == UNKNOWN_CYCLE:
                    ready = False
                    break
                if available > cycle:
                    op.wait_until = available
                    ready = False
                    break
            if not ready:
                if remaining is not None:
                    remaining.append(op)
                continue
            uop = op.uop
            if uop.is_load:
                dependence = op.mem_dependence
                if dependence is not None and not dependence.squashed and not dependence.issued:
                    if remaining is not None:
                        remaining.append(op)
                    continue
            if not try_issue(uop.opclass, cycle, uop.latency):
                if remaining is not None:
                    remaining.append(op)
                continue
            op.issued = True
            op.issue_cycle = cycle
            op.in_issue_queue = False
            if self.tracer is not None:
                self.tracer.emit(cycle, "wakeup", op, "scan")
            for producer in op.producers:
                if producer is not None:
                    producer.iq_waiters -= 1
            if remaining is None:
                remaining = entries[:position]
            selected.append(op)
            width_left -= 1
        if remaining is not None:
            self._entries = remaining
        return selected

    def __iter__(self):
        return iter(self._entries)


class WakeupIssueQueue(IssueQueue):
    """Dependency-driven wake-up IQ: O(woken) wake-up, O(ready) select.

    The reference :class:`IssueQueue` re-evaluates every waiting entry on every
    scan, making ``select_ready`` O(occupancy).  This subclass maintains the
    readiness state machine explicitly so a scan only touches entries that can
    actually issue:

    * each entry counts its producers with unknown availability
      (``unknown_producers``) and registers itself in their ``wake_consumers``
      lists; the **producer's issue** resolves all of them in O(consumers);
    * a load blocked on a store-set dependence (``mem_blocked``) registers in the
      store's ``mem_waiters`` list; the **store's issue** releases them — within
      the same selection pass, exactly like the reference walk, where a younger
      ready load issues in the same cycle its blocking store does;
    * once every gate is open, the entry's readiness cycle is exact —
      ``max(dispatch maturity, producer availabilities)`` — and the entry is
      parked on a time wheel (``_wake_buckets``) keyed by that cycle;
    * ``select_ready`` surfaces ripe buckets onto an age-ordered ready list and
      walks only that list, so selection is O(ready entries + woken entries).

    Squash safety: registrations carry the consumer's ``wake_gen`` token, bumped
    whenever a (possibly pooled and recycled) record is reinitialised, so a stale
    registration can never wake a record's next incarnation; squash additionally
    rebuilds the ready/wheel/maturity structures (:meth:`remove_squashed` was
    O(occupancy) already).

    Byte-identity with the reference is structural: the ready list reproduces, in
    age order, exactly the set of entries the reference walk would have found
    ready, so the ``fu_pool.try_issue`` call sequence, the selected µ-ops, the
    ``iq_waiters`` accounting and the :attr:`next_immature_cycle` byproduct are
    all identical (``tests/ooo/test_wakeup_issue_queue.py`` drives randomized
    dependence graphs with squashes/replays against the reference, and the
    determinism suite compares full-grid simulations).
    """

    def __init__(self, capacity: int = 64, dispatch_to_issue_latency: int = 1) -> None:
        super().__init__(capacity)
        self._d2i = dispatch_to_issue_latency
        # Authoritative membership: seq -> entry, in dispatch (insertion) order.
        self._members: dict[int, InflightOp] = {}
        # Age-ordered ``(seq, op)`` pairs whose every issue gate is open now.
        self._ready: list[tuple[int, InflightOp]] = []
        # Time wheel: readiness cycle -> [(op, wake_gen), ...].  ``_wake_min``
        # caches the earliest bucket; together with the ready list it replaces
        # the reference's conservative scan re-arm heuristics (maturity
        # deadlines, completion ``iq_waiters`` re-arms) with exact deadlines:
        # a scan before ``_wake_min`` with an empty ready list is provably
        # empty, and an empty scan is observably a no-op, so skipping it is
        # invisible even where the reference would have walked.
        self._wake_buckets: dict[int, list] = {}
        self._wake_min = _NEVER

    # ------------------------------------------------------------------ capacity
    def __len__(self) -> int:
        return len(self._members)

    @property
    def occupancy(self) -> int:
        return len(self._members)

    def has_space(self, count: int = 1) -> bool:
        return len(self._members) + count <= self.capacity

    def __iter__(self):
        return iter(self._members.values())

    # ------------------------------------------------------------------ mutation
    def insert(self, op: InflightOp) -> None:
        """Dispatch ``op``: register with unresolved producers, park by deadline."""
        op.in_issue_queue = True
        members = self._members
        members[op.seq] = op
        if len(members) > self.peak_occupancy:
            self.peak_occupancy = len(members)
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
            if ready_at < self._wake_min:
                self._wake_min = ready_at
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
        """O(consumers) wake-up: ``producer``'s availability cycle became known."""
        consumers = producer.wake_consumers
        if not consumers:
            return
        producer.wake_consumers = None
        for op, gen in consumers:
            if op.wake_gen != gen or op.squashed:
                continue
            remaining = op.unknown_producers - 1
            op.unknown_producers = remaining
            if not remaining and not op.mem_blocked:
                self._park(op, gen, self._ready_cycle(op))

    def remove_squashed(self) -> None:
        members = self._members
        squashed = [op for op in members.values() if op.squashed]
        if not squashed:
            return
        for op in squashed:
            del members[op.seq]
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
            self._wake_min = min(buckets) if buckets else _NEVER

    # ------------------------------------------------------------------ select
    def select(self, *args, **kwargs):  # pragma: no cover - guard rail
        raise NotImplementedError(
            "WakeupIssueQueue only implements the pipeline's select_ready walk; "
            "use the reference IssueQueue for callback-driven selection"
        )

    def select_ready(
        self,
        cycle: int,
        issue_width: int,
        fu_pool: FunctionalUnitPool,
        dispatch_to_issue_latency: int,
    ) -> list[InflightOp]:
        """Age-ordered select over the maintained ready list (O(ready + woken)).

        The wake-up IQ schedules by exact deadlines (``_wake_min`` plus a
        non-empty ready list), so the reference's ``next_immature_cycle``
        byproduct is meaningless here and always ``None``.
        """
        # Surface entries whose readiness deadline has passed.
        if self._wake_min <= cycle:
            self._surface_ripe(cycle)
        self.next_immature_cycle = None
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
            op.in_issue_queue = False
            selected.append(op)
            width_left -= 1
            if uop.is_store:
                # Store-set release: dependent loads (always younger, hence later
                # in age order) become selectable within this very pass, exactly
                # like the reference walk observing ``dependence.issued``.
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
        return selected

    def _surface_ripe(self, cycle: int) -> None:
        """Move every wheel entry whose readiness cycle has passed onto the ready list."""
        buckets = self._wake_buckets
        ready = self._ready
        tracer = self.tracer
        added = False
        while buckets:
            key = self._wake_min
            if key > cycle:
                break
            for op, gen in buckets.pop(key):
                if op.wake_gen == gen and not op.squashed:
                    ready.append((op.seq, op))
                    added = True
                    if tracer is not None:
                        tracer.emit(cycle, "wakeup", op, "wheel")
            self._wake_min = min(buckets) if buckets else _NEVER
        if added:
            ready.sort()
