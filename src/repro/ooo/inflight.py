"""In-flight instruction records used by the timing pipeline.

An :class:`InflightOp` carries one trace position's µ-op while it lives in the machine:
its sequence number (its position in the committed trace), static PC and µ-op, its
memory address, and the timing fields that the fetch, rename/dispatch, issue, execute
and commit models fill in.  It is deliberately a plain ``__slots__`` record (not a
dataclass) because hundreds of thousands of them are created per simulation.

:class:`InflightOpPool` removes even that churn: records live in an append-only arena
(an array of records addressed by ``slot`` index) and recycle through an integer
free-list column, so a steady-state simulation allocates a bounded working set of
records once and then reuses them.  Recycling is only safe once nothing can read a
record any more — the pipeline enforces that with a retirement barrier (see
:meth:`InflightOpPool.retire`), because younger issue-queue entries keep reading their
producers' timing fields until they issue.  The simulator inlines acquire, ``_init``
and the barrier drain in its fetch stage; ``tests/campaign/test_golden.py::
test_unpooled_records_match_the_committed_golden`` holds runs that never recycle to
the pooled runs' golden.
"""

from __future__ import annotations

from collections import deque

from repro.bpu.unit import BranchOutcome
from repro.isa.microop import MicroOp
from repro.vp.base import VPrediction

#: Sentinel used for "not yet known" cycle fields.
UNKNOWN_CYCLE = -1


class InflightOp:
    """One µ-op in flight between fetch and commit."""

    __slots__ = (
        "seq",
        "pc",
        "uop",
        # The effective address of a load or store (None for other µ-ops), which
        # the LSQ matches and the memory hierarchy accesses.
        "addr",
        # Timing.
        "dispatch_ready_cycle",
        "dispatch_cycle",
        "issue_cycle",
        "complete_cycle",
        # Wake-up shortcut: the cycle from which dependents may consume this µ-op's
        # result (the dispatch cycle for a used prediction or an early-executed
        # µ-op, else the completion cycle), maintained eagerly at dispatch/issue so
        # the issue queue reads one field per producer.
        "avail_cycle",
        # Dataflow.
        "producers",
        "mem_dependence",
        # Value prediction.
        "prediction",
        "pred_used",
        # EOLE.
        "early_executed",
        "late_executed",
        # Branch prediction.
        "branch_outcome",
        # Bookkeeping.
        "issued",
        "executed",
        "squashed",
        "dest_bank",
        "history_snapshot",
        "load_forwarded",
        # Dependency-driven wake-up (see ooo.issue_queue.WakeupIssueQueue).
        # ``wake_gen`` is bumped on every (re)initialisation so that stale
        # registrations in a producer's consumer list are recognisable after the
        # record has been recycled; ``unknown_producers`` counts producers whose
        # availability cycle is not yet known; ``mem_blocked`` is the store-set
        # gate; the two lists hold ``(consumer, wake_gen)`` registrations.
        "wake_gen",
        "unknown_producers",
        "mem_blocked",
        "wake_consumers",
        "mem_waiters",
        # Pooling: arena index (-1 when unpooled) and completion-wheel membership.
        "slot",
        "in_completion_wheel",
    )

    def __init__(self, seq: int, pc: int, uop: MicroOp, addr: int | None = None) -> None:
        self.slot = -1
        self.wake_gen = 0
        # Fields the fetch stage overwrites before anything reads them — reset here
        # for directly-constructed records, skipped by the pool's recycle path (the
        # only acquire site is fetch, which assigns all of them immediately).
        self.dispatch_ready_cycle = UNKNOWN_CYCLE
        self.history_snapshot = 0
        # Fields only ever read after a later stage wrote them (or by debugging /
        # tests), plus the completion-wheel flag, which is invariantly False for any
        # record on the free list (it is cleared when the stale entry pops, before
        # the release).
        self.issue_cycle = UNKNOWN_CYCLE
        self.in_completion_wheel = False
        # One-time defaults for the fields ``_init`` deliberately does not reset
        # (a recycled record carries its previous incarnation's values there; see
        # the invariant note at the end of ``_init``).
        self.dispatch_cycle = UNKNOWN_CYCLE
        self.complete_cycle = UNKNOWN_CYCLE
        self.unknown_producers = 0
        self.mem_blocked = False
        self.producers: tuple[InflightOp | None, ...] = ()
        self.mem_dependence: InflightOp | None = None
        self.branch_outcome: BranchOutcome | None = None
        self._init(seq, pc, uop, addr)

    def _init(self, seq: int, pc: int, uop: MicroOp, addr: int | None) -> None:
        """(Re)initialise the per-µ-op fields shared by ``__init__`` and the pool.

        A recycled record must be indistinguishable from a freshly constructed one
        on every path that can read it — ``tests/campaign/test_golden.py::
        test_unpooled_records_match_the_committed_golden`` holds simulations that
        never recycle to the pooled runs' golden.  Fields listed in ``__init__``
        are exempt only because fetch overwrites them before any read; a second
        group of fields is exempt because a *later* stage overwrites them before
        any read (see the end of this method).
        """
        self.seq = seq
        self.pc = pc
        self.uop = uop
        self.addr = addr
        # A recycled record must never satisfy a wake-up registered against its
        # previous incarnation: the generation token invalidates them all at once.
        self.wake_gen += 1
        self.wake_consumers = None
        self.mem_waiters = None
        self.avail_cycle = UNKNOWN_CYCLE
        # Fetch only assigns predictions to VP-eligible µ-ops: clear here so a
        # recycled record never pins (or leaks) another µ-op's prediction.
        self.prediction: VPrediction | None = None
        self.pred_used = False
        self.early_executed = False
        self.late_executed = False
        self.issued = False
        self.executed = False
        self.squashed = False
        self.dest_bank = 0
        self.load_forwarded = False
        # Deliberately NOT reset (overwritten before any read, so a stale value
        # from the previous incarnation is unobservable):
        #
        # * ``dispatch_cycle``/``producers`` — assigned by rename/dispatch; only
        #   read for dispatched µ-ops (issue-queue walks, EE planning, LE/VT port
        #   model, squash PRF release, all post-dispatch);
        # * ``complete_cycle`` — every read is gated on ``executed`` (reset
        #   above), which is only set together with or after the assignment;
        # * ``mem_dependence`` — assigned at dispatch for every load; reads are
        #   guarded by ``uop.is_load``;
        # * ``branch_outcome`` — assigned at fetch for every branch; reads are
        #   guarded by ``uop.is_branch``/``is_conditional_branch``;
        # * ``unknown_producers``/``mem_blocked`` — assigned by the issue-queue
        #   insert before any read.

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"InflightOp(seq={self.seq}, pc={self.pc}, op={self.uop.opcode.value}, "
            f"dispatch={self.dispatch_cycle}, issue={self.issue_cycle}, "
            f"complete={self.complete_cycle}, ee={self.early_executed}, le={self.late_executed})"
        )


class InflightOpPool:
    """Free-list pool of :class:`InflightOp` records over an array-of-records arena.

    Storage is columnar in the pool's own bookkeeping: ``_arena`` is an append-only
    array of records addressed by each record's ``slot`` index, ``_free`` is an integer
    column of recyclable slots, and ``_deferred`` is the retirement queue of
    ``(barrier_seq, slot)`` pairs.  Working-set behaviour: the arena grows to the
    maximum number of simultaneously live (or deferred) µ-ops and is reused from then
    on, eliminating per-µ-op allocation and collector churn in the fetch/dispatch/squash
    paths.

    Recycling protocol (enforced by the simulator):

    * **squash** — a squashed µ-op is unreachable immediately (its consumers, being
      younger, were squashed with it) and is released right away via :meth:`release`,
      *unless* it still sits on the completion wheel, in which case the completion
      handler releases it when its stale entry pops.
    * **retire** — a retired µ-op may still be read by younger issue-queue entries
      that renamed against it (operand wake-up reads ``complete_cycle`` /
      ``dispatch_cycle``; the LE/VT port model reads ``dest_bank`` at their commit).
      :meth:`retire` therefore parks the record behind a barrier: the largest sequence
      number dispatched so far.  Once the ROB's oldest entry is younger than the
      barrier, every possible reader has itself retired or squashed, and the fetch
      stage moves the record to the free list.
    """

    __slots__ = ("_arena", "_free", "_deferred")

    def __init__(self) -> None:
        self._arena: list[InflightOp] = []
        self._free: list[int] = []
        self._deferred: deque[tuple[int, InflightOp]] = deque()

    @property
    def allocated(self) -> int:
        """Records ever created (the arena's working-set size)."""
        return len(self._arena)

    @property
    def free_count(self) -> int:
        """Records currently on the free list."""
        return len(self._free)

    @property
    def deferred_count(self) -> int:
        """Retired records still parked behind their barrier."""
        return len(self._deferred)

    # ------------------------------------------------------------------ acquire / release
    def acquire(self, seq: int, pc: int, uop: MicroOp, addr: int | None = None) -> InflightOp:
        """A record for trace position ``seq``: recycled when possible, else arena-grown."""
        free = self._free
        if free:
            op = self._arena[free.pop()]
            op._init(seq, pc, uop, addr)
            return op
        op = InflightOp(seq, pc, uop, addr)
        op.slot = len(self._arena)
        self._arena.append(op)
        return op

    def release(self, op: InflightOp) -> None:
        """Return ``op`` to the free list immediately (squash path)."""
        self._free.append(op.slot)

    def retire(self, op: InflightOp, barrier_seq: int) -> None:
        """Park a retired record until every µ-op dispatched before it has drained.

        ``barrier_seq`` is the highest sequence number dispatched at retirement time;
        barriers are therefore non-decreasing and the deferred queue stays sorted.
        """
        self._deferred.append((barrier_seq, op))
