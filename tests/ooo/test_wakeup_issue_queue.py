"""Property test: dependency-driven wake-up selection ≡ the reference full scan.

The :class:`WakeupIssueQueue` must be observably indistinguishable from the
full-walk ``ScanIssueQueue`` of ``tests/oracles.py`` — same selections, in the same order, at the same
cycles, with the same functional-unit interactions — over arbitrary dependence
graphs, including store-set memory dependences, pipeline squashes and replays
with **recycled records** (the pool reuses a squashed µ-op's record for its
re-fetched incarnation, which is exactly what the ``wake_gen`` token guards).

The driver replays one randomly generated scenario twice — once against each
queue implementation — mirroring the simulator's responsibilities (producer
availability resolution at issue, record recycling on squash/replay) and
compares the complete issue trace.  It selects on every cycle, and also replays
the simulator's scan-from bookkeeping for the wake-up queue: the exact re-arm is
only sound if a select before that cycle never finds anything.
"""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from repro.isa.microop import MicroOp
from repro.isa.opcode import Opcode
from repro.ooo.functional_units import FunctionalUnitPool
from repro.ooo.inflight import InflightOp
from repro.ooo.issue_queue import WakeupIssueQueue
from tests.oracles import ScanIssueQueue

#: Opcodes used by generated µ-ops: plain ALU, an unpipelined one (exercises the
#: functional-unit busy model), loads and stores (exercise store-set release).
_OPCODES = (Opcode.ADD, Opcode.DIV, Opcode.LD, Opcode.ST)


class _LoggingPool(FunctionalUnitPool):
    """Logs every ``try_issue`` call: both queues must make the same ones."""

    def __init__(self) -> None:
        super().__init__()
        self.calls: list[tuple] = []

    def try_issue(self, opclass, cycle: int, latency: int) -> bool:
        granted = super().try_issue(opclass, cycle, latency)
        self.calls.append((opclass, cycle, granted))
        return granted


def _uop_for(opcode: Opcode) -> MicroOp:
    if opcode is Opcode.LD:
        return MicroOp(opcode, dst=1, srcs=(2,), imm=0)
    if opcode is Opcode.ST:
        return MicroOp(opcode, srcs=(2, 3), imm=0)
    if opcode is Opcode.DIV:
        return MicroOp(opcode, dst=1, srcs=(2, 3))
    return MicroOp(opcode, dst=1, srcs=(2, 3))


@st.composite
def scenarios(draw):
    """A scripted stream of dispatch groups, squashes and replays."""
    d2i = draw(st.integers(min_value=0, max_value=3))
    capacity = draw(st.sampled_from([3, 8, 64]))
    issue_width = draw(st.integers(min_value=1, max_value=4))
    cycles = draw(st.integers(min_value=4, max_value=28))
    events = []
    seq = 0
    for _ in range(cycles):
        group = []
        for _ in range(draw(st.integers(min_value=0, max_value=3))):
            opcode = draw(st.sampled_from(_OPCODES))
            # Producer/memory dependences reference older seqs; whether each is
            # live, issued or recycled is decided at replay time.
            producers = draw(
                st.lists(
                    st.integers(min_value=max(0, seq - 6), max_value=max(0, seq - 1)),
                    min_size=0,
                    max_size=2,
                    unique=True,
                )
                if seq
                else st.just([])
            )
            mem_dep = (
                draw(st.integers(min_value=max(0, seq - 6), max_value=seq - 1))
                if opcode is Opcode.LD and seq and draw(st.booleans())
                else None
            )
            pred_used = draw(st.booleans()) and opcode is Opcode.ADD
            group.append((seq, opcode, tuple(producers), mem_dep, pred_used))
            seq += 1
        squash_from = (
            draw(st.integers(min_value=0, max_value=seq - 1))
            if seq and draw(st.integers(min_value=0, max_value=9)) == 0
            else None
        )
        events.append((group, squash_from))
    return d2i, capacity, issue_width, events


def _replay(queue, issue_width: int, events) -> list[tuple[int, int, int]]:
    """Drive one queue implementation through the scenario; return the issue trace.

    The driver mirrors the simulator: records recycle through a free list on
    squash (same object, `_init` bumps ``wake_gen``), producers resolve their
    availability at issue, and squashed seqs are re-dispatched (replayed) with
    fresh timing, exactly like a post-squash re-fetch.

    For the wake-up queue it also keeps the simulator's ``scan_from``: the
    queue's ``next_scan_cycle`` after each scan the simulator would run, lowered
    to the queue's ``wake_min`` after each insert and wake-up and to the cycle of
    a squash.  Every select at an earlier cycle — one the simulator skips — must
    select nothing.
    """
    wake = isinstance(queue, WakeupIssueQueue)
    fu_pool = _LoggingPool()
    records: dict[int, InflightOp] = {}
    free: list[InflightOp] = []
    pending: list[tuple[int, Opcode, tuple, int | None, bool]] = []
    trace: list[tuple[int, int, int]] = []
    scan_from = 0

    def issue(cycle: int) -> None:
        nonlocal scan_from
        selected = queue.select_ready(cycle, issue_width, fu_pool)
        skipped = wake and cycle < scan_from
        assert not (skipped and selected), (
            f"selected {[op.seq for op in selected]} at cycle {cycle}, "
            f"before the scan-from cycle {scan_from}"
        )
        for op in selected:
            op.complete_cycle = cycle + op.uop.latency
            if not op.pred_used:
                op.avail_cycle = op.complete_cycle
                if wake and op.wake_consumers is not None:
                    queue.producer_available(op)
                    scan_from = min(scan_from, queue.wake_min)
            trace.append((op.seq, op.issue_cycle, op.complete_cycle))
        if wake and not skipped:
            scan_from = queue.next_scan_cycle(cycle)

    cycle = 0
    for group, squash_from in events:
        cycle += 1
        # Issue stage first, as in the pipeline.
        issue(cycle)
        # Dispatch stage: replayed (squashed) µ-ops first, then the new group.
        dispatchable = [item for item in pending if item[0] not in records] + list(group)
        pending = [item for item in pending if item[0] in records]
        for item in dispatchable:
            item_seq, opcode, producer_seqs, mem_dep, pred_used = item
            if queue.occupancy >= queue.capacity:
                pending.append(item)
                continue
            record = free.pop() if free else None
            fields = (item_seq, item_seq % 7, _uop_for(opcode), None)
            if record is None:
                record = InflightOp(*fields)
            else:
                record._init(*fields)  # recycled: same object, bumped wake_gen
            record.dispatch_cycle = cycle
            record.producers = tuple(
                records[p] for p in producer_seqs if p in records
            ) or ()
            if pred_used:
                record.avail_cycle = cycle
                record.pred_used = True
            if mem_dep is not None:
                dependence = records.get(mem_dep)
                if (
                    dependence is not None
                    and dependence.uop.is_store
                    and not dependence.squashed
                    and not dependence.issued
                ):
                    record.mem_dependence = dependence
                else:
                    record.mem_dependence = None
            else:
                record.mem_dependence = None
            records[item_seq] = record
            queue.insert(record)
            scan_from = min(scan_from, queue.wake_min)
        # Optional squash: a seq-suffix dies and is replayed later.
        if squash_from is not None:
            replayed = []
            for item_seq in sorted(records):
                if item_seq < squash_from:
                    continue
                record = records.pop(item_seq)
                record.squashed = True
                if not record.issued:
                    replayed.append(
                        (
                            item_seq,
                            record.uop.opcode,
                            (),
                            None,
                            record.pred_used,
                        )
                    )
                free.append(record)
            queue.remove_squashed()
            scan_from = min(scan_from, cycle)
            # Replays re-enter the front of the pending stream, oldest first.
            pending = replayed + pending
    # Drain: keep scanning until nothing is left or progress stops.
    for _ in range(600):
        if not queue.occupancy:
            break
        cycle += 1
        issue(cycle)
    trace.append(("peak", queue.peak_occupancy, queue.occupancy))
    trace.append(("try_issue", fu_pool.calls, 0))
    return trace


@given(scenarios())
@settings(max_examples=120, deadline=None)
def test_wakeup_selection_equals_reference_scan(scenario):
    d2i, capacity, issue_width, events = scenario
    reference = _replay(ScanIssueQueue(capacity, d2i), issue_width, events)
    wakeup = _replay(WakeupIssueQueue(capacity, d2i), issue_width, events)
    assert wakeup == reference


def test_simulator_constructs_requested_queue(monkeypatch):
    from repro.pipeline.config import named_config
    from repro.pipeline.simulator import Simulator
    from repro.workloads.suite import workload
    from tests.conftest import replay_trace

    config, wl = named_config("Baseline_6_64"), workload("gcc")
    trace = replay_trace(config, wl.program, 10, wl.make_state())
    sim = Simulator(config, trace, max_uops=10)
    assert type(sim.iq) is WakeupIssueQueue
    monkeypatch.setattr(Simulator, "queue_class", ScanIssueQueue)
    sim = Simulator(config, trace, max_uops=10)
    assert type(sim.iq) is ScanIssueQueue
