"""Tests for the unified issue queue (scheduler)."""

import pytest

from repro.errors import ConfigurationError
from repro.isa.microop import MicroOp
from repro.isa.opcode import Opcode
from repro.ooo.functional_units import FunctionalUnitConfig, FunctionalUnitPool
from repro.ooo.inflight import InflightOp
from repro.ooo.issue_queue import WakeupIssueQueue


def _op(seq: int, opcode: Opcode = Opcode.ADD) -> InflightOp:
    dst = 1 if opcode not in (Opcode.ST,) else None
    uop = MicroOp(opcode, dst=dst, srcs=(2,) if opcode is not Opcode.ST else (2, 3), imm=0)
    op = InflightOp(seq, seq, uop)
    op.dispatch_cycle = 0
    return op


def _blocked(op: InflightOp) -> InflightOp:
    """Give ``op`` a producer whose result time is still unknown (not ready)."""
    op.producers = (_op(100 + op.seq),)
    return op


class TestCapacity:
    def test_capacity_validation(self):
        with pytest.raises(ConfigurationError):
            WakeupIssueQueue(capacity=0)

    def test_has_space_and_occupancy(self):
        iq = WakeupIssueQueue(capacity=2)
        iq.insert(_op(0))
        assert iq.occupancy == 1 < iq.capacity  # dispatch's space check
        iq.insert(_op(1))
        assert iq.occupancy == iq.capacity
        assert iq.peak_occupancy == 2


class TestSelect:
    def test_issue_width_respected(self):
        iq = WakeupIssueQueue(capacity=16)
        for seq in range(10):
            iq.insert(_op(seq))
        pool = FunctionalUnitPool()
        selected = iq.select_ready(5, 4, pool)
        assert len(selected) == 4
        assert iq.occupancy == 6  # entries released at issue

    def test_oldest_first_selection(self):
        iq = WakeupIssueQueue(capacity=16)
        ops = [_op(seq) for seq in range(6)]
        for op in ops:
            iq.insert(op)
        selected = iq.select_ready(1, 3, FunctionalUnitPool())
        assert [op.seq for op in selected] == [0, 1, 2]

    def test_not_ready_entries_are_skipped_but_kept(self):
        iq = WakeupIssueQueue(capacity=16)
        ops = [_blocked(_op(seq)) if seq % 2 == 0 else _op(seq) for seq in range(4)]
        for op in ops:
            iq.insert(op)
        selected = iq.select_ready(1, 4, FunctionalUnitPool())
        assert [op.seq for op in selected] == [1, 3]
        assert [op.seq for op in iq] == [0, 2]

    def test_functional_unit_limit_blocks_issue(self):
        iq = WakeupIssueQueue(capacity=16)
        for seq in range(6):
            iq.insert(_op(seq, Opcode.MUL))
        pool = FunctionalUnitPool(FunctionalUnitConfig(mul_div=2))
        selected = iq.select_ready(1, 6, pool)
        assert len(selected) == 2

    def test_issue_marks_timing_fields(self):
        iq = WakeupIssueQueue(capacity=4)
        op = _op(0)
        iq.insert(op)
        iq.select_ready(7, 1, FunctionalUnitPool())
        assert op.issued
        assert op.issue_cycle == 7
        assert list(iq) == []

    def test_squashed_entries_dropped_during_select(self):
        iq = WakeupIssueQueue(capacity=8)
        keep, squash = _op(0), _op(1)
        squash.squashed = True
        iq.insert(keep)
        iq.insert(squash)
        selected = iq.select_ready(1, 4, FunctionalUnitPool())
        assert selected == [keep]
        # The select skipped the squashed entry; the squash's own cleanup
        # releases its slot.
        iq.remove_squashed()
        assert iq.occupancy == 0

    def test_remove_squashed(self):
        iq = WakeupIssueQueue(capacity=8)
        ops = [_op(seq) for seq in range(4)]
        for op in ops:
            iq.insert(op)
        ops[1].squashed = True
        ops[3].squashed = True
        iq.remove_squashed()
        assert [op.seq for op in iq] == [0, 2]

    def test_empty_select(self):
        iq = WakeupIssueQueue(capacity=8)
        assert iq.select_ready(1, 4, FunctionalUnitPool()) == []
