"""Tests for the reorder buffer."""

import pytest

from repro.errors import ConfigurationError, SimulationError
from repro.isa.microop import MicroOp
from repro.isa.opcode import Opcode
from repro.isa.trace import DynInst
from repro.ooo.inflight import InflightOp
from repro.ooo.rob import ReorderBuffer


def _op(seq: int) -> InflightOp:
    uop = MicroOp(Opcode.ADD, dst=1, srcs=(2, 3))
    return InflightOp(DynInst(seq=seq, pc=seq, uop=uop))


class TestROB:
    def test_capacity_validation(self):
        with pytest.raises(ConfigurationError):
            ReorderBuffer(capacity=0)

    def test_push_and_pop_in_order(self):
        rob = ReorderBuffer(capacity=4)
        ops = [_op(i) for i in range(3)]
        for op in ops:
            rob.push(op)
        assert rob.occupancy == 3
        assert rob.head() is ops[0]
        assert rob._entries.popleft() is ops[0]  # commit pops the deque directly
        assert rob.head() is ops[1]

    def test_has_space(self):
        rob = ReorderBuffer(capacity=2)
        rob.push(_op(0))
        assert rob.has_space(1)
        assert not rob.has_space(2)
        rob.push(_op(1))
        assert not rob.has_space(1)

    def test_overflow_raises(self):
        rob = ReorderBuffer(capacity=1)
        rob.push(_op(0))
        with pytest.raises(SimulationError):
            rob.push(_op(1))

    def test_out_of_order_push_rejected(self):
        rob = ReorderBuffer(capacity=4)
        rob.push(_op(5))
        with pytest.raises(SimulationError):
            rob.push(_op(3))

    def test_squash_from_removes_youngest_tail(self):
        rob = ReorderBuffer(capacity=8)
        ops = [_op(i) for i in range(6)]
        for op in ops:
            rob.push(op)
        squashed = rob.squash_from(3)
        assert [op.seq for op in squashed] == [3, 4, 5]
        assert all(op.squashed for op in squashed)
        assert rob.occupancy == 3
        assert [op.seq for op in rob] == [0, 1, 2]

    def test_squash_from_beyond_tail_is_noop(self):
        rob = ReorderBuffer(capacity=4)
        rob.push(_op(0))
        assert rob.squash_from(10) == []
        assert rob.occupancy == 1

    def test_peak_occupancy_tracked(self):
        rob = ReorderBuffer(capacity=4)
        for index in range(3):
            rob.push(_op(index))
        rob.squash_from(1)
        assert rob.peak_occupancy == 3
