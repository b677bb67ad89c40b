"""Tests for the reorder buffer."""

import pytest

from repro.errors import ConfigurationError
from repro.isa.microop import MicroOp
from repro.isa.opcode import Opcode
from repro.ooo.inflight import InflightOp
from repro.ooo.rob import ReorderBuffer

#: A machine whose 12-entry ROB fills constantly on milc.
TINY_ROB = 12


def _op(seq: int) -> InflightOp:
    uop = MicroOp(Opcode.ADD, dst=1, srcs=(2, 3))
    return InflightOp(seq, seq, uop)


def _dispatch(rob: ReorderBuffer, seqs) -> list[InflightOp]:
    """Append µ-ops to the ROB tail, as the simulator's dispatch stage does."""
    ops = [_op(seq) for seq in seqs]
    rob._entries.extend(ops)
    return ops


@pytest.fixture(scope="module")
def tiny_rob_run():
    """A simulation whose dispatch stalls on a full ROB again and again."""
    from repro.pipeline.config import named_config
    from repro.pipeline.simulator import Simulator
    from repro.workloads.suite import workload
    from tests.conftest import replay_trace

    config = named_config("Baseline_VP_6_64").derive(rob_size=TINY_ROB, iq_size=8)
    wl = workload("milc")
    simulator = Simulator(config, replay_trace(config, wl.program, 1500, wl.make_state()), 1500)
    return simulator, simulator.run()


class TestROB:
    def test_capacity_validation(self):
        with pytest.raises(ConfigurationError):
            ReorderBuffer(capacity=0)

    def test_has_space(self, tiny_rob_run):
        """Dispatch fills the ROB up to its capacity and then stalls, never past it."""
        simulator, result = tiny_rob_run
        assert result.full_stats.rob_full_stalls > 0
        assert simulator.rob.peak_occupancy == TINY_ROB

    def test_squash_from_removes_youngest_tail(self):
        rob = ReorderBuffer(capacity=8)
        _dispatch(rob, range(6))
        squashed = rob.squash_from(3)
        assert [op.seq for op in squashed] == [3, 4, 5]
        assert all(op.squashed for op in squashed)
        assert [op.seq for op in rob] == [0, 1, 2]

    def test_squash_from_beyond_tail_is_noop(self):
        rob = ReorderBuffer(capacity=4)
        _dispatch(rob, [0])
        assert rob.squash_from(10) == []
        assert [op.seq for op in rob] == [0]

    def test_peak_occupancy_tracked(self, tiny_rob_run):
        _, result = tiny_rob_run
        assert result.extra["rob_peak_occupancy"] == TINY_ROB
