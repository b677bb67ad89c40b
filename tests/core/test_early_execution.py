"""Tests for the Early Execution block (Section 3.2)."""

import pytest

from repro.core.early_execution import EarlyExecutionBlock, EarlyExecutionConfig
from repro.errors import ConfigurationError
from repro.isa.microop import MicroOp
from repro.isa.opcode import Opcode
from repro.ooo.inflight import InflightOp
from repro.vp.base import VPrediction


def _op(opcode=Opcode.ADD, dst=1, srcs=(), imm=None, seq=0):
    return InflightOp(seq, seq, MicroOp(opcode, dst=dst, srcs=srcs, imm=imm))


def _predicted(op: InflightOp) -> InflightOp:
    op.pred_used = True
    op.prediction = VPrediction(1, True, "test")
    return op


def _plan(group, previous=(), **config):
    block = EarlyExecutionBlock(EarlyExecutionConfig(**config))
    return block.plan(list(group), list(previous)), block


class TestEligibility:
    def test_immediate_only_op_executes_early(self):
        movi = _op(Opcode.MOVI, imm=5)
        executed, _ = _plan([movi])
        assert executed == [movi]
        assert movi.early_executed

    def test_op_reading_the_prf_is_not_eligible(self):
        # producers contains None: the value lives only in the PRF.
        add = _op(Opcode.ADD, srcs=(2, 3))
        add.producers = (None, None)
        executed, _ = _plan([add])
        assert executed == []

    def test_non_alu_ops_are_never_early_executed(self):
        load = _op(Opcode.LD, srcs=(2,), imm=0)
        load.producers = ()
        mul = _op(Opcode.MUL, srcs=(2, 3))
        mul.producers = ()
        executed, _ = _plan([load, mul])
        assert executed == []

    def test_consumer_of_predicted_producer_in_same_group_executes(self):
        producer = _predicted(_op(Opcode.LD, dst=2, srcs=(4,), imm=0, seq=0))
        producer.producers = (None,)
        consumer = _op(Opcode.ADD, dst=3, srcs=(2,), imm=1, seq=1)
        consumer.producers = (producer,)
        executed, _ = _plan([producer, consumer])
        assert consumer in executed

    def test_consumer_of_unpredicted_same_group_producer_does_not_execute(self):
        producer = _op(Opcode.MOVI, dst=2, imm=5, seq=0)
        consumer = _op(Opcode.ADD, dst=3, srcs=(2,), imm=1, seq=1)
        consumer.producers = (producer,)
        executed, _ = _plan([producer, consumer], depth=1)
        # With a single ALU stage the producer's early-executed result cannot be chained
        # combinationally within the same group (footnote 3 of the paper).
        assert producer in executed
        assert consumer not in executed

    def test_two_stages_allow_same_group_chaining(self):
        producer = _op(Opcode.MOVI, dst=2, imm=5, seq=0)
        consumer = _op(Opcode.ADD, dst=3, srcs=(2,), imm=1, seq=1)
        consumer.producers = (producer,)
        executed, _ = _plan([producer, consumer], depth=2)
        assert producer in executed and consumer in executed

    def test_previous_group_bypass_enables_execution(self):
        previous = _op(Opcode.MOVI, dst=2, imm=5, seq=0)
        previous.early_executed = True
        consumer = _op(Opcode.ADD, dst=3, srcs=(2,), imm=1, seq=1)
        consumer.producers = (previous,)
        executed, _ = _plan([consumer], previous=[previous])
        assert consumer in executed

    def test_previous_group_unexecuted_producer_blocks(self):
        previous = _op(Opcode.MUL, dst=2, srcs=(4, 5), seq=0)
        consumer = _op(Opcode.ADD, dst=3, srcs=(2,), imm=1, seq=1)
        consumer.producers = (previous,)
        executed, _ = _plan([consumer], previous=[previous])
        assert executed == []

    def test_predicted_previous_group_producer_counts_as_available(self):
        previous = _predicted(_op(Opcode.LD, dst=2, srcs=(4,), imm=0, seq=0))
        consumer = _op(Opcode.ADD, dst=3, srcs=(2,), imm=1, seq=1)
        consumer.producers = (previous,)
        executed, _ = _plan([consumer], previous=[previous])
        assert consumer in executed


class TestResourceLimits:
    def test_alu_budget_limits_group(self):
        group = [_op(Opcode.MOVI, dst=index + 1, imm=index, seq=index) for index in range(6)]
        executed, block = _plan(group, alus_per_stage=4)
        assert len(executed) == 4
        assert block.alu_saturation_rejects >= 2

    def test_disabled_block_does_nothing(self):
        group = [_op(Opcode.MOVI, imm=1)]
        block = EarlyExecutionBlock(EarlyExecutionConfig(enabled=False))
        assert block.plan(group, []) == []

    def test_invalid_configuration_rejected(self):
        with pytest.raises(ConfigurationError):
            EarlyExecutionConfig(depth=0)
        with pytest.raises(ConfigurationError):
            EarlyExecutionConfig(alus_per_stage=0)

    def test_statistics_accumulate(self):
        group = [_op(Opcode.MOVI, dst=1, imm=1, seq=0)]
        _, block = _plan(group)
        assert block.executed == 1
        assert block.candidates_seen >= 1

    def test_deeper_pipelines_capture_at_least_as_much(self):
        def build_group():
            ops = []
            previous = None
            for index in range(6):
                if previous is None:
                    op = _op(Opcode.MOVI, dst=index + 1, imm=index, seq=index)
                    op.producers = ()
                else:
                    op = _op(Opcode.ADD, dst=index + 1, srcs=(index,), imm=1, seq=index)
                    op.producers = (previous,)
                ops.append(op)
                previous = op
            return ops

        one_stage, _ = _plan(build_group(), depth=1)
        two_stages, _ = _plan(build_group(), depth=2)
        three_stages, _ = _plan(build_group(), depth=3)
        assert len(one_stage) <= len(two_stages) <= len(three_stages)
        assert len(one_stage) == 1  # only the movi
        assert len(two_stages) == 2
