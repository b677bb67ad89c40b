"""Tests for the Late Execution / Validation & Training block (Section 3.3)."""

import pytest

from repro.bpu.unit import BranchOutcome
from repro.core.late_execution import LateExecutionBlock, LateExecutionConfig
from repro.errors import ConfigurationError
from repro.isa.microop import MicroOp
from repro.isa.opcode import Opcode
from repro.isa.registers import FLAGS_REG
from repro.ooo.inflight import InflightOp


def _op(opcode=Opcode.ADD, dst=1, srcs=(), target=None, seq=0):
    uop = MicroOp(opcode, dst=dst, srcs=srcs, target=target, imm=0 if dst else None)
    return InflightOp(seq, seq, uop)


def _predicted(op):
    op.pred_used = True
    op.prediction = (3, True)
    return op


def _branch(high_confidence: bool, mispredicted: bool = False) -> InflightOp:
    op = _op(Opcode.BNE, dst=None, srcs=(FLAGS_REG,), target="loop")
    op.branch_outcome = BranchOutcome(
        predicted_taken=True,
        predicted_target=1,
        actual_taken=not mispredicted,
        actual_target=1,
        high_confidence=high_confidence,
        direction_mispredicted=mispredicted,
        target_mispredicted=False,
        resolved_at_decode=False,
    )
    return op


class TestEligibility:
    def test_predicted_alu_op_is_late_executable(self):
        block = LateExecutionBlock()
        op = _predicted(_op())
        assert block.is_late_executable(op)
        assert block.classify(op)
        assert op.late_executed
        assert block.late_executed_alu == 1

    def test_unpredicted_alu_op_is_not(self):
        assert not LateExecutionBlock().is_late_executable(_op())

    def test_predicted_load_is_not_late_executed(self):
        load = _predicted(_op(Opcode.LD, srcs=(2,)))
        assert not LateExecutionBlock().is_late_executable(load)

    def test_predicted_multicycle_op_is_not_late_executed(self):
        mul = _predicted(_op(Opcode.MUL, srcs=(2, 3)))
        assert not LateExecutionBlock().is_late_executable(mul)

    def test_early_executed_op_is_not_counted_again(self):
        op = _predicted(_op())
        op.early_executed = True
        assert not LateExecutionBlock().is_late_executable(op)

    def test_high_confidence_branch_is_late_resolved(self):
        block = LateExecutionBlock()
        branch = _branch(high_confidence=True)
        assert block.classify(branch)
        assert block.late_resolved_branches == 1

    def test_low_confidence_branch_stays_in_ooo(self):
        assert not LateExecutionBlock().is_late_executable(_branch(high_confidence=False))

    def test_branch_offload_can_be_disabled(self):
        block = LateExecutionBlock(LateExecutionConfig(resolve_high_confidence_branches=False))
        assert not block.is_late_executable(_branch(high_confidence=True))

    def test_disabled_block_rejects_everything(self):
        block = LateExecutionBlock(LateExecutionConfig(enabled=False))
        assert not block.is_late_executable(_predicted(_op()))

    def test_invalid_configuration_rejected(self):
        with pytest.raises(ConfigurationError):
            LateExecutionConfig(alus=0)


class TestLEVTReads:
    def test_vp_eligible_op_reads_its_destination_bank(self):
        op = _op()
        op.dest_bank = 2
        assert LateExecutionBlock().levt_read_banks(op) == [2]

    def test_late_executed_op_also_reads_operand_banks(self):
        block = LateExecutionBlock()
        producer = _op(seq=0)
        producer.dest_bank = 1
        consumer = _predicted(_op(Opcode.ADD, dst=4, srcs=(1, 2), seq=1))
        consumer.dest_bank = 3
        consumer.producers = (producer, None)
        block.classify(consumer)
        banks = block.levt_read_banks(consumer, architectural_bank=0)
        assert sorted(banks) == [0, 1, 3]

    def test_branch_reads_no_validation_port(self):
        block = LateExecutionBlock()
        branch = _branch(high_confidence=True)
        branch.producers = (None,)
        block.classify(branch)
        banks = block.levt_read_banks(branch, architectural_bank=7)
        assert banks == [7]  # only the flags operand read, no result validation read

    def test_store_needs_no_levt_reads(self):
        store = _op(Opcode.ST, dst=None, srcs=(1, 2))
        assert LateExecutionBlock().levt_read_banks(store) == []
