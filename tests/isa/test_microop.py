"""Tests for static µ-op construction and classification."""

import pytest

from repro.errors import ProgramError
from repro.isa.microop import MicroOp
from repro.isa.opcode import Opcode
from repro.isa.registers import FLAGS_REG


class TestConstruction:
    def test_simple_add(self):
        uop = MicroOp(Opcode.ADD, dst=3, srcs=(1, 2))
        assert uop.dst == 3
        assert uop.srcs == (1, 2)
        assert uop.latency == 1
        assert uop.is_single_cycle_alu

    def test_invalid_source_register_rejected(self):
        with pytest.raises(ProgramError):
            MicroOp(Opcode.ADD, dst=1, srcs=(200,))

    def test_invalid_destination_register_rejected(self):
        with pytest.raises(ProgramError):
            MicroOp(Opcode.ADD, dst=-3, srcs=(1, 2))

    def test_branch_requires_target(self):
        with pytest.raises(ProgramError):
            MicroOp(Opcode.BEQ, srcs=(FLAGS_REG,))

    def test_non_branch_rejects_target(self):
        with pytest.raises(ProgramError):
            MicroOp(Opcode.ADD, dst=1, srcs=(2, 3), target="loop")

    def test_cmp_always_sets_flags(self):
        uop = MicroOp(Opcode.CMP, srcs=(1, 2))
        assert uop.sets_flags
        assert uop.writes_flags

    def test_fp_op_cannot_set_flags(self):
        with pytest.raises(ProgramError):
            MicroOp(Opcode.FADD, dst=40, srcs=(41, 42), sets_flags=True)


class TestClassification:
    def test_vp_eligibility_requires_destination(self):
        assert MicroOp(Opcode.ADD, dst=1, srcs=(2, 3)).vp_eligible
        assert MicroOp(Opcode.LD, dst=1, srcs=(2,), imm=0).vp_eligible
        assert not MicroOp(Opcode.ST, srcs=(1, 2), imm=0).vp_eligible
        assert not MicroOp(Opcode.BEQ, srcs=(FLAGS_REG,), target="t").vp_eligible
        assert not MicroOp(Opcode.NOP).vp_eligible

    def test_conditional_branch_reads_flags_implicitly(self):
        uop = MicroOp(Opcode.BNE, srcs=(FLAGS_REG,), target="loop")
        assert uop.reads_flags
        assert FLAGS_REG in uop.src_regs

    def test_flag_setting_op_writes_flags_register(self):
        uop = MicroOp(Opcode.SUB, dst=1, srcs=(2, 3), sets_flags=True)
        assert FLAGS_REG in uop.dst_regs
        assert 1 in uop.dst_regs

    def test_store_sources(self):
        uop = MicroOp(Opcode.ST, srcs=(4, 5), imm=8)
        assert uop.is_store and uop.is_memory
        assert uop.dst_regs == ()

    def test_string_rendering_mentions_opcode_and_registers(self):
        uop = MicroOp(Opcode.ADD, dst=1, srcs=(2,), imm=7)
        text = str(uop)
        assert "add" in text and "r1" in text and "#7" in text
