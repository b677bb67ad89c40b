"""Tests for program containers and label resolution."""

import pytest

from repro.errors import ProgramError
from repro.isa.builder import ProgramBuilder
from repro.isa.microop import MicroOp
from repro.isa.opcode import Opcode
from repro.isa.program import Program


def _small_program() -> Program:
    b = ProgramBuilder("p")
    b.movi("r1", 0)
    b.label("loop")
    b.addi("r1", "r1", 1)
    b.cmp("r1", imm=10)
    b.bne("loop")
    return b.build()


class TestResolution:
    def test_resolve_assigns_targets(self):
        program = _small_program()
        branch_pc = len(program) - 1
        assert program.target_of(branch_pc) == 1  # the "loop" label

    def test_non_branch_has_no_target(self):
        program = _small_program()
        assert program.target_of(0) is None

    def test_empty_program_rejected(self):
        with pytest.raises(ProgramError):
            Program(uops=[], name="empty").resolve()

    def test_undefined_label_rejected(self):
        program = Program(
            uops=[MicroOp(Opcode.JMP, target="nowhere")], labels={}, name="bad"
        )
        with pytest.raises(ProgramError):
            program.resolve()

    def test_unresolved_program_refuses_queries(self):
        program = Program(uops=[MicroOp(Opcode.NOP)], labels={})
        with pytest.raises(ProgramError):
            program.target_of(0)

    def test_pc_of_label(self):
        program = _small_program()
        assert program.pc_of("loop") == 1
        with pytest.raises(ProgramError):
            program.pc_of("missing")

    def test_label_immediate_resolution(self):
        b = ProgramBuilder("ind")
        b.la("r1", "target")
        b.jmpi("r1")
        b.label("target")
        b.nop()
        program = b.build()
        # The emulator reads the resolved immediates from this column.
        assert program._imm_values[0] == program.pc_of("target")


class TestIntrospection:
    def test_len_and_indexing(self):
        program = _small_program()
        assert len(program) == 4
        assert program[0].opcode is Opcode.MOVI
