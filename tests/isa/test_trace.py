"""Tests for dynamic-trace records and trace characterisation."""

import gc

import pytest

from repro.isa.builder import ProgramBuilder
from repro.isa.opcode import OpClass
from repro.isa.trace import characterize, gc_paused
from tests.oracles import StepEmulator


def _mixed_program():
    b = ProgramBuilder("mix")
    b.movi("r1", 0)
    b.movi("r2", 0x1000)
    b.label("loop")
    b.addi("r1", "r1", 1)
    b.ld("r3", "r2", 0)
    b.st("r2", "r1", 8)
    b.fadd("f1", "f1", "f2")
    b.cmp("r1", imm=1 << 30)
    b.bne("loop")
    return b.build()


class TestCharacterize:
    def test_counts_and_ratios(self):
        stats = characterize(StepEmulator(_mixed_program()).run(602))
        assert stats.total == 602
        assert stats.loads == 100
        assert stats.stores == 100
        assert stats.branches == 100
        assert 0 < stats.branch_ratio < 0.2
        assert abs(stats.memory_ratio - 200 / 602) < 1e-9

    def test_vp_eligible_excludes_stores_and_branches(self):
        stats = characterize(StepEmulator(_mixed_program()).run(602))
        # movi, addi, ld, fadd and cmp-less ops produce results; stores/branches/cmp not.
        assert stats.vp_eligible == stats.total - stats.stores - stats.branches - 100

    def test_distinct_pcs_bounded_by_program_size(self):
        program = _mixed_program()
        stats = characterize(StepEmulator(program).run(500))
        assert stats.distinct_pcs <= len(program)

    def test_per_class_totals_sum_to_total(self):
        stats = characterize(StepEmulator(_mixed_program()).run(300))
        assert sum(stats.per_class.values()) == stats.total

    def test_class_ratio(self):
        stats = characterize(StepEmulator(_mixed_program()).run(300))
        assert stats.class_ratio(OpClass.LOAD) > 0
        assert stats.class_ratio(OpClass.INT_DIV) == 0

    def test_empty_trace(self):
        stats = characterize([])
        assert stats.total == 0
        assert stats.branch_ratio == 0.0
        assert stats.vp_eligible_ratio == 0.0


class TestGcPaused:
    @pytest.fixture(autouse=True)
    def _restore_gc(self):
        was_enabled = gc.isenabled()
        yield
        if was_enabled:
            gc.enable()
        else:
            gc.disable()

    def test_pauses_and_restores_an_enabled_collector(self):
        gc.enable()
        with gc_paused():
            assert not gc.isenabled()
        assert gc.isenabled()

    def test_restores_the_collector_when_the_block_raises(self):
        gc.enable()
        with pytest.raises(RuntimeError):
            with gc_paused():
                raise RuntimeError("boom")
        assert gc.isenabled()

    def test_leaves_a_disabled_collector_disabled(self):
        gc.disable()
        with gc_paused():
            assert not gc.isenabled()
        assert not gc.isenabled()
        with pytest.raises(RuntimeError):
            with gc_paused():
                raise RuntimeError("boom")
        assert not gc.isenabled()

    def test_nested_pauses_restore_the_outermost_state(self):
        gc.enable()
        with gc_paused():
            with gc_paused():
                assert not gc.isenabled()
            assert not gc.isenabled()
        assert gc.isenabled()
