"""Tests for the combined branch prediction unit (TAGE + BTB + RAS).

The unit is fed the way the simulator's fetch stage feeds it: from a captured
trace's replay columns, one ``(pc, uop, taken, next_pc)`` per control-flow µ-op.
"""

from repro.bpu.unit import BranchPredictionUnit
from repro.isa.builder import ProgramBuilder
from repro.trace.capture import capture_trace


def _branches(program, uops):
    """``(pc, uop, taken, next_pc)`` of each control-flow µ-op among ``uops`` committed."""
    view = capture_trace(program, uops).replay_view()
    for pos, pc in enumerate(view.pcs):
        uop = program.uops[pc]
        if uop.is_branch:
            yield pc, uop, view.taken[pos], view.next_pcs[pos]


def _loop_trace(iterations_uops=400):
    b = ProgramBuilder("bpu_loop")
    b.movi("r1", 0)
    b.label("loop")
    b.addi("r1", "r1", 1)
    b.cmp("r1", imm=1 << 30)
    b.bne("loop")
    return list(_branches(b.build(), iterations_uops))


def _call_ret_trace(uops=200):
    b = ProgramBuilder("calls")
    b.jmp("main")
    b.label("leaf")
    b.addi("r2", "r2", 1)
    b.ret()
    b.label("main")
    b.movi("r1", 0)
    b.label("loop")
    b.call("leaf")
    b.addi("r1", "r1", 1)
    b.cmp("r1", imm=1 << 30)
    b.bne("loop")
    return list(_branches(b.build(), uops))


class TestConditionalBranches:
    def test_backward_loop_branch_quickly_predicted(self):
        unit = BranchPredictionUnit()
        mispredictions = 0
        for branch in _loop_trace():
            outcome = unit.predict(*branch)
            if outcome.mispredicted:
                mispredictions += 1
            unit.train(branch[0], outcome)
        assert mispredictions < 10

    def test_history_updated_with_actual_outcomes(self):
        unit = BranchPredictionUnit()
        for branch in _loop_trace(40):
            unit.predict(*branch)
        assert unit.history.bits != 0

    def test_high_confidence_emerges_for_stable_branches(self):
        unit = BranchPredictionUnit()
        saw_high_confidence = False
        for branch in _loop_trace(600):
            if not branch[1].is_conditional_branch:
                continue
            outcome = unit.predict(*branch)
            saw_high_confidence |= outcome.high_confidence
            unit.train(branch[0], outcome)
        assert saw_high_confidence

    def test_btb_miss_on_first_taken_encounter_resolves_at_decode(self):
        unit = BranchPredictionUnit()
        decode_redirects = 0
        for branch in _loop_trace(60):
            if not branch[1].is_conditional_branch:
                continue
            outcome = unit.predict(*branch)
            decode_redirects += outcome.resolved_at_decode
            unit.train(branch[0], outcome)
        # Only the very first taken encounter should miss the BTB.
        assert decode_redirects <= 2


class TestCallsAndReturns:
    def test_returns_predicted_by_ras(self):
        unit = BranchPredictionUnit()
        ret_mispredictions = 0
        rets = 0
        for branch in _call_ret_trace(400):
            outcome = unit.predict(*branch)
            if branch[1].opcode.value == "ret":
                rets += 1
                ret_mispredictions += outcome.mispredicted
            unit.train(branch[0], outcome)
        assert rets > 10
        assert ret_mispredictions == 0

    def test_counters_track_branch_kinds(self):
        """Only conditional branches consult the direction predictor."""
        unit = BranchPredictionUnit()
        conditional = unconditional = 0
        for branch in _call_ret_trace(200):
            unit.predict(*branch)
            conditional += branch[1].is_conditional_branch
            unconditional += not branch[1].is_conditional_branch
        assert unconditional > 0
        assert unit.tage.lookups == conditional > 0

    def test_direct_jumps_and_calls_are_never_direction_mispredicted(self):
        unit = BranchPredictionUnit()
        for branch in _call_ret_trace(200):
            if not branch[1].is_conditional_branch:
                outcome = unit.predict(*branch)
                assert not outcome.direction_mispredicted
                assert outcome.predicted_taken


class TestIndirectBranches:
    def test_stable_indirect_target_learned_after_first_miss(self):
        b = ProgramBuilder("indirect")
        b.movi("r1", 0)
        b.la("r2", "target")
        b.label("loop")
        b.jmpi("r2")
        b.label("target")
        b.addi("r1", "r1", 1)
        b.cmp("r1", imm=1 << 30)
        b.bne("loop")
        unit = BranchPredictionUnit()
        indirect_mispredictions = 0
        indirects = 0
        for branch in _branches(b.build(), 300):
            outcome = unit.predict(*branch)
            if branch[1].opcode.value == "jmpi":
                indirects += 1
                indirect_mispredictions += outcome.mispredicted
            unit.train(branch[0], outcome)
        assert indirects > 10
        assert indirect_mispredictions <= 1
