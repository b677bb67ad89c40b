"""EOLE behaviour in the pipeline: offload, issue-width reduction, port constraints."""

from repro.core.eole import EOLEVariant, eole_config
from repro.isa.builder import ProgramBuilder
from tests.conftest import build_counted_loop, run_simulation, small_config


def _offload_friendly_loop(chain_ops: int = 8, immediates: int = 6):
    """Predictable chain (Late Execution) plus immediate-fed work (Early Execution)."""

    def body(b: ProgramBuilder) -> None:
        for _ in range(chain_ops):
            b.addi("r10", "r10", 5)
        previous = None
        for index in range(immediates):
            dst = f"r{16 + index % 8}"
            if previous is None or index % 2 == 0:
                b.movi(dst, 0x40 + index)
            else:
                b.addi(dst, previous, 1)
            previous = dst

    return build_counted_loop(body, name="offload_friendly")


def _eole(variant=EOLEVariant.EOLE, **overrides):
    return small_config(
        value_prediction=True,
        eole=eole_config(variant),
        **overrides,
    )


class TestOffload:
    def test_early_and_late_execution_both_occur(self):
        result = run_simulation(_eole(), _offload_friendly_loop(), max_uops=2500)
        stats = result.stats
        assert stats.early_executed > 0
        assert stats.late_executed_alu > 0
        assert stats.late_resolved_branches > 0
        assert 0.1 < stats.offload_ratio < 0.9

    def test_offloaded_uops_do_not_enter_the_issue_queue(self):
        result = run_simulation(_eole(), _offload_friendly_loop(), max_uops=2500)
        stats = result.stats
        offloaded = stats.early_executed + stats.late_executed_alu + stats.late_resolved_branches
        # Offloaded µ-ops never take an IQ slot; re-dispatch after the (rare) squashes is
        # the only reason the two sides may not add up exactly to the committed count.
        assert offloaded > 0
        assert stats.dispatched_to_iq < stats.committed_uops
        assert stats.dispatched_to_iq + offloaded <= stats.fetched_uops + stats.squashed_uops

    def test_baseline_vp_machine_offloads_nothing(self):
        result = run_simulation(
            small_config(value_prediction=True), _offload_friendly_loop(), max_uops=1500
        )
        assert result.stats.offload_ratio == 0.0

    def test_eole_share_tracks_value_predictability(self):
        def unpredictable_body(b: ProgramBuilder) -> None:
            # A serial chain through pseudo-random memory: not predictable, not EE-able.
            for _ in range(4):
                b.and_("r5", "r4", imm=(1 << 11) - 8)
                b.ld("r4", "r5", 0x80000)
                b.add("r6", "r6", "r4")

        unpredictable = build_counted_loop(unpredictable_body, name="unpredictable")
        predictable = run_simulation(_eole(), _offload_friendly_loop(8, 6), max_uops=2500)
        hostile = run_simulation(_eole(), unpredictable, max_uops=2500)
        # Offload is driven by value predictability (Section 3.4: 10%-60% across SPEC).
        assert predictable.stats.offload_ratio > hostile.stats.offload_ratio + 0.2


class TestIssueWidthReduction:
    def test_eole_4_matches_vp_6_on_offload_friendly_code(self):
        """The paper's headline claim at test scale (Section 5.2)."""
        program = _offload_friendly_loop()
        vp6 = run_simulation(
            small_config(value_prediction=True, issue_width=6), program, max_uops=3000
        )
        vp4 = run_simulation(
            small_config(value_prediction=True, issue_width=4), program, max_uops=3000
        )
        eole4 = run_simulation(_eole(issue_width=4), program, max_uops=3000)
        assert eole4.ipc >= vp4.ipc - 1e-9
        assert eole4.ipc >= vp6.ipc * 0.95

    def test_eole_variants_all_run(self):
        program = _offload_friendly_loop()
        full = run_simulation(_eole(EOLEVariant.EOLE, issue_width=4), program, max_uops=2000)
        ole = run_simulation(_eole(EOLEVariant.OLE, issue_width=4), program, max_uops=2000)
        eoe = run_simulation(_eole(EOLEVariant.EOE, issue_width=4), program, max_uops=2000)
        assert ole.stats.early_executed == 0 and ole.stats.late_executed_alu > 0
        assert eoe.stats.late_executed_alu == 0 and eoe.stats.early_executed > 0
        assert full.stats.offload_ratio >= max(
            ole.stats.offload_ratio, eoe.stats.offload_ratio
        )


class TestPortAndBankConstraints:
    def test_unconstrained_and_generous_ports_are_equivalent_or_close(self):
        program = _offload_friendly_loop()
        free = run_simulation(_eole(issue_width=4), program, max_uops=2000)
        banked = run_simulation(
            _eole(issue_width=4, prf_banks=4, levt_read_ports_per_bank=4,
                  ee_write_ports_per_bank=2),
            program,
            max_uops=2000,
        )
        assert banked.ipc >= free.ipc * 0.95

    def test_severely_limited_levt_ports_cost_performance(self):
        program = _offload_friendly_loop()
        generous = run_simulation(
            _eole(issue_width=4, prf_banks=4, levt_read_ports_per_bank=4), program, max_uops=2000
        )
        starved = run_simulation(
            _eole(issue_width=4, prf_banks=1, levt_read_ports_per_bank=1), program, max_uops=2000
        )
        assert starved.stats.levt_port_stalls > 0
        assert starved.ipc <= generous.ipc

    def test_late_execution_alu_budget_enforced(self):
        program = _offload_friendly_loop()
        config = small_config(
            value_prediction=True,
            issue_width=4,
            eole=eole_config(EOLEVariant.EOLE, le_alus=1),
        )
        result = run_simulation(config, program, max_uops=2000)
        assert result.stats.committed_uops == 2000
        assert result.stats.late_alu_stalls > 0

    def test_banked_prf_with_many_banks_still_correct(self):
        program = _offload_friendly_loop()
        result = run_simulation(_eole(issue_width=4, prf_banks=8), program, max_uops=1500)
        assert result.stats.committed_uops == 1500


class TestHighConfidenceBranchOffload:
    def test_branch_offload_can_be_disabled(self):
        program = _offload_friendly_loop()
        with_branches = run_simulation(_eole(), program, max_uops=2000)
        config = small_config(
            value_prediction=True,
            eole=eole_config(EOLEVariant.EOLE, resolve_high_confidence_branches=False),
        )
        without_branches = run_simulation(config, program, max_uops=2000)
        assert with_branches.stats.late_resolved_branches > 0
        assert without_branches.stats.late_resolved_branches == 0
