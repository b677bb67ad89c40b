"""The fused commit fast path vs the unfused reference commit.

``Simulator._commit`` inlines the per-µ-op retire bookkeeping and the
prediction correctness decision, and batches commit-side predictor training.
The unfused reference lives here: :meth:`_ReferenceCommitSimulator._retire`
and :meth:`_ReferenceCommitSimulator._validate_and_train` rebuild the
pre-fusion commit loop, and whole-run results are compared — so a drift in
the fast path (or an unsound training deferral) shows up as a result mismatch
instead of silently rotting.
"""

import pytest

from repro.isa.flags import approximate_flags, flags_match_for_validation
from repro.ooo.inflight import InflightOp
from repro.pipeline.config import named_config
from repro.pipeline.simulator import Simulator
from repro.workloads.suite import workload
from tests.conftest import replay_trace

MAX_UOPS, WARMUP = 2000, 400


class _ReferenceCommitSimulator(Simulator):
    """The pre-fusion commit loop, composed from the reference methods."""

    def _commit(self) -> None:
        committed = 0
        late_alus_used = 0
        cycle = self.cycle
        commit_extra = self._commit_extra
        late_alu_limit = self.late_block.config.alus
        rob_entries = self.rob._entries
        while committed < self.config.commit_width:
            if not rob_entries:
                break
            op = rob_entries[0]
            if not op.executed:
                break
            if cycle < op.complete_cycle + commit_extra:
                break
            if op.late_executed and late_alus_used >= late_alu_limit:
                self.stats.late_alu_stalls += 1
                break
            if self._levt_ports_limited:
                banks = self.late_block.levt_read_banks(op)
                if not self.prf.try_levt_reads(banks, cycle):
                    self.stats.levt_port_stalls += 1
                    break
            rob_entries.popleft()
            committed += 1
            if op.late_executed:
                late_alus_used += 1
            self._retire(op)
            if self._finished:
                return
            if self._validate_and_train(op):
                break

    def _retire(self, op: InflightOp) -> None:
        """Bookkeeping common to every retiring µ-op.

        ``Simulator._commit`` inlines this per-µ-op body (the only intentional
        difference is that it defers ``bpu.train`` into a per-commit-group batch)."""
        uop = op.uop
        stats = self.stats
        stats.committed_uops += 1
        if uop.is_branch:
            stats.committed_branches += 1
            if uop.is_conditional_branch:
                stats.committed_cond_branches += 1
        if uop.is_load:
            stats.committed_loads += 1
            if op.load_forwarded:
                stats.forwarded_loads += 1
        if uop.is_store:
            stats.committed_stores += 1
            if op.addr is not None:
                self.hierarchy.store(op.addr, op.pc, self.cycle)
            # Scrub any remaining LFST reference before the record is recycled
            # (observably a no-op: a retired store already has ``issued`` set).
            self.store_sets.store_retired(op)
        if uop.vp_eligible:
            stats.committed_vp_eligible += 1
        if op.early_executed:
            stats.early_executed += 1
        elif op.late_executed:
            if uop.is_conditional_branch:
                stats.late_resolved_branches += 1
            else:
                stats.late_executed_alu += 1
        if op.pred_used:
            stats.predictions_used += 1
        if self.tracer is not None:
            self.tracer.emit(self.cycle, "commit", op)

        # Free the rename mapping and the physical register.
        for dst in uop.dst_regs:
            if self._rename_map.get(dst) is op:
                del self._rename_map[dst]
        if uop.dst is not None:
            self.prf.release(op.dest_bank)
        if uop.is_memory:
            self.lsq.remove(op)

        # Branch predictor training and late branch resolution.
        if uop.is_conditional_branch and op.branch_outcome is not None:
            self.bpu.train(op.pc, op.branch_outcome)
            if op.branch_outcome.mispredicted:
                stats.branch_mispredictions += 1
                if op.branch_outcome.high_confidence:
                    stats.high_confidence_branch_mispredictions += 1
            if op is self._fetch_blocked_on:
                # A late-resolved (LE/VT) mispredicted branch unblocks fetch at commit.
                self._resume_fetch_after_resolution()
        elif (
            uop.is_branch
            and op.branch_outcome is not None
            and op.branch_outcome.mispredicted
        ):
            stats.branch_mispredictions += 1

        if not self._warmup_done and stats.committed_uops >= self.warmup_uops:
            self._warmup_snapshot = stats.copy()
            self._warmup_done = True
        if stats.committed_uops >= self.max_uops:
            self._finished = True

        # Park the record for recycling.  Younger IQ entries renamed against this
        # µ-op keep reading its timing fields until they issue, and the LE/VT port
        # model reads its destination bank when they commit — all of them were
        # dispatched by now, so the current dispatch high-water mark is the barrier.
        self.pool.retire(op, self._last_dispatched_seq)

    def _validate_and_train(self, op: InflightOp) -> bool:
        """Prediction validation + predictor training; returns True if a squash occurred.

        ``Simulator._commit`` inlines the correctness decision and defers the
        training into a per-commit-group batch."""
        actual = self._trace_results[op.seq]
        if self.predictor is None or not op.uop.vp_eligible or actual is None:
            return False
        value_correct = self.predictor.validate_and_train(op.pc, actual, op.prediction)
        if not op.pred_used:
            return False
        flags_ok = True
        flags_result = self._trace_flags[op.seq]
        if op.uop.sets_flags and flags_result is not None and op.prediction is not None:
            flags_ok = flags_match_for_validation(
                flags_result, approximate_flags(op.prediction[0])
            )
            if value_correct and not flags_ok:
                self.stats.flag_only_mispredictions += 1
        if value_correct and flags_ok:
            return False
        # Value misprediction: the offending µ-op retires with the architectural value,
        # everything younger is squashed and re-fetched (Section 3.1: pipeline squash).
        self.stats.value_mispredictions += 1
        self._squash_from(op.seq + 1, "value_mispred")
        return True


def _run(simulator_cls, config_name, workload_name):
    config = named_config(config_name)
    wl = workload(workload_name)
    trace = replay_trace(config, wl.program, MAX_UOPS, wl.make_state())
    return simulator_cls(config, trace, MAX_UOPS, WARMUP).run()


@pytest.mark.parametrize(
    "config_name",
    ["Baseline_6_64", "Baseline_VP_6_64", "EOLE_4_64", "EOLE_4_64_4ports_4banks"],
)
@pytest.mark.parametrize("workload_name", ["gcc", "milc", "mcf"])
def test_fused_commit_matches_reference_methods(config_name, workload_name):
    fused = _run(Simulator, config_name, workload_name)
    reference = _run(_ReferenceCommitSimulator, config_name, workload_name)
    assert fused.to_dict() == reference.to_dict()
