"""Late Execution and the LE/VT (Late Execution / Validation & Training) stage.

Section 3.3 of the paper: µ-ops whose result was predicted with high confidence do not
need to execute in the out-of-order engine at all — their dependents already consume
the prediction — so their execution can be delayed to an in-order, pre-commit stage
where prediction validation and predictor training happen anyway.  Very-high-confidence
conditional branches (as classified by TAGE's storage-free confidence estimator) are
resolved in the same stage.

Only single-cycle ALU µ-ops are late-executed (predicted loads still execute in the OoO
engine but are *validated* at commit).  The LE/VT stage reads the PRF: Section 6
budgets those read ports and Fig. 11 studies limiting them per bank — the
:meth:`LateExecutionBlock.levt_read_banks` helper exposes exactly the reads each
committing µ-op needs so the pipeline can enforce the per-bank budget.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigurationError
from repro.ooo.inflight import InflightOp


@dataclass
class LateExecutionConfig:
    """Configuration of the Late Execution block.

    ``alus`` bounds how many µ-ops can late-execute per cycle (the paper assumes a full
    commit-width rank, i.e. 8, and presumes in Section 6.4 that a rank of 4 would
    suffice); ``resolve_high_confidence_branches`` enables offloading very-high-
    confidence conditional branches.
    """

    enabled: bool = True
    alus: int = 8
    resolve_high_confidence_branches: bool = True

    def __post_init__(self) -> None:
        if self.alus <= 0:
            raise ConfigurationError("Late Execution needs at least one ALU")


class LateExecutionBlock:
    """Classifies µ-ops for Late Execution and accounts LE/VT register-file traffic."""

    def __init__(self, config: LateExecutionConfig | None = None) -> None:
        self.config = config if config is not None else LateExecutionConfig()
        self.late_executed_alu = 0
        self.late_resolved_branches = 0

    # ------------------------------------------------------------------ eligibility
    def is_late_executable(self, op: InflightOp) -> bool:
        """True if ``op`` skips the OoO engine and executes in the LE/VT stage.

        Mirrors Section 3.3: predicted single-cycle ALU µ-ops, plus very-high-confidence
        conditional branches.  µ-ops that were already early-executed are not counted
        (instructions are executed once at most — note under Fig. 4).
        """
        if not self.config.enabled or op.early_executed:
            return False
        if op.uop.is_single_cycle_alu and op.pred_used:
            return True
        if (
            self.config.resolve_high_confidence_branches
            and op.uop.is_conditional_branch
            and op.branch_outcome is not None
            and op.branch_outcome.high_confidence
        ):
            return True
        return False

    def classify(self, op: InflightOp) -> bool:
        """Mark ``op`` as late-executed if eligible; returns the decision."""
        if self.is_late_executable(op):
            op.late_executed = True
            if op.uop.is_conditional_branch:
                self.late_resolved_branches += 1
            else:
                self.late_executed_alu += 1
            return True
        return False

    # ------------------------------------------------------------------ LE/VT PRF traffic
    def levt_read_banks(self, op: InflightOp, architectural_bank: int = 0) -> list[int]:
        """PRF banks read by the LE/VT stage on behalf of ``op`` at commit.

        * every VP-eligible µ-op reads its own result for validation and predictor
          training (one read from its destination bank);
        * a late-executed ALU µ-op additionally reads its source operands;
        * a late-resolved branch reads the flags register.

        Operands produced by older µ-ops map to the producer's destination bank;
        operands coming from architectural state map to ``architectural_bank``.
        """
        banks: list[int] = []
        if op.uop.vp_eligible:
            banks.append(op.dest_bank)
        if op.late_executed:
            for producer in op.producers:
                if producer is None:
                    banks.append(architectural_bank)
                else:
                    banks.append(producer.dest_bank)
        return banks
