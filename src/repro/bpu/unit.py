"""The front-end branch prediction unit: TAGE + BTB + RAS + global history.

The timing pipeline calls :meth:`BranchPredictionUnit.predict` once per fetched
control-flow µ-op.  Because the simulator is trace-driven (correct path only), the unit
immediately knows the actual outcome and returns a :class:`BranchOutcome` describing
*how* the branch would have been handled:

* correctly predicted — no penalty;
* direction/target misprediction — resolved when the branch executes (OoO engine) or,
  for very-high-confidence conditional branches under EOLE, at the Late-Execution stage;
* BTB miss on a direct branch — resolved at decode (short front-end redirect).

The global history is updated with the actual direction of conditional branches, which
models a machine with perfect history repair on mispredictions (see DESIGN.md §5).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.bpu.btb import BranchTargetBuffer, ReturnAddressStack
from repro.bpu.history import GlobalHistory
from repro.bpu.tage import TAGEBranchPredictor, TAGEPrediction
from repro.isa.microop import MicroOp
from repro.isa.opcode import OpClass

# The classes predict() dispatches on, bound once: loading an enum member costs
# a few hundred ns per use, and predict() runs once per fetched branch.
_BR_COND = OpClass.BR_COND
_BR_DIRECT = OpClass.BR_DIRECT
_CALL = OpClass.CALL
_RET = OpClass.RET


@dataclass(slots=True)
class BranchOutcome:
    """Prediction record for one dynamic control-flow µ-op."""

    predicted_taken: bool
    predicted_target: int | None
    actual_taken: bool
    actual_target: int
    high_confidence: bool
    direction_mispredicted: bool
    target_mispredicted: bool
    resolved_at_decode: bool
    tage: TAGEPrediction | None = None

    @property
    def mispredicted(self) -> bool:
        """True if the branch requires a fetch redirect at resolution time."""
        return self.direction_mispredicted or self.target_mispredicted


class BranchPredictionUnit:
    """TAGE + BTB + RAS, sharing one global history register."""

    def __init__(
        self,
        tage: TAGEBranchPredictor | None = None,
        btb: BranchTargetBuffer | None = None,
        ras: ReturnAddressStack | None = None,
        history: GlobalHistory | None = None,
    ) -> None:
        self.tage = tage if tage is not None else TAGEBranchPredictor()
        self.btb = btb if btb is not None else BranchTargetBuffer()
        self.ras = ras if ras is not None else ReturnAddressStack()
        self.history = history if history is not None else GlobalHistory()

    # ------------------------------------------------------------------ prediction
    def predict(self, pc: int, uop: MicroOp, taken: int, next_pc: int) -> BranchOutcome:
        """Predict the control-flow µ-op ``uop`` at ``pc`` and update front-end state.

        ``taken`` (a truth value) and ``next_pc`` are the branch's outcome in the
        committed trace.
        """
        opclass = uop.opclass
        if opclass is _BR_COND:
            return self._predict_conditional(pc, taken, next_pc)
        if opclass is _BR_DIRECT or opclass is _CALL:
            return self._predict_direct(pc, next_pc, is_call=opclass is _CALL)
        if opclass is _RET:
            return self._predict_return(next_pc)
        return self._predict_indirect(pc, next_pc)

    def _predict_conditional(
        self, pc: int, actual_taken: int, actual_target: int
    ) -> BranchOutcome:
        tage_prediction = self.tage.predict(pc, self.history)
        predicted_taken = tage_prediction.taken
        predicted_target: int | None = None
        resolved_at_decode = False
        if predicted_taken:
            predicted_target = self.btb.lookup(pc)
            if predicted_target is None and actual_taken:
                # Direct branch: the target becomes known at decode.
                resolved_at_decode = True
        direction_mispredicted = predicted_taken != actual_taken
        target_mispredicted = (
            not direction_mispredicted
            and actual_taken
            and predicted_target is not None
            and predicted_target != actual_target
        )
        if actual_taken:
            self.btb.update(pc, actual_target)
        self.history.push(actual_taken)
        return BranchOutcome(
            predicted_taken=predicted_taken,
            predicted_target=predicted_target,
            actual_taken=actual_taken,
            actual_target=actual_target,
            high_confidence=tage_prediction.high_confidence,
            direction_mispredicted=direction_mispredicted,
            target_mispredicted=target_mispredicted,
            resolved_at_decode=resolved_at_decode,
            tage=tage_prediction,
        )

    def _predict_direct(self, pc: int, actual_target: int, is_call: bool) -> BranchOutcome:
        predicted_target = self.btb.lookup(pc)
        resolved_at_decode = predicted_target is None or predicted_target != actual_target
        self.btb.update(pc, actual_target)
        if is_call:
            self.ras.push(pc + 1)
        return BranchOutcome(
            predicted_taken=True,
            predicted_target=predicted_target,
            actual_taken=True,
            actual_target=actual_target,
            high_confidence=False,
            direction_mispredicted=False,
            target_mispredicted=False,
            resolved_at_decode=resolved_at_decode,
        )

    def _predict_return(self, actual_target: int) -> BranchOutcome:
        predicted_target = self.ras.pop()
        target_mispredicted = predicted_target != actual_target
        return BranchOutcome(
            predicted_taken=True,
            predicted_target=predicted_target,
            actual_taken=True,
            actual_target=actual_target,
            high_confidence=False,
            direction_mispredicted=False,
            target_mispredicted=target_mispredicted,
            resolved_at_decode=False,
        )

    def _predict_indirect(self, pc: int, actual_target: int) -> BranchOutcome:
        predicted_target = self.btb.lookup(pc)
        target_mispredicted = predicted_target != actual_target
        self.btb.update(pc, actual_target)
        return BranchOutcome(
            predicted_taken=True,
            predicted_target=predicted_target,
            actual_taken=True,
            actual_target=actual_target,
            high_confidence=False,
            direction_mispredicted=False,
            target_mispredicted=target_mispredicted,
            resolved_at_decode=False,
        )

    # ------------------------------------------------------------------ training
    def train(self, pc: int, outcome: BranchOutcome) -> None:
        """Commit-time training of the conditional-branch predictor."""
        if outcome.tage is not None:
            self.tage.update(pc, outcome.actual_taken, outcome.tage)

    def train_commit_group(self, group: list[tuple[int, "BranchOutcome"]]) -> None:
        """Train one commit group of ``(pc, outcome)`` conditional branches.

        One call per commit group amortises the per-branch wrapper overhead; the
        per-item TAGE update order is the commit order, exactly as with
        :meth:`train` per µ-op.
        """
        update = self.tage.update
        for pc, outcome in group:
            if outcome.tage is not None:
                update(pc, outcome.actual_taken, outcome.tage)

    # Kept only because perfbench/spans.py wraps it by name.
    def train_commit_group_columns(self, pcs, outcomes) -> None:
        self.train_commit_group(zip(pcs, outcomes))
