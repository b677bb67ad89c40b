"""The VTAGE-2DStride hybrid value predictor evaluated throughout the EOLE paper.

The hybrid combines a computational component (2-Delta Stride) with a context-based
component (VTAGE), following Table 2 and Section 4.2:

* VTAGE provides the prediction whenever one of its *tagged* components hits (the tag
  match means the global-branch-history context is recognised);
* otherwise the 2-Delta Stride component provides the prediction;
* the confidence of the providing component alone decides whether the prediction is
  used (each component carries its own Forward Probabilistic Counters);
* both components are trained at commit with the architectural value.
"""

from __future__ import annotations

from repro.bpu.history import GlobalHistory
from repro.vp.base import ValuePredictor, VPrediction
from repro.vp.confidence import PAPER_FPC_VECTOR
from repro.vp.stride import TwoDeltaStridePredictor
from repro.vp.vtage import VTAGEPredictor


class VTAGE2DStrideHybrid(ValuePredictor):
    """The paper's hybrid predictor (Table 2): VTAGE + 2D-Stride, FPC confidence."""

    name = "vtage-2dstride"

    def __init__(
        self,
        vtage: VTAGEPredictor | None = None,
        stride: TwoDeltaStridePredictor | None = None,
        fpc_vector=PAPER_FPC_VECTOR,
        seed: int = 0xE01E,
    ) -> None:
        super().__init__()
        self.vtage = vtage if vtage is not None else VTAGEPredictor(
            fpc_vector=fpc_vector, seed=seed ^ 0x1
        )
        self.stride = stride if stride is not None else TwoDeltaStridePredictor(
            fpc_vector=fpc_vector, seed=seed ^ 0x2
        )

    # ------------------------------------------------------------------ interface
    def lookup(self, pc: int, history: GlobalHistory) -> VPrediction | None:
        """Both component lookups, the arbitration and the lookup accounting.

        The prediction's ``meta`` is the record ``(chosen, vtage_record,
        stride_value)``: the arbitration winner (``"vtage"`` or ``"stride"``), the
        VTAGE lookup record, and the 2D-Stride value (``None`` on a stride miss).
        """
        vtage_record = self.vtage.lookup_parts(pc, history)
        stride_parts = self.stride.lookup_parts(pc)
        vtage_value = vtage_record[0]
        vtage_tagged_hit = vtage_record[2] >= 0
        if stride_parts is None:
            stride_value = None
            stride_confident = False
        else:
            stride_value, stride_confident = stride_parts
        # Arbitration: a confident context-based (VTAGE) prediction wins when it comes
        # from a tagged hit or the stride is not confident; then a confident
        # computational (2D-Stride) one.  With no confident component the VTAGE tagged
        # hit is preferred for training purposes, then the stride entry.
        if vtage_record[1] and (vtage_tagged_hit or not stride_confident):
            chosen, value, confident = "vtage", vtage_value, True
        elif stride_confident:
            chosen, value, confident = "stride", stride_value, True
        elif vtage_tagged_hit or stride_value is None:
            chosen, value, confident = "vtage", vtage_value, False
        else:
            chosen, value, confident = "stride", stride_value, False
        stats = self.stats
        stats.lookups += 1
        if confident:
            stats.confident_predictions += 1
            stats.per_source[self.name] = stats.per_source.get(self.name, 0) + 1
        return VPrediction(value, confident, self.name, (chosen, vtage_record, stride_value))

    def train(self, pc: int, actual: int, prediction: VPrediction | None) -> None:
        record = None if prediction is None else prediction.meta
        if record is None:
            self.vtage.train_parts(pc, actual, None)
            self.stride.train_parts(pc, actual, None)
        else:
            self.vtage.train_parts(pc, actual, record[1])
            self.stride.train_parts(pc, actual, record[2])

    def train_commit_group(
        self, group: list[tuple[int, int, VPrediction | None]]
    ) -> None:
        """Per-commit-group training calling the component walks directly.

        Same per-item order, outcome accounting and component calls as
        :meth:`validate_and_train` without its :meth:`train` frame (FPC draw
        sequences are unchanged).
        """
        stats = self.stats
        vtage_train = self.vtage.train_parts
        stride_train = self.stride.train_parts
        for pc, actual, prediction in group:
            if prediction is None:
                vtage_train(pc, actual, None)
                stride_train(pc, actual, None)
                continue
            if prediction.confident:
                if prediction.value == actual:
                    stats.correct_used += 1
                else:
                    stats.incorrect_used += 1
            elif prediction.value == actual:
                stats.unused_correct += 1
            _, vtage_record, stride_value = prediction.meta
            vtage_train(pc, actual, vtage_record)
            stride_train(pc, actual, stride_value)

    def recover(self) -> None:
        self.vtage.recover()
        self.stride.recover()

    def storage_bits(self) -> int:
        return self.vtage.storage_bits() + self.stride.storage_bits()


def default_paper_predictor(
    seed: int = 0xE01E, fpc_vector=PAPER_FPC_VECTOR
) -> VTAGE2DStrideHybrid:
    """The hybrid predictor with the paper's Table 2 sizing."""
    return VTAGE2DStrideHybrid(
        vtage=VTAGEPredictor(
            base_entries=8192,
            tagged_entries=1024,
            num_components=6,
            tag_bits=12,
            fpc_vector=fpc_vector,
            seed=seed ^ 0x1,
        ),
        stride=TwoDeltaStridePredictor(
            entries=8192, tag_bits=51, fpc_vector=fpc_vector, seed=seed ^ 0x2
        ),
        seed=seed,
    )
