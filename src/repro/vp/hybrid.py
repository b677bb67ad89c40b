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
from repro.vp.base import ValuePredictor
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
        # The hybrid accounts each µ-op once; its components' walks count nothing.
        self.vtage.stats = self.stride.stats = None

    # ------------------------------------------------------------------ interface
    def lookup(self, pc: int, history: GlobalHistory) -> tuple:
        """Both component walks, the arbitration and the lookup accounting.

        Returns the record ``(value, confident, vtage_record, stride_record)``:
        the arbitrated prediction, then the two component records (the stride
        one is ``None`` on a 2D-Stride miss).
        """
        vtage_record = self.vtage.lookup(pc, history)
        stride_record = self.stride.lookup(pc, history)
        vtage_tagged_hit = vtage_record[2] >= 0
        stride_confident = stride_record is not None and stride_record[1]
        # Arbitration: a confident context-based (VTAGE) prediction wins when it comes
        # from a tagged hit or the stride is not confident; then a confident
        # computational (2D-Stride) one.  With no confident component the VTAGE tagged
        # hit is preferred for training purposes, then the stride entry.
        if vtage_record[1] and (vtage_tagged_hit or not stride_confident):
            value, confident = vtage_record[0], True
        elif stride_confident:
            value, confident = stride_record[0], True
        elif vtage_tagged_hit or stride_record is None:
            value, confident = vtage_record[0], False
        else:
            value, confident = stride_record[0], False
        stats = self.stats
        stats.lookups += 1
        if confident:
            stats.confident_predictions += 1
        return value, confident, vtage_record, stride_record

    def train(self, pc: int, actual: int, record: tuple | None) -> bool:
        """Account the arbitrated outcome, then train both components."""
        correct = True
        if record is None:
            vtage_record = stride_record = None
        else:
            value, confident, vtage_record, stride_record = record
            if confident:
                if value == actual:
                    self.stats.correct_used += 1
                else:
                    self.stats.incorrect_used += 1
                    correct = False
            elif value == actual:
                self.stats.unused_correct += 1
        self.vtage.train(pc, actual, vtage_record)
        self.stride.train(pc, actual, stride_record)
        return correct

    validate_and_train = train

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
