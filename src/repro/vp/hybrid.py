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

from dataclasses import dataclass

from repro.bpu.history import GlobalHistory
from repro.vp.base import ValuePredictor, VPrediction
from repro.vp.confidence import PAPER_FPC_VECTOR
from repro.vp.stride import _MASK64, TwoDeltaStridePredictor
from repro.vp.vtage import VTAGEPredictor


@dataclass(slots=True)
class _HybridMeta:
    """Per-prediction context: the component lookups, for separate training.

    The component results are carried *flattened* (value/confidence/meta fields
    instead of per-component :class:`VPrediction` wrappers): the hybrid performs one
    lookup per VP-eligible µ-op, so avoiding two wrapper allocations per lookup is
    measurable on the simulator's fetch path.
    """

    vtage_value: int
    vtage_confident: bool
    vtage_meta: object
    stride_hit: bool
    stride_value: int
    stride_confident: bool
    chosen: str


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
    def predict(self, pc: int, history: GlobalHistory) -> VPrediction | None:
        vtage_value, vtage_confident, vtage_meta = self.vtage.lookup_parts(pc, history)
        stride_parts = self.stride.lookup_parts(pc, history)
        if stride_parts is None:
            stride_hit = stride_confident = False
            stride_value = 0
        else:
            stride_hit = True
            stride_value, stride_confident = stride_parts

        vtage_tagged_hit = vtage_meta.provider >= 0
        # Arbitration: a confident context-based (VTAGE) prediction wins, then a
        # confident computational (2D-Stride) one; with no confident component the
        # VTAGE tagged hit is preferred for training purposes, then the stride entry.
        if vtage_tagged_hit and vtage_confident:
            chosen, value, confident = "vtage", vtage_value, vtage_confident
        elif stride_confident:
            chosen, value, confident = "stride", stride_value, stride_confident
        elif vtage_confident:
            chosen, value, confident = "vtage", vtage_value, vtage_confident
        elif vtage_tagged_hit:
            chosen, value, confident = "vtage", vtage_value, vtage_confident
        elif stride_hit:
            chosen, value, confident = "stride", stride_value, stride_confident
        else:
            chosen, value, confident = "vtage", vtage_value, vtage_confident

        return VPrediction(
            value,
            confident,
            self.name,
            _HybridMeta(
                vtage_value,
                vtage_confident,
                vtage_meta,
                stride_hit,
                stride_value,
                stride_confident,
                chosen,
            ),
        )

    def train(self, pc: int, actual: int, prediction: VPrediction | None) -> None:
        if prediction is None or prediction.meta is None:
            self.vtage.train(pc, actual, None)
            self.stride.train(pc, actual, None)
            return
        meta: _HybridMeta = prediction.meta
        self.vtage.train_parts(pc, actual, meta.vtage_meta, meta.vtage_value)
        self.stride.train_parts(pc, actual, meta.stride_hit, meta.stride_value)

    def train_commit_group(
        self, group: list[tuple[int, int, VPrediction | None]]
    ) -> None:
        """Per-commit-group training with the wrapper layers flattened.

        One call per commit group replaces the per-µ-op
        ``validate_and_train -> record_outcome -> train -> train_parts`` chain;
        the outcome accounting is inlined and the component ``train_parts``
        methods are called directly, in the same per-item order (FPC draw
        sequences are unchanged).
        """
        stats = self.stats
        vtage_train = self.vtage.train_parts
        stride_train = self.stride.train_parts
        for pc, actual, prediction in group:
            if prediction is not None:
                # Inlined PredictorStatistics.record_outcome.
                if prediction.confident:
                    if prediction.value == actual:
                        stats.correct_used += 1
                    else:
                        stats.incorrect_used += 1
                elif prediction.value == actual:
                    stats.unused_correct += 1
                meta: _HybridMeta = prediction.meta
                if meta is not None:
                    vtage_train(pc, actual, meta.vtage_meta, meta.vtage_value)
                    stride_train(pc, actual, meta.stride_hit, meta.stride_value)
                    continue
            self.vtage.train(pc, actual, None)
            self.stride.train(pc, actual, None)

    def lookup(self, pc: int, history: GlobalHistory) -> VPrediction | None:
        """One-call fetch path: both component lookups, arbitration and the
        lookup accounting fused (bit-identical to ``predict`` + ``record_lookup``,
        which remain the reference implementations)."""
        vtage = self.vtage
        vtage_value, vtage_confident, vtage_meta = vtage.lookup_parts(pc, history)
        # Inlined TwoDeltaStridePredictor.lookup_parts (kept as the reference).
        stride = self.stride
        cached = stride._pc_cache.get(pc)
        if cached is None:
            parts = stride.lookup_parts(pc, history)
        else:
            index, tag = cached
            entry = stride._table[index]
            if entry is None or not entry.valid or entry.tag != tag:
                parts = None
            else:
                predicted = (entry.spec_last + entry.stride2) & _MASK64
                parts = (predicted, entry.confidence >= stride._saturation)
                entry.spec_last = predicted
                if not entry.spec_dirty:
                    entry.spec_dirty = True
                    stride._spec_dirty.append(entry)
                entry.inflight += 1
        if parts is None:
            stride_hit = stride_confident = False
            stride_value = 0
        else:
            stride_hit = True
            stride_value, stride_confident = parts

        if vtage_confident:
            if vtage_meta.provider >= 0 or not stride_confident:
                chosen, value, confident = "vtage", vtage_value, True
            else:
                chosen, value, confident = "stride", stride_value, True
        elif stride_confident:
            chosen, value, confident = "stride", stride_value, True
        elif vtage_meta.provider >= 0:
            chosen, value, confident = "vtage", vtage_value, False
        elif stride_hit:
            chosen, value, confident = "stride", stride_value, False
        else:
            chosen, value, confident = "vtage", vtage_value, False

        stats = self.stats
        stats.lookups += 1
        if confident:
            stats.confident_predictions += 1
            per_source = stats.per_source
            per_source[self.name] = per_source.get(self.name, 0) + 1
        return VPrediction(
            value,
            confident,
            self.name,
            _HybridMeta(
                vtage_value,
                vtage_confident,
                vtage_meta,
                stride_hit,
                stride_value,
                stride_confident,
                chosen,
            ),
        )

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
