"""Last-Value Predictor (LVP) — Lipasti et al., 1996.

Predicts that an instruction will produce the same value as its previous dynamic
instance.  Included both as a historical baseline and as the building block of the
VTAGE base component.
"""

from __future__ import annotations

from repro.bpu.history import GlobalHistory
from repro.errors import ConfigurationError
from repro.vp.base import ValuePredictor, VPrediction
from repro.vp.confidence import FPCPolicy, PAPER_FPC_VECTOR

_MASK64 = (1 << 64) - 1


def _mix_pc(pc: int) -> int:
    """Cheap deterministic PC hash used to index the prediction tables."""
    pc &= _MASK64
    pc ^= pc >> 17
    pc = (pc * 0x9E3779B97F4A7C15) & _MASK64
    return pc ^ (pc >> 31)


class LastValuePredictor(ValuePredictor):
    """A tagged last-value table guarded by FPC confidence counters."""

    name = "lvp"

    def __init__(
        self,
        entries: int = 8192,
        tag_bits: int = 12,
        value_bits: int = 64,
        fpc_vector=PAPER_FPC_VECTOR,
        seed: int = 0xA11CE,
    ) -> None:
        super().__init__()
        if entries <= 0 or entries & (entries - 1):
            raise ConfigurationError("LVP entry count must be a positive power of two")
        self.entries = entries
        self.tag_bits = tag_bits
        self.value_bits = value_bits
        self._index_mask = entries - 1
        self._tag_mask = (1 << tag_bits) - 1
        self._policy = FPCPolicy(fpc_vector, seed=seed)
        self._tags = [0] * entries
        self._values = [0] * entries
        self._confidence = [0] * entries
        self._valid = [False] * entries
        # (index, tag) per static PC — pure memoisation of the two hash formulas,
        # consulted twice per eligible µ-op (lookup at fetch, train at commit).
        self._pc_cache: dict[int, tuple[int, int]] = {}
        self._saturation = self._policy.saturation

    # ------------------------------------------------------------------ indexing
    def _index_and_tag(self, pc: int) -> tuple[int, int]:
        """Hash ``pc`` into ``(index, tag)`` and memoise it in ``_pc_cache``."""
        cached = self._pc_cache[pc] = (
            _mix_pc(pc) & self._index_mask,
            (_mix_pc(pc * 31 + 17) >> 7) & self._tag_mask,
        )
        return cached

    # ------------------------------------------------------------------ interface
    def lookup(self, pc: int, history: GlobalHistory) -> VPrediction | None:
        stats = self.stats
        stats.lookups += 1
        cached = self._pc_cache.get(pc)
        if cached is None:
            cached = self._index_and_tag(pc)
        index, tag = cached
        if not self._valid[index] or self._tags[index] != tag:
            return None
        confident = self._confidence[index] >= self._saturation
        if confident:
            stats.confident_predictions += 1
            stats.per_source[self.name] = stats.per_source.get(self.name, 0) + 1
        return VPrediction(self._values[index], confident, self.name)

    def train(self, pc: int, actual: int, prediction: VPrediction | None) -> None:
        cached = self._pc_cache.get(pc)
        if cached is None:
            cached = self._index_and_tag(pc)
        index, tag = cached
        actual &= _MASK64
        if self._valid[index] and self._tags[index] == tag:
            if self._values[index] == actual:
                confidence = self._confidence[index]
                if confidence < self._saturation and self._policy.allows_increment(
                    confidence
                ):
                    self._confidence[index] = confidence + 1
            else:
                self._confidence[index] = 0
                self._values[index] = actual
        else:
            self._valid[index] = True
            self._tags[index] = tag
            self._values[index] = actual
            self._confidence[index] = 0

    def storage_bits(self) -> int:
        per_entry = self.tag_bits + self.value_bits + 3 + 1
        return self.entries * per_entry
