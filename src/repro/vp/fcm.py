"""Finite Context Method (FCM) value predictor — Sazeides & Smith, 1997.

A classic context-based predictor: the first-level table records, per static µ-op, a
hash of its last ``order`` committed values; the second-level table maps that value
history to the next value.  It is not part of the paper's evaluated hybrid but is the
canonical context-based baseline cited in Section 2, so it is provided for predictor
comparison studies (``examples/predictor_comparison.py``) and ablation benchmarks.

Only committed state is used for prediction (no speculative value chain); this slightly
under-reports FCM coverage for tight loops, which is consistent with the difficulty the
paper attributes to predictors that require the previous value.
"""

from __future__ import annotations

from repro.bpu.history import GlobalHistory
from repro.errors import ConfigurationError
from repro.vp.base import ValuePredictor, VPrediction
from repro.vp.confidence import FPCPolicy, PAPER_FPC_VECTOR

_MASK64 = (1 << 64) - 1


def _mix(value: int) -> int:
    value &= _MASK64
    value ^= value >> 33
    value = (value * 0xFF51AFD7ED558CCD) & _MASK64
    return value ^ (value >> 29)


class FCMPredictor(ValuePredictor):
    """Order-``order`` FCM with FPC confidence on the second-level table."""

    name = "fcm"

    def __init__(
        self,
        first_level_entries: int = 8192,
        second_level_entries: int = 32768,
        order: int = 3,
        value_bits: int = 64,
        fpc_vector=PAPER_FPC_VECTOR,
        seed: int = 0xFC1133,
    ) -> None:
        super().__init__()
        for entries in (first_level_entries, second_level_entries):
            if entries <= 0 or entries & (entries - 1):
                raise ConfigurationError("FCM table sizes must be powers of two")
        if order <= 0:
            raise ConfigurationError("FCM order must be positive")
        self.first_level_entries = first_level_entries
        self.second_level_entries = second_level_entries
        self.order = order
        self.value_bits = value_bits
        self._l1_mask = first_level_entries - 1
        self._l2_mask = second_level_entries - 1
        self._policy = FPCPolicy(fpc_vector, seed=seed)
        # First level: the last ``order`` committed values of each static µ-op,
        # and the second-level index they hash to (``None`` until ``order``
        # values were seen), hashed once per training instead of per access.
        self._histories: list[tuple[int, ...]] = [()] * first_level_entries
        self._l2_indices: list[int | None] = [None] * first_level_entries
        # Second level: predicted value + confidence.
        self._values = [0] * second_level_entries
        self._confidence = [0] * second_level_entries
        self._valid = [False] * second_level_entries
        # First-level index per static PC — pure memoisation of the hash, consulted
        # twice per eligible µ-op (lookup at fetch, train at commit).
        self._l1_cache: dict[int, int] = {}
        self._saturation = self._policy.saturation

    # ------------------------------------------------------------------ interface
    def lookup(self, pc: int, history: GlobalHistory) -> VPrediction | None:
        stats = self.stats
        stats.lookups += 1
        l1 = self._l1_cache.get(pc)
        if l1 is None:
            l1 = self._l1_cache[pc] = _mix(pc) & self._l1_mask
        l2 = self._l2_indices[l1]
        if l2 is None or not self._valid[l2]:
            return None
        confident = self._confidence[l2] >= self._saturation
        if confident:
            stats.confident_predictions += 1
            stats.per_source[self.name] = stats.per_source.get(self.name, 0) + 1
        return VPrediction(self._values[l2], confident, self.name, meta=l2)

    def train(self, pc: int, actual: int, prediction: VPrediction | None) -> None:
        actual &= _MASK64
        l1 = self._l1_cache.get(pc)
        if l1 is None:
            l1 = self._l1_cache[pc] = _mix(pc) & self._l1_mask
        if prediction is not None and prediction.meta is not None:
            l2 = prediction.meta
        else:
            l2 = self._l2_indices[l1]
        if l2 is not None:
            if self._valid[l2]:
                if self._values[l2] == actual:
                    confidence = self._confidence[l2]
                    if confidence < self._saturation and self._policy.allows_increment(
                        confidence
                    ):
                        self._confidence[l2] = confidence + 1
                else:
                    self._confidence[l2] = 0
                    self._values[l2] = actual
            else:
                self._valid[l2] = True
                self._values[l2] = actual
                self._confidence[l2] = 0
        # Advance the committed value history window of this static µ-op.
        context = (self._histories[l1] + (actual,))[-self.order :]
        self._histories[l1] = context
        if len(context) == self.order:
            digest = 0
            for value in context:  # _mix(digest * 3 + value), chained
                value = (digest * 3 + value) & _MASK64
                value ^= value >> 33
                value = (value * 0xFF51AFD7ED558CCD) & _MASK64
                digest = value ^ (value >> 29)
            self._l2_indices[l1] = digest & self._l2_mask

    def storage_bits(self) -> int:
        first_level = self.first_level_entries * 16  # folded history hash per PC
        second_level = self.second_level_entries * (self.value_bits + 3 + 1)
        return first_level + second_level
