"""Computational value predictors: Stride and 2-Delta Stride.

The 2-Delta Stride predictor (Eickemeyer & Vassiliadis, 1993) is the computational half
of the paper's VTAGE-2DStride hybrid (Table 2: 8192 entries, full 51-bit tags in the
original — we model full tags as "no aliasing").

Because stride predictors need the *previous* value of an instruction to predict the
current one, multiple in-flight instances of the same static µ-op must chain
speculatively.  We keep a speculative last value per entry, advance it at prediction
time, and fall back to the committed last value after a pipeline squash (see
:meth:`StridePredictor.recover`).  This mirrors the in-flight tracking the paper points
out as a burden of computational predictors (Section 2, "Value Prediction").
"""

from __future__ import annotations

from repro.bpu.history import GlobalHistory
from repro.errors import ConfigurationError
from repro.vp.base import ValuePredictor, VPrediction
from repro.vp.confidence import FPCPolicy, PAPER_FPC_VECTOR

_MASK64 = (1 << 64) - 1


def _mix_pc(pc: int) -> int:
    pc &= _MASK64
    pc ^= pc >> 15
    pc = (pc * 0xBF58476D1CE4E5B9) & _MASK64
    return pc ^ (pc >> 29)


class _StrideEntry:
    """One stride-table entry (committed state plus the speculative chain)."""

    __slots__ = ("tag", "last_value", "stride1", "stride2", "confidence",
                 "spec_last", "inflight", "spec_dirty")

    def __init__(self) -> None:
        self.tag = 0
        self.last_value = 0
        self.stride1 = 0  # most recently observed delta
        self.stride2 = 0  # confirmed delta used for prediction
        self.confidence = 0
        self.spec_last = 0
        self.inflight = 0
        # True while the entry sits on the predictor's ``_spec_dirty`` list, so a
        # chain that drains and restarts between squashes is not appended twice.
        self.spec_dirty = False


class StridePredictor(ValuePredictor):
    """Classic single-delta stride predictor."""

    name = "stride"
    #: Number of distinct deltas that must agree before the prediction delta changes.
    two_delta = False

    def __init__(
        self,
        entries: int = 8192,
        tag_bits: int = 51,
        value_bits: int = 64,
        stride_bits: int = 64,
        fpc_vector=PAPER_FPC_VECTOR,
        seed: int = 0x5712DE,
    ) -> None:
        super().__init__()
        if entries <= 0 or entries & (entries - 1):
            raise ConfigurationError("stride predictor entry count must be a power of two")
        self.entries = entries
        self.tag_bits = tag_bits
        self.value_bits = value_bits
        self.stride_bits = stride_bits
        self._index_mask = entries - 1
        self._tag_mask = (1 << tag_bits) - 1
        self._policy = FPCPolicy(fpc_vector, seed=seed)
        # Entries are allocated lazily on first training: a ``None`` slot is the
        # only invalid entry (the valid bit ``storage_bits`` counts), and the
        # synthetic kernels touch a small fraction of the 8K-entry table, so eager
        # construction would dominate predictor set-up time.
        self._table: list[_StrideEntry | None] = [None] * entries
        # (index, tag) per static PC — pure memoisation of the two hash formulas,
        # consulted twice per eligible µ-op (lookup at fetch, train at commit).
        self._pc_cache: dict[int, tuple[int, int]] = {}
        # Entries whose speculative chain may have advanced past the committed
        # value since the last squash: exactly the entries :meth:`recover` must
        # repair.  Appended when ``inflight`` leaves zero, so recovery walks the
        # handful of live chains instead of the whole table.
        self._spec_dirty: list[_StrideEntry] = []
        self._saturation = self._policy.saturation

    # ------------------------------------------------------------------ indexing
    def _index_and_tag(self, pc: int) -> tuple[int, int]:
        """Hash ``pc`` into ``(index, tag)`` and memoise it in ``_pc_cache``."""
        cached = self._pc_cache[pc] = (_mix_pc(pc) & self._index_mask, pc & self._tag_mask)
        return cached

    # ------------------------------------------------------------------ interface
    def lookup(self, pc: int, history: GlobalHistory) -> VPrediction | None:
        stats = self.stats
        stats.lookups += 1
        parts = self.lookup_parts(pc)
        if parts is None:
            return None
        value, confident = parts
        if confident:
            stats.confident_predictions += 1
            stats.per_source[self.name] = stats.per_source.get(self.name, 0) + 1
        return VPrediction(value, confident, self.name)

    def lookup_parts(self, pc: int) -> tuple[int, bool] | None:
        """The fetch-side table walk, shared by :meth:`lookup` and the hybrid.

        Returns ``(value, confident)`` on a table hit, advancing the speculative
        chain, and ``None`` on a miss.  No statistics are accounted.
        """
        cached = self._pc_cache.get(pc)
        if cached is None:
            cached = self._index_and_tag(pc)
        index, tag = cached
        entry = self._table[index]
        if entry is None or entry.tag != tag:
            return None
        predicted = (entry.spec_last + entry.stride2) & _MASK64
        # Advance the speculative chain so back-to-back instances predict correctly.
        entry.spec_last = predicted
        if not entry.spec_dirty:
            entry.spec_dirty = True
            self._spec_dirty.append(entry)
        entry.inflight += 1
        return predicted, entry.confidence >= self._saturation

    def train(self, pc: int, actual: int, prediction: VPrediction | None) -> None:
        self.train_parts(pc, actual, None if prediction is None else prediction.value)

    def train_parts(self, pc: int, actual: int, predicted: int | None) -> None:
        """The commit-side table walk; ``predicted`` is the fetched value, ``None`` on a miss."""
        actual &= _MASK64
        cached = self._pc_cache.get(pc)
        if cached is None:
            cached = self._index_and_tag(pc)
        index, tag = cached
        entry = self._table[index]
        if entry is not None and entry.tag == tag:
            delta = (actual - entry.last_value) & _MASK64
            if predicted is None:
                predicted = (entry.last_value + entry.stride2) & _MASK64
            correct = predicted == actual
            if correct:
                if entry.confidence < self._saturation and self._policy.allows_increment(
                    entry.confidence
                ):
                    entry.confidence += 1
            else:
                entry.confidence = 0
            if self.two_delta:
                if delta == entry.stride1:
                    entry.stride2 = delta
                entry.stride1 = delta
            else:
                entry.stride2 = delta
                entry.stride1 = delta
            entry.last_value = actual
            if entry.inflight > 0:
                entry.inflight -= 1
            if entry.inflight == 0:
                entry.spec_last = actual
            elif not correct:
                # Repair the speculative chain: the in-flight predictions made from the
                # stale chain are already known wrong, so re-extrapolate the speculative
                # last value from the architectural value for the instances still in
                # flight (the HPCA'14 predictor repairs its speculative window the same
                # way once validation exposes a misprediction).
                entry.spec_last = (actual + entry.stride2 * entry.inflight) & _MASK64
        else:
            if entry is None:
                entry = _StrideEntry()
                self._table[index] = entry
            entry.tag = tag
            entry.last_value = actual
            entry.spec_last = actual
            entry.stride1 = 0
            entry.stride2 = 0
            entry.confidence = 0
            entry.inflight = 0

    def recover(self) -> None:
        """Collapse every speculative chain back onto the committed last value.

        Walks only the entries whose chain advanced since the last squash
        (``_spec_dirty``), not the whole table; entries whose in-flight count
        already drained back to zero are skipped, exactly like the full-table
        reference walk would.
        """
        dirty = self._spec_dirty
        if not dirty:
            return
        for entry in dirty:
            entry.spec_dirty = False
            if entry.inflight:
                entry.inflight = 0
                entry.spec_last = entry.last_value
        dirty.clear()

    def storage_bits(self) -> int:
        per_entry = self.tag_bits + self.value_bits + self.stride_bits + 3 + 1
        return self.entries * per_entry


class TwoDeltaStridePredictor(StridePredictor):
    """2-Delta Stride predictor: the prediction delta only changes once confirmed twice.

    This filters transient delta changes (e.g. loop exits) and is the computational
    component used by the paper's hybrid (Table 2, "2D-Stride").
    """

    name = "2dstride"
    two_delta = True

    def storage_bits(self) -> int:
        # Two stride fields instead of one.
        per_entry = self.tag_bits + self.value_bits + 2 * self.stride_bits + 3 + 1
        return self.entries * per_entry
