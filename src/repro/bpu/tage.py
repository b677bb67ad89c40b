"""TAGE conditional branch predictor with storage-free confidence estimation.

The baseline machine of the paper (Table 1) uses a TAGE predictor with 1 bimodal + 12
tagged components.  EOLE additionally relies on Seznec's storage-free confidence
estimation (HPCA 2011): predictions whose providing counter is *saturated* are "very
high confidence" and exhibit misprediction rates well below 0.5%, which is what allows
their resolution to be delayed until the Late-Execution stage (Section 3.3).

This implementation is a faithful, parameterisable TAGE: bimodal base predictor, tagged
components indexed with geometrically increasing global-history lengths, useful
counters, TAGE-style allocation on mispredictions, and a use-alt-on-newly-allocated
policy.  Scaled-down table sizes are used by default to match the reduced footprint of
the synthetic workloads; the named pipeline configurations size it up.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.bpu.history import FoldedRegisterFile, GlobalHistory, fold_bits
from repro.errors import ConfigurationError
from repro.vp.confidence import DeterministicRandom
from repro.vp.vtage import geometric_history_lengths

_MASK64 = (1 << 64) - 1


def _mix(value: int) -> int:
    value &= _MASK64
    value ^= value >> 33
    value = (value * 0xC2B2AE3D27D4EB4F) & _MASK64
    return value ^ (value >> 29)


@dataclass(slots=True)
class TAGEPrediction:
    """Outcome of a TAGE lookup, carried until branch resolution/commit for training.

    Non-provider component indices/tags are not materialised at lookup time: ``folds``
    snapshots the incremental folded-history registers (the live registers advance
    with every branch), and commit-time allocation re-derives from it exactly the
    indices/tags the lookup would have computed for the components it touches.
    """

    taken: bool
    high_confidence: bool
    provider: int  # -1 = bimodal, else tagged component rank
    provider_counter: int
    provider_index: int
    alt_taken: bool
    pc: int
    folds: tuple
    bimodal_index: int
    #: Raw history bits at lookup time.  The fold snapshot holds ``None`` for
    #: components whose lazily-activated register was still dormant; consumers
    #: re-fold those from ``bits`` (provably equal to what the register held).
    bits: int = 0


class _TageEntry:
    __slots__ = ("tag", "counter", "useful", "valid")

    def __init__(self) -> None:
        self.tag = 0
        self.counter = 4  # weakly taken (3-bit counter, 0..7)
        self.useful = 0
        self.valid = False


class TAGEBranchPredictor:
    """TAGE with per-prediction confidence classification."""

    #: counter value at or above which the prediction is "taken"
    _TAKEN_THRESHOLD = 4
    _COUNTER_MAX = 7
    _USEFUL_MAX = 3

    def __init__(
        self,
        bimodal_entries: int = 8192,
        tagged_entries: int = 1024,
        num_components: int = 12,
        tag_bits: int = 11,
        min_history: int = 4,
        max_history: int = 256,
        useful_reset_period: int = 1 << 18,
        seed: int = 0x7A9E,
    ) -> None:
        for entries in (bimodal_entries, tagged_entries):
            if entries <= 0 or entries & (entries - 1):
                raise ConfigurationError("TAGE table sizes must be powers of two")
        self.bimodal_entries = bimodal_entries
        self.tagged_entries = tagged_entries
        self.num_components = num_components
        self.tag_bits = tag_bits
        self.history_lengths = geometric_history_lengths(min_history, max_history, num_components)
        self.useful_reset_period = useful_reset_period
        self._bimodal_mask = bimodal_entries - 1
        self._tagged_mask = tagged_entries - 1
        self._index_width = self._tagged_mask.bit_length()
        self._tag_mask = (1 << tag_bits) - 1
        # Lookup memoisation, mirroring VTAGE: the PC hash mixes are static, and the
        # folded history lives in incrementally-maintained registers attached to the
        # GlobalHistory itself (updated in O(1) per pushed branch outcome, restored
        # from snapshots on squash) — one register per component index plus one per
        # component tag, concatenated into a single file.
        self._pc_mix_cache: dict[int, tuple[tuple[int, ...], tuple[int, ...], int]] = {}
        self._fold_widths = [self._index_width] * num_components + [tag_bits] * num_components
        self._fold_registers: FoldedRegisterFile | None = None
        self._bimodal = [2] * bimodal_entries  # 2-bit counters, 0..3, weakly not-taken=1
        # Entries are allocated lazily on first allocation: a ``None`` slot behaves
        # exactly like a never-allocated entry (``valid`` False, ``useful`` 0).  The
        # per-component entry counts let lookups skip entirely-empty components.
        self._components: list[list[_TageEntry | None]] = [
            [None] * tagged_entries for _ in range(num_components)
        ]
        self._component_sizes = [0] * num_components
        self._random = DeterministicRandom(seed)
        self._use_alt_on_na = 8  # 4-bit counter, >=8 means "use alt for new entries"
        self._branches_seen = 0
        # Statistics.
        self.lookups = 0
        self.mispredictions = 0
        self.high_confidence_lookups = 0
        self.high_confidence_mispredictions = 0

    # ------------------------------------------------------------------ indexing
    def _tagged_index(self, pc: int, history: GlobalHistory, rank: int) -> int:
        folded = history.fold(self.history_lengths[rank], self._tagged_mask.bit_length())
        return (_mix(pc + rank * 0x9E37) ^ folded) & self._tagged_mask

    def _tagged_tag(self, pc: int, history: GlobalHistory, rank: int) -> int:
        folded = history.fold(self.history_lengths[rank], self.tag_bits)
        return (_mix(pc * 3 + rank * 7 + 5) ^ folded) & ((1 << self.tag_bits) - 1)

    # ------------------------------------------------------------------ memoisation
    def _pc_mixes(self, pc: int) -> tuple[tuple[int, ...], tuple[int, ...], int]:
        """The PC-dependent halves of every index/tag hash, plus the bimodal index."""
        cached = self._pc_mix_cache.get(pc)
        if cached is None:
            index_mixes = tuple(
                _mix(pc + rank * 0x9E37) for rank in range(self.num_components)
            )
            tag_mixes = tuple(
                _mix(pc * 3 + rank * 7 + 5) for rank in range(self.num_components)
            )
            cached = (index_mixes, tag_mixes, _mix(pc) & self._bimodal_mask)
            self._pc_mix_cache[pc] = cached
        return cached

    def _folds(self, history: GlobalHistory) -> list[int]:
        """The incremental folded registers for ``history`` (attached on first use).

        Index folds occupy ``[0, num_components)``, tag folds occupy
        ``[num_components, 2 * num_components)``.
        """
        registers = self._fold_registers
        if registers is None or registers.history is not history:
            registers = history.folded_registers(
                self.history_lengths + self.history_lengths, self._fold_widths,
                lazy=True,
            )
            self._fold_registers = registers
        return registers.folds

    # ------------------------------------------------------------------ prediction
    def predict(self, pc: int, history: GlobalHistory) -> TAGEPrediction:
        """Predict the direction of the conditional branch at ``pc``."""
        self.lookups += 1
        index_mixes, tag_mixes, bimodal_index = self._pc_mixes(pc)
        folds = self._folds(history)
        num_components = self.num_components
        tagged_mask = self._tagged_mask
        tag_mask = self._tag_mask
        components = self._components
        sizes = self._component_sizes
        provider = -1
        provider_index = 0
        provider_entry: _TageEntry | None = None
        alt_entry: _TageEntry | None = None
        for rank in range(num_components):
            # Empty components cannot hit; the hash is skipped entirely (allocation
            # re-derives it from the prediction's fold snapshot when needed).  Tags
            # are only hashed for slots that actually hold an entry.
            if not sizes[rank]:
                continue
            index = (index_mixes[rank] ^ folds[rank]) & tagged_mask
            entry = components[rank][index]
            if entry is not None and entry.valid:
                tag = (tag_mixes[rank] ^ folds[num_components + rank]) & tag_mask
                if entry.tag == tag:
                    alt_entry = provider_entry
                    provider = rank
                    provider_index = index
                    provider_entry = entry

        bimodal_taken = self._bimodal[bimodal_index] >= 2

        if alt_entry is not None:
            alt_taken = alt_entry.counter >= self._TAKEN_THRESHOLD
        else:
            alt_taken = bimodal_taken

        if provider_entry is not None:
            provider_counter = provider_entry.counter
            taken = provider_counter >= self._TAKEN_THRESHOLD
            newly_allocated = provider_entry.useful == 0 and provider_counter in (3, 4)
            if newly_allocated and self._use_alt_on_na >= 8:
                taken = alt_taken
            saturated = provider_counter in (0, self._COUNTER_MAX)
            high_confidence = saturated and not newly_allocated
        else:
            provider_counter = self._bimodal[bimodal_index]
            taken = bimodal_taken
            high_confidence = provider_counter in (0, 3)

        prediction = TAGEPrediction(
            taken=taken,
            high_confidence=high_confidence,
            provider=provider,
            provider_counter=provider_counter,
            provider_index=provider_index,
            alt_taken=alt_taken,
            pc=pc,
            folds=self._fold_registers.folds_tuple(),
            bimodal_index=bimodal_index,
            bits=history._bits,
        )
        if high_confidence:
            self.high_confidence_lookups += 1
        return prediction

    # ------------------------------------------------------------------ update
    def _update_counter(self, value: int, taken: bool, maximum: int) -> int:
        if taken:
            return min(maximum, value + 1)
        return max(0, value - 1)

    def update(self, pc: int, taken: bool, prediction: TAGEPrediction) -> None:
        """Train the predictor with the resolved outcome of a conditional branch."""
        self._branches_seen += 1
        mispredicted = prediction.taken != taken
        if mispredicted:
            self.mispredictions += 1
            if prediction.high_confidence:
                self.high_confidence_mispredictions += 1

        if prediction.provider >= 0:
            rank = prediction.provider
            entry = self._components[rank][prediction.provider_index]
            provider_pred = prediction.provider_counter >= self._TAKEN_THRESHOLD
            # use-alt-on-newly-allocated bookkeeping.
            newly_allocated = entry.useful == 0 and prediction.provider_counter in (3, 4)
            if newly_allocated and provider_pred != prediction.alt_taken:
                if provider_pred == taken:
                    self._use_alt_on_na = max(0, self._use_alt_on_na - 1)
                else:
                    self._use_alt_on_na = min(15, self._use_alt_on_na + 1)
            entry.counter = self._update_counter(entry.counter, taken, self._COUNTER_MAX)
            if provider_pred != prediction.alt_taken:
                if provider_pred == taken:
                    entry.useful = min(self._USEFUL_MAX, entry.useful + 1)
                else:
                    entry.useful = max(0, entry.useful - 1)
        else:
            self._bimodal[prediction.bimodal_index] = self._update_counter(
                self._bimodal[prediction.bimodal_index], taken, 3
            )

        if mispredicted and prediction.provider < self.num_components - 1:
            self._allocate(taken, prediction)

        if self._branches_seen % self.useful_reset_period == 0:
            self._age_useful_bits()

    def _prediction_tag(self, prediction: TAGEPrediction, rank: int) -> int:
        """Re-derive the component tag the lookup for ``prediction`` used."""
        _, tag_mixes, _ = self._pc_mixes(prediction.pc)
        fold = prediction.folds[self.num_components + rank]
        if fold is None:  # register was dormant at lookup — re-fold from raw bits
            fold = fold_bits(prediction.bits, self.history_lengths[rank], self.tag_bits)
        return (tag_mixes[rank] ^ fold) & self._tag_mask

    def _allocate(self, taken: bool, prediction: TAGEPrediction) -> None:
        start = prediction.provider + 1
        components = self._components
        index_mixes, _, _ = self._pc_mixes(prediction.pc)
        folds = prediction.folds
        tagged_mask = self._tagged_mask
        bits = prediction.bits
        lengths = self.history_lengths
        index_width = self._index_width
        # One fused probe pass over the longer-history components only, re-deriving
        # each index from the prediction's fold snapshot (identical to the lookup's).
        probed: list[tuple[int, int, _TageEntry | None]] = []
        candidates: list[tuple[int, int, _TageEntry | None]] = []
        for rank in range(start, self.num_components):
            fold = folds[rank]
            if fold is None:  # dormant register at lookup time
                fold = fold_bits(bits, lengths[rank], index_width)
            index = (index_mixes[rank] ^ fold) & tagged_mask
            entry = components[rank][index]
            probed.append((rank, index, entry))
            if entry is None or entry.useful == 0:
                candidates.append((rank, index, entry))
        if not candidates:
            for _, _, entry in probed:
                if entry is not None:
                    entry.useful = max(0, entry.useful - 1)
            return
        choice, choice_index, choice_entry = candidates[0]
        if len(candidates) > 1 and self._random.chance_half():
            choice, choice_index, choice_entry = candidates[1]
        if choice_entry is None:
            choice_entry = _TageEntry()
            components[choice][choice_index] = choice_entry
            self._component_sizes[choice] += 1
            if self._component_sizes[choice] == 1:
                # First entry in this component: wake its lazily-dormant folded
                # registers so subsequent lookups read live folds.
                registers = self._fold_registers
                if registers is not None:
                    registers.activate(choice)
                    registers.activate(self.num_components + choice)
        choice_entry.valid = True
        choice_entry.tag = self._prediction_tag(prediction, choice)
        choice_entry.counter = 4 if taken else 3
        choice_entry.useful = 0

    def _age_useful_bits(self) -> None:
        for component in self._components:
            for entry in component:
                if entry is not None:
                    entry.useful >>= 1

    # ------------------------------------------------------------------ statistics
    @property
    def misprediction_rate(self) -> float:
        """Overall misprediction rate over all lookups."""
        return self.mispredictions / self.lookups if self.lookups else 0.0

    @property
    def high_confidence_misprediction_rate(self) -> float:
        """Misprediction rate restricted to very-high-confidence predictions."""
        if not self.high_confidence_lookups:
            return 0.0
        return self.high_confidence_mispredictions / self.high_confidence_lookups

    def storage_bits(self) -> int:
        """Approximate storage budget of the tables, in bits."""
        bimodal = self.bimodal_entries * 2
        tagged = self.num_components * self.tagged_entries * (3 + 2 + self.tag_bits)
        return bimodal + tagged
