"""VTAGE — the Value TAgged GEometric history length predictor (Perais & Seznec, 2014).

VTAGE is the context-based half of the paper's hybrid (Table 2).  Like the ITTAGE
indirect-branch predictor it borrows its structure from, it consists of:

* a tagless **base component** — a last-value table indexed by PC; and
* ``num_components`` **tagged components**, each indexed by a hash of the PC and a
  geometrically increasing slice of the *global conditional branch history*, and tagged
  with ``tag_bits + rank`` bits.

The longest-history matching component provides the prediction; Forward Probabilistic
Counters gate its use.  A key property emphasised by the paper is that VTAGE does not
need the previous value of the instruction to predict, so it has no speculative
in-flight state to repair on squashes.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.bpu.history import FoldedRegisterFile, GlobalHistory, fold_bits
from repro.errors import ConfigurationError
from repro.vp.base import ValuePredictor, VPrediction
from repro.vp.confidence import DeterministicRandom, FPCPolicy, PAPER_FPC_VECTOR

_MASK64 = (1 << 64) - 1


def _mix(value: int) -> int:
    value &= _MASK64
    value ^= value >> 30
    value = (value * 0xBF58476D1CE4E5B9) & _MASK64
    value ^= value >> 27
    value = (value * 0x94D049BB133111EB) & _MASK64
    return value ^ (value >> 31)


def geometric_history_lengths(minimum: int, maximum: int, count: int) -> list[int]:
    """Geometric series of history lengths, shortest first (Seznec & Michaud, 2006)."""
    if count <= 0:
        raise ConfigurationError("need at least one tagged component")
    if count == 1:
        return [maximum]
    if minimum <= 0 or maximum < minimum:
        raise ConfigurationError("invalid geometric history bounds")
    ratio = (maximum / minimum) ** (1.0 / (count - 1))
    lengths = []
    for rank in range(count):
        length = int(round(minimum * (ratio**rank)))
        if lengths and length <= lengths[-1]:
            length = lengths[-1] + 1
        lengths.append(length)
    return lengths


@dataclass(slots=True)
class _VTAGEMeta:
    """Fetch-time lookup context carried to commit-time training.

    Indices and tags of the non-providing components are *not* materialised at
    lookup time: the meta captures the folded-history registers (``folds``, an
    immutable snapshot — the live registers advance with every branch) plus the PC,
    from which commit-time allocation re-derives exactly the indices/tags the lookup
    would have computed.  Only the provider's index/tag (needed on every correct
    prediction) are carried directly.
    """

    pc: int
    folds: tuple
    provider: int  # -1 = base component, otherwise tagged component rank (0-based)
    provider_index: int
    provider_tag: int
    base_index: int
    #: Raw history bits at lookup time; ``None`` holes in ``folds`` (lazily-dormant
    #: registers) are re-folded from this on demand.
    bits: int = 0


class _TaggedEntry:
    __slots__ = ("tag", "value", "confidence", "useful", "valid")

    def __init__(self) -> None:
        self.tag = 0
        self.value = 0
        self.confidence = 0
        self.useful = 0
        self.valid = False


class VTAGEPredictor(ValuePredictor):
    """VTAGE as configured in Table 2 of the EOLE paper (scaled by constructor args)."""

    name = "vtage"

    def __init__(
        self,
        base_entries: int = 8192,
        tagged_entries: int = 1024,
        num_components: int = 6,
        tag_bits: int = 12,
        min_history: int = 2,
        max_history: int = 64,
        value_bits: int = 64,
        fpc_vector=PAPER_FPC_VECTOR,
        seed: int = 0x7A6E,
    ) -> None:
        super().__init__()
        for entries in (base_entries, tagged_entries):
            if entries <= 0 or entries & (entries - 1):
                raise ConfigurationError("VTAGE table sizes must be powers of two")
        self.base_entries = base_entries
        self.tagged_entries = tagged_entries
        self.num_components = num_components
        self.tag_bits = tag_bits
        self.value_bits = value_bits
        self.history_lengths = geometric_history_lengths(min_history, max_history, num_components)
        self._base_mask = base_entries - 1
        self._tagged_mask = tagged_entries - 1
        self._index_width = self._tagged_mask.bit_length()
        self._tag_widths = [tag_bits + rank for rank in range(num_components)]
        self._tag_masks = [(1 << width) - 1 for width in self._tag_widths]
        self._policy = FPCPolicy(fpc_vector, seed=seed)
        self._random = DeterministicRandom(seed ^ 0xBADC0DE)
        # Lookup memoisation (pure caching — the computed indices/tags are identical
        # to the direct formulas): the PC-dependent hash mixes are static per µ-op,
        # and the folded history lives in incrementally-maintained registers attached
        # to the GlobalHistory (O(1) circular-shift update per pushed branch outcome,
        # snapshot/restore on squash) — index folds first, tag folds second.
        self._pc_mix_cache: dict[int, tuple[tuple[int, ...], tuple[int, ...], int]] = {}
        self._fold_widths = [self._index_width] * num_components + self._tag_widths
        self._fold_registers: FoldedRegisterFile | None = None
        #: Longest-history-first probe order: the provider is the longest match,
        #: so the descending walk can stop at the first hit (identical outcome to
        #: the ascending keep-the-last-match walk, fewer probes on hits).
        self._ranks_desc = tuple(range(num_components - 1, -1, -1))
        self._saturation = self._policy.saturation
        # Base component (tagless last-value table).
        self._base_values = [0] * base_entries
        self._base_confidence = [0] * base_entries
        self._base_valid = [False] * base_entries
        # Tagged components.  Entries are allocated lazily on first use: a ``None``
        # slot behaves exactly like a never-allocated entry (``valid`` False), and
        # only a small fraction of each 1K-entry component is ever touched.  The
        # per-component entry counts let lookups skip probing (and hashing into)
        # entirely-empty components.
        self._components: list[list[_TaggedEntry | None]] = [
            [None] * tagged_entries for _ in range(num_components)
        ]
        self._component_sizes = [0] * num_components

    # ------------------------------------------------------------------ indexing
    def _base_index(self, pc: int) -> int:
        return _mix(pc) & self._base_mask

    def _tagged_index(self, pc: int, history: GlobalHistory, rank: int) -> int:
        length = self.history_lengths[rank]
        folded = history.fold(length, self._tagged_mask.bit_length())
        return (_mix(pc * 2 + rank) ^ folded) & self._tagged_mask

    def _tagged_tag(self, pc: int, history: GlobalHistory, rank: int) -> int:
        length = self.history_lengths[rank]
        width = self.tag_bits + rank
        folded = history.fold(length, width)
        return (_mix(pc * 7 + rank * 3 + 1) ^ folded) & ((1 << width) - 1)

    # ------------------------------------------------------------------ memoisation
    def _pc_mixes(self, pc: int) -> tuple[tuple[int, ...], tuple[int, ...], int]:
        """The PC-dependent halves of every index/tag hash, plus the base index."""
        cached = self._pc_mix_cache.get(pc)
        if cached is None:
            index_mixes = tuple(_mix(pc * 2 + rank) for rank in range(self.num_components))
            tag_mixes = tuple(
                _mix(pc * 7 + rank * 3 + 1) for rank in range(self.num_components)
            )
            cached = (index_mixes, tag_mixes, _mix(pc) & self._base_mask)
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

    # ------------------------------------------------------------------ interface
    def predict(self, pc: int, history: GlobalHistory) -> VPrediction | None:
        value, confident, meta = self.lookup_parts(pc, history)
        return VPrediction(value, confident, self.name, meta=meta)

    def lookup_parts(self, pc: int, history: GlobalHistory) -> tuple[int, bool, _VTAGEMeta]:
        """:meth:`predict` without the :class:`VPrediction` wrapper.

        Returns ``(value, confident, meta)``; used by the hybrid, which wraps the
        arbitration winner once per lookup.
        """
        cached = self._pc_mix_cache.get(pc)
        if cached is None:
            cached = self._pc_mixes(pc)
        index_mixes, tag_mixes, base_index = cached
        registers = self._fold_registers
        if registers is None or registers.history is not history:
            registers = history.folded_registers(
                self.history_lengths + self.history_lengths, self._fold_widths,
                lazy=True,
            )
            self._fold_registers = registers
        folds = registers.folds
        num_components = self.num_components
        tagged_mask = self._tagged_mask
        tag_masks = self._tag_masks
        components = self._components
        sizes = self._component_sizes
        provider = -1
        provider_index = 0
        provider_tag = 0
        provider_entry: _TaggedEntry | None = None
        for rank in self._ranks_desc:
            # Longest history first: the first hit *is* the provider.  Empty
            # components cannot hit; the hash is skipped entirely (allocation
            # re-derives it from the meta's fold snapshot when needed).  Tags are
            # only hashed for slots that actually hold an entry.
            if not sizes[rank]:
                continue
            index = (index_mixes[rank] ^ folds[rank]) & tagged_mask
            entry = components[rank][index]
            if entry is not None and entry.valid:
                tag = (tag_mixes[rank] ^ folds[num_components + rank]) & tag_masks[rank]
                if entry.tag == tag:
                    provider = rank
                    provider_index = index
                    provider_tag = tag
                    provider_entry = entry
                    break
        meta = _VTAGEMeta(
            pc,
            registers.folds_tuple(),
            provider,
            provider_index,
            provider_tag,
            base_index,
            history._bits,
        )
        if provider_entry is not None:
            return provider_entry.value, provider_entry.confidence >= self._saturation, meta
        if self._base_valid[base_index]:
            confident = self._base_confidence[base_index] >= self._saturation
            return self._base_values[base_index], confident, meta
        return 0, False, meta

    # ------------------------------------------------------------------ training helpers
    def _train_base(self, base_index: int, actual: int) -> None:
        if self._base_valid[base_index]:
            if self._base_values[base_index] == actual:
                confidence = self._base_confidence[base_index]
                if confidence < self._saturation and self._policy.allows_increment(
                    confidence
                ):
                    self._base_confidence[base_index] = confidence + 1
            elif self._base_confidence[base_index] == 0:
                self._base_values[base_index] = actual
            else:
                self._base_confidence[base_index] = 0
        else:
            self._base_valid[base_index] = True
            self._base_values[base_index] = actual
            self._base_confidence[base_index] = 0

    def _meta_index(self, meta: _VTAGEMeta, rank: int) -> int:
        """Re-derive the component index the lookup for ``meta`` would have used."""
        if rank == meta.provider:
            return meta.provider_index
        index_mixes, _, _ = self._pc_mixes(meta.pc)
        fold = meta.folds[rank]
        if fold is None:  # register was dormant at lookup — re-fold from raw bits
            fold = fold_bits(meta.bits, self.history_lengths[rank], self._index_width)
        return (index_mixes[rank] ^ fold) & self._tagged_mask

    def _meta_tag(self, meta: _VTAGEMeta, rank: int) -> int:
        """Re-derive the component tag the lookup for ``meta`` would have used."""
        if rank == meta.provider:
            return meta.provider_tag
        _, tag_mixes, _ = self._pc_mixes(meta.pc)
        fold = meta.folds[self.num_components + rank]
        if fold is None:  # register was dormant at lookup — re-fold from raw bits
            fold = fold_bits(meta.bits, self.history_lengths[rank], self._tag_widths[rank])
        return (tag_mixes[rank] ^ fold) & self._tag_masks[rank]

    def _allocate(self, meta: _VTAGEMeta, actual: int) -> None:
        """Allocate a new tagged entry on a component with a longer history."""
        start = meta.provider + 1
        num_components = self.num_components
        index_mixes, _, _ = self._pc_mixes(meta.pc)
        folds = meta.folds
        tagged_mask = self._tagged_mask
        components = self._components
        bits = meta.bits
        lengths = self.history_lengths
        index_width = self._index_width
        # One fused probe pass over the longer-history components only, re-deriving
        # each index from the meta's fold snapshot (identical to the lookup's).
        # Only the first two candidates matter (the tie-break picks between them,
        # and the aging path needs only "were there any"), so the probe stops at
        # the second hit.
        candidate_count = 0
        first = second = None
        for rank in range(start, num_components):
            fold = folds[rank]
            if fold is None:  # dormant register at lookup time
                fold = fold_bits(bits, lengths[rank], index_width)
            index = (index_mixes[rank] ^ fold) & tagged_mask
            entry = components[rank][index]
            if entry is None or not entry.valid or entry.useful == 0:
                if candidate_count == 0:
                    candidate_count = 1
                    first = (rank, index, entry)
                else:
                    candidate_count = 2
                    second = (rank, index, entry)
                    break
        if not candidate_count:
            # Age the useful bits of all longer-history victims, TAGE-style
            # (rare path: re-probe the same indices).
            for rank in range(start, num_components):
                fold = folds[rank]
                if fold is None:
                    fold = fold_bits(bits, lengths[rank], index_width)
                index = (index_mixes[rank] ^ fold) & tagged_mask
                entry = components[rank][index]
                if entry is not None and entry.useful > 0:
                    entry.useful -= 1
            return
        # Prefer the shortest eligible history, with a random tie-break to avoid ping-pong.
        choice, choice_index, choice_entry = first
        if candidate_count > 1 and self._random.chance_half():
            choice, choice_index, choice_entry = second
        if choice_entry is None:
            choice_entry = _TaggedEntry()
            components[choice][choice_index] = choice_entry
            self._component_sizes[choice] += 1
            if self._component_sizes[choice] == 1:
                # First entry in this component: wake its lazily-dormant folded
                # registers so subsequent lookups read live folds.
                registers = self._fold_registers
                if registers is not None:
                    registers.activate(choice)
                    registers.activate(num_components + choice)
        choice_entry.valid = True
        choice_entry.tag = self._meta_tag(meta, choice)
        choice_entry.value = actual
        choice_entry.confidence = 0
        choice_entry.useful = 0

    def train(self, pc: int, actual: int, prediction: VPrediction | None) -> None:
        if prediction is None or prediction.meta is None:
            # Should not happen in the pipeline (every eligible µ-op is looked up), but
            # keep the base component learning for robustness.
            self._train_base(self._base_index(pc), actual & _MASK64)
            return
        self.train_parts(pc, actual, prediction.meta, prediction.value)

    def train_parts(
        self, pc: int, actual: int, meta: _VTAGEMeta, predicted_value: int
    ) -> None:
        """:meth:`train` taking the lookup flattened to ``(meta, value)``.

        A correct provider bumps its confidence (below saturation, when the
        forward-probabilistic counter policy allows it).
        """
        actual &= _MASK64
        if meta.provider >= 0:
            entry = self._components[meta.provider][meta.provider_index]
            if entry is not None and entry.valid and entry.tag == meta.provider_tag:
                if entry.value == actual:
                    confidence = entry.confidence
                    saturation = self._saturation
                    if confidence < saturation and self._policy.allows_increment(
                        confidence
                    ):
                        confidence += 1
                        entry.confidence = confidence
                    if confidence >= saturation:
                        entry.useful = 1
                else:
                    if entry.confidence == 0:
                        entry.value = actual
                        entry.useful = 0
                    else:
                        entry.confidence = 0
                    self._allocate(meta, actual)
            else:
                # The entry was replaced between fetch and commit; treat as a miss.
                self._allocate(meta, actual)
        else:
            if not (self._base_valid[meta.base_index] and predicted_value == actual):
                self._allocate(meta, actual)
        self._train_base(meta.base_index, actual)

    def storage_bits(self) -> int:
        base = self.base_entries * (self.value_bits + 3)
        tagged = 0
        for rank in range(self.num_components):
            per_entry = self.value_bits + 3 + 1 + (self.tag_bits + rank)
            tagged += self.tagged_entries * per_entry
        return base + tagged
