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

from repro.bpu.history import FoldedRegisterFile, GlobalHistory, fold_bits
from repro.errors import ConfigurationError
from repro.vp.base import ValuePredictor
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


class _TaggedEntry:
    __slots__ = ("tag", "value", "confidence", "useful")

    def __init__(self) -> None:
        self.tag = 0
        self.value = 0
        self.confidence = 0
        self.useful = 0


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
        # slot is the only invalid entry (the valid bit ``storage_bits`` counts), and
        # only a small fraction of each 1K-entry component is ever touched.  The
        # per-component entry counts let lookups skip probing (and hashing into)
        # entirely-empty components.
        self._components: list[list[_TaggedEntry | None]] = [
            [None] * tagged_entries for _ in range(num_components)
        ]
        self._component_sizes = [0] * num_components

    # ------------------------------------------------------------------ indexing
    # Reference formulas; lookups read the same hashes through ``_pc_mix_cache``
    # and the folded-history registers.
    def _tagged_index(self, pc: int, history: GlobalHistory, rank: int) -> int:
        length = self.history_lengths[rank]
        folded = history.fold(length, self._tagged_mask.bit_length())
        return (_mix(pc * 2 + rank) ^ folded) & self._tagged_mask

    def _tagged_tag(self, pc: int, history: GlobalHistory, rank: int) -> int:
        length = self.history_lengths[rank]
        width = self.tag_bits + rank
        folded = history.fold(length, width)
        return (_mix(pc * 7 + rank * 3 + 1) ^ folded) & ((1 << width) - 1)

    def _pc_mixes(self, pc: int) -> tuple[tuple[int, ...], tuple[int, ...], int]:
        """The PC-dependent halves of every index/tag hash, plus the base index.

        Memoised in ``_pc_mix_cache`` (callers read the cache first).
        """
        cached = self._pc_mix_cache[pc] = (
            tuple(_mix(pc * 2 + rank) for rank in range(self.num_components)),
            tuple(_mix(pc * 7 + rank * 3 + 1) for rank in range(self.num_components)),
            _mix(pc) & self._base_mask,
        )
        return cached

    # ------------------------------------------------------------------ interface
    def lookup(self, pc: int, history: GlobalHistory) -> tuple:
        """The fetch-side table walk.

        Returns the lookup record carried to :meth:`train`, a plain tuple
        ``(value, confident, provider, provider_index, provider_tag, mixes,
        folds, bits)``: ``provider`` is ``-1`` for the base component, otherwise
        the providing tagged rank (0-based), whose index and tag follow.  The
        indices and tags of the other components are *not* materialised:
        ``mixes`` (the ``_pc_mixes`` entry) and ``folds`` (an immutable snapshot
        of the folded-history registers, index folds first, tag folds second —
        the live registers advance with every branch) re-derive them at
        allocation.  A ``None`` fold belongs to a lazily-dormant register and is
        re-folded from ``bits``, the raw history at lookup time.  A hybrid's
        component (``stats`` is ``None``) accounts nothing.
        """
        mixes = self._pc_mix_cache.get(pc)
        if mixes is None:
            mixes = self._pc_mixes(pc)
        index_mixes, tag_mixes, base_index = mixes
        registers = self._fold_registers
        if registers is None or registers.history is not history:
            registers = history.folded_registers(
                self.history_lengths + self.history_lengths, self._fold_widths
            )
            self._fold_registers = registers
        folds = registers._tuple_cache
        if folds is None:
            folds = registers.folds_tuple()
        num_components = self.num_components
        tagged_mask = self._tagged_mask
        tag_masks = self._tag_masks
        components = self._components
        sizes = self._component_sizes
        for rank in self._ranks_desc:
            # Longest history first: the first hit *is* the provider.  Empty
            # components cannot hit; the hash is skipped entirely (allocation
            # re-derives it from the record's fold snapshot when needed).  Tags are
            # only hashed for slots that actually hold an entry.
            if not sizes[rank]:
                continue
            index = (index_mixes[rank] ^ folds[rank]) & tagged_mask
            entry = components[rank][index]
            if entry is not None:
                tag = (tag_mixes[rank] ^ folds[num_components + rank]) & tag_masks[rank]
                if entry.tag == tag:
                    record = (
                        entry.value, entry.confidence >= self._saturation,
                        rank, index, tag, mixes, folds, history._bits,
                    )
                    break
        else:
            if self._base_valid[base_index]:
                record = (
                    self._base_values[base_index],
                    self._base_confidence[base_index] >= self._saturation,
                    -1, 0, 0, mixes, folds, history._bits,
                )
            else:
                record = (0, False, -1, 0, 0, mixes, folds, history._bits)
        stats = self.stats
        if stats is not None:
            stats.lookups += 1
            if record[1]:
                stats.confident_predictions += 1
        return record

    # ------------------------------------------------------------------ training
    def _record_tag(self, record: tuple, rank: int) -> int:
        """Re-derive the component-``rank`` tag the lookup for ``record`` would have used."""
        fold = record[6][self.num_components + rank]
        if fold is None:  # register was dormant at lookup — re-fold from raw bits
            fold = fold_bits(record[7], self.history_lengths[rank], self._tag_widths[rank])
        return (record[5][1][rank] ^ fold) & self._tag_masks[rank]

    def _allocate(self, record: tuple, actual: int) -> None:
        """Allocate a new tagged entry on a component with a longer history."""
        start = record[2] + 1
        num_components = self.num_components
        index_mixes = record[5][0]
        folds = record[6]
        tagged_mask = self._tagged_mask
        components = self._components
        bits = record[7]
        lengths = self.history_lengths
        index_width = self._index_width
        # One fused probe pass over the longer-history components only, re-deriving
        # each index from the record's fold snapshot (identical to the lookup's).
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
            if entry is None or entry.useful == 0:
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
        choice_entry.tag = self._record_tag(record, choice)
        choice_entry.value = actual
        choice_entry.confidence = 0
        choice_entry.useful = 0

    def train(self, pc: int, actual: int, record: tuple | None) -> bool:
        """The commit-side table walk for a :meth:`lookup` record.

        A correct provider bumps its confidence (below saturation, when the
        forward-probabilistic counter policy allows it); a wrong one allocates on
        a longer history.  The base component always trains.  Without a record
        (not looked up — never the case in the pipeline) only the base trains.
        A hybrid's component (``stats`` is ``None``) neither accounts nor
        validates: it returns True, and the hybrid validates its own record.
        """
        correct = True
        base_valid = self._base_valid
        if record is None:
            actual &= _MASK64
            base_index = _mix(pc) & self._base_mask
        else:
            value, confident, provider, provider_index, provider_tag, mixes, _, _ = record
            stats = self.stats
            if stats is not None:
                if confident:
                    if value == actual:
                        stats.correct_used += 1
                    else:
                        stats.incorrect_used += 1
                        correct = False
                elif value == actual:
                    stats.unused_correct += 1
            actual &= _MASK64
            base_index = mixes[2]
            if provider >= 0:
                entry = self._components[provider][provider_index]
                if entry is not None and entry.tag == provider_tag:
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
                        self._allocate(record, actual)
                else:
                    # The entry was replaced between fetch and commit; treat as a miss.
                    self._allocate(record, actual)
            elif not (base_valid[base_index] and value == actual):
                self._allocate(record, actual)
        if base_valid[base_index]:
            base_confidence = self._base_confidence
            if self._base_values[base_index] == actual:
                confidence = base_confidence[base_index]
                if confidence < self._saturation and self._policy.allows_increment(
                    confidence
                ):
                    base_confidence[base_index] = confidence + 1
            elif base_confidence[base_index] == 0:
                self._base_values[base_index] = actual
            else:
                base_confidence[base_index] = 0
        else:
            base_valid[base_index] = True
            self._base_values[base_index] = actual
            self._base_confidence[base_index] = 0
        return correct

    validate_and_train = train

    def storage_bits(self) -> int:
        base = self.base_entries * (self.value_bits + 3)
        tagged = 0
        for rank in range(self.num_components):
            per_entry = self.value_bits + 3 + 1 + (self.tag_bits + rank)
            tagged += self.tagged_entries * per_entry
        return base + tagged
