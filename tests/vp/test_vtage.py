"""Tests for the VTAGE context-based value predictor."""

import pytest

from repro.bpu.history import GlobalHistory, fold_bits
from repro.errors import ConfigurationError
from repro.vp.confidence import DETERMINISTIC_3BIT_VECTOR, DeterministicRandom
from repro.vp.vtage import _MASK64, VTAGEPredictor, geometric_history_lengths

PC = 0x200


def _make(**kwargs):
    kwargs.setdefault("base_entries", 512)
    kwargs.setdefault("tagged_entries", 128)
    kwargs.setdefault("num_components", 4)
    kwargs.setdefault("fpc_vector", DETERMINISTIC_3BIT_VECTOR)
    return VTAGEPredictor(**kwargs)


class TestGeometricLengths:
    def test_lengths_are_increasing(self):
        lengths = geometric_history_lengths(2, 64, 6)
        assert lengths == sorted(lengths)
        assert len(set(lengths)) == 6
        assert lengths[0] == 2
        assert lengths[-1] == 64

    def test_single_component(self):
        assert geometric_history_lengths(2, 64, 1) == [64]

    def test_invalid_bounds_rejected(self):
        with pytest.raises(ConfigurationError):
            geometric_history_lengths(0, 64, 4)
        with pytest.raises(ConfigurationError):
            geometric_history_lengths(8, 4, 4)
        with pytest.raises(ConfigurationError):
            geometric_history_lengths(2, 64, 0)


class TestVTAGE:
    def test_table_sizes_must_be_powers_of_two(self):
        with pytest.raises(ConfigurationError):
            VTAGEPredictor(base_entries=1000)

    def test_constant_value_learned_by_base_component(self):
        predictor = _make()
        history = GlobalHistory()
        for _ in range(12):
            record = predictor.lookup(PC, history)
            predictor.train(PC, 99, record)
        record = predictor.lookup(PC, history)
        assert record[0] == 99
        assert record[1]

    def test_history_correlated_values_learned_by_tagged_components(self):
        """A value alternating with the branch history is exactly VTAGE's target case."""
        predictor = _make()
        history = GlobalHistory()
        patterns = [(True, 1111), (False, 2222)]
        correct_late = 0
        rounds = 120
        for index in range(rounds):
            taken, value = patterns[index % 2]
            history.push(taken)
            record = predictor.lookup(PC, history)
            if index > rounds - 40 and record is not None and record[0] == value:
                correct_late += 1
            predictor.train(PC, value, record)
        assert correct_late >= 30

    def test_strided_values_are_not_confidently_predicted(self):
        predictor = _make()
        history = GlobalHistory()
        confident_wrong = 0
        value = 0
        for _ in range(200):
            record = predictor.lookup(PC, history)
            if record is not None and record[1] and record[0] != value:
                confident_wrong += 1
            predictor.train(PC, value, record)
            value += 17
        assert confident_wrong == 0

    def test_no_speculative_state_to_recover(self):
        predictor = _make()
        history = GlobalHistory()
        for _ in range(5):
            predictor.train(PC, 5, predictor.lookup(PC, history))
        before = predictor.lookup(PC, history)[0]
        predictor.recover()
        assert predictor.lookup(PC, history)[0] == before

    def test_storage_accounting_scales_with_components(self):
        small = _make(num_components=2)
        large = _make(num_components=6)
        assert large.storage_bits() > small.storage_bits()

    def test_paper_sizing_storage_in_expected_range(self):
        predictor = VTAGEPredictor()  # Table 2 sizing
        kilobytes = predictor.storage_kilobytes()
        # Table 2 reports ~64.1KB + 68.6KB across components; our accounting should be
        # in the same order of magnitude (tens of KB).
        assert 50 < kilobytes < 200

    def test_record_carries_provider_information(self):
        predictor = _make()
        history = GlobalHistory()
        record = predictor.lookup(PC, history)
        assert record is not None
        value, confident, provider, _, _, mixes, folds, bits = record
        assert (value, confident) == (0, False)  # cold: invalid base entry
        assert provider == -1  # cold: base component provides
        # The record's fold snapshot re-derives exactly the lookup's indices/tags.
        # Folds are lazily activated: a dormant register snapshots as None and the
        # re-derivation falls back to folding the record's raw history bits.
        assert len(folds) == 2 * predictor.num_components
        for rank in range(predictor.num_components):
            assert folds[rank] in (
                None,
                history.fold(predictor.history_lengths[rank], predictor._index_width),
            )
            assert _rederive(predictor, record, rank) == (
                predictor._tagged_index(PC, history, rank),
                predictor._tagged_tag(PC, history, rank),
            )


def _rederive(predictor, record, rank):
    """Component ``rank``'s index and tag from a lookup record.

    The record's PC mixes are pre-masked; its fold snapshot holds ``None`` for a
    register that was dormant at lookup, re-folded here from the raw bits.
    """
    _, _, _, _, _, (index_mixes, tag_mixes, _), folds, bits = record
    length = predictor.history_lengths[rank]
    index_fold = folds[rank]
    if index_fold is None:
        index_fold = fold_bits(bits, length, predictor._index_width)
    tag_fold = folds[predictor.num_components + rank]
    if tag_fold is None:
        tag_fold = fold_bits(bits, length, predictor._tag_widths[rank])
    return index_mixes[rank] ^ index_fold, tag_mixes[rank] ^ tag_fold


def _drive(predictor, history, rng, steps, pcs=range(0x200, 0x240, 4)):
    """Train ``predictor`` on a seeded stream of branch outcomes and values."""
    pcs = list(pcs)
    for _ in range(steps):
        draw = rng.next_u64()
        if draw & 1:
            history.push(bool(draw & 2))
        pc = pcs[(draw >> 8) % len(pcs)]
        # Values that follow the history for some PCs, noise for others.
        value = (history.bits & 7) * pc if (pc >> 2) & 1 else (draw >> 16) % 5
        predictor.train(pc, value, predictor.lookup(pc, history))


def _vtage_state(predictor):
    tables = [
        [
            None if entry is None
            else (entry.tag, entry.value, entry.confidence, entry.useful)
            for entry in component
        ]
        for component in predictor._components
    ]
    return (
        tables,
        list(predictor._component_sizes),
        predictor._base_values,
        predictor._base_confidence,
        predictor._base_valid,
        predictor._random._state,
        predictor._policy._random._state,
    )


class _AlwaysAllocateVTAGE(VTAGEPredictor):
    """Reference: calls ``_allocate`` on a longest-history provider's miss too.

    ``train`` skips that call, since no longer history exists to allocate into
    or age; the reference makes it, with the entry state the skip tested.
    """

    calls = 0

    def train(self, pc, actual, record):
        if record is not None and record[2] == self.num_components - 1:
            entry = self._components[record[2]][record[3]]
            if entry is None or entry.tag != record[4] or entry.value != actual & _MASK64:
                self._allocate(record, actual)
                self.calls += 1
        return super().train(pc, actual, record)


class TestLiveWalk:
    @pytest.mark.parametrize("steps, all_live", [(3000, True), (6, False)])
    def test_records_rederive_the_reference_hashes(self, steps, all_live):
        """Every lookup record re-derives ``_tagged_index`` and ``_tagged_tag``
        for every rank, whether its component is live (walked by lookup) or
        still empty (its registers dormant)."""
        predictor = _make(tagged_entries=32)
        history = GlobalHistory()
        rng = DeterministicRandom(0xC0FFEE)
        _drive(predictor, history, rng, steps)
        live = [bool(size) for size in predictor._component_sizes]
        assert all(live) == all_live and any(live)
        assert [rank for rank, _, _ in predictor._live] == [
            rank for rank in reversed(range(predictor.num_components)) if live[rank]
        ]
        for pc in range(0x200, 0x240, 4):
            record = predictor.lookup(pc, history)
            for rank in range(predictor.num_components):
                assert _rederive(predictor, record, rank) == (
                    predictor._tagged_index(pc, history, rank),
                    predictor._tagged_tag(pc, history, rank),
                )
            if record[2] >= 0:
                assert record[3:5] == _rederive(predictor, record, record[2])

    def test_single_component_skips_allocation_with_equal_tables(self):
        """With one tagged component every tagged miss has no longer history:
        skipping ``_allocate`` leaves every table equal to calling it."""
        fast = _make(num_components=1, tagged_entries=16)
        reference = _AlwaysAllocateVTAGE(
            base_entries=512, tagged_entries=16, num_components=1,
            fpc_vector=DETERMINISTIC_3BIT_VECTOR,
        )
        fast_history = GlobalHistory()
        reference_history = GlobalHistory()
        fast_rng = DeterministicRandom(0xFACE)
        reference_rng = DeterministicRandom(0xFACE)
        for _ in range(30):
            _drive(fast, fast_history, fast_rng, 100)
            _drive(reference, reference_history, reference_rng, 100)
            assert _vtage_state(fast) == _vtage_state(reference)
        assert reference.calls > 0
