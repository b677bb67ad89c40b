"""Tests for the VTAGE context-based value predictor."""

import pytest

from repro.bpu.history import GlobalHistory, fold_bits
from repro.errors import ConfigurationError
from repro.vp.confidence import DETERMINISTIC_3BIT_VECTOR
from repro.vp.vtage import VTAGEPredictor, geometric_history_lengths

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
            fold = folds[rank]
            if fold is None:
                fold = fold_bits(bits, predictor.history_lengths[rank], predictor._index_width)
            index = (mixes[0][rank] ^ fold) & predictor._tagged_mask
            tag = predictor._record_tag(record, rank)
            assert index == predictor._tagged_index(PC, history, rank)
            assert tag == predictor._tagged_tag(PC, history, rank)
