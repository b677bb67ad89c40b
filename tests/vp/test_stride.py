"""Tests for the Stride and 2-Delta Stride value predictors."""

import pytest

from repro.bpu.history import GlobalHistory
from repro.errors import ConfigurationError
from repro.vp.confidence import DETERMINISTIC_3BIT_VECTOR
from repro.vp.stride import StridePredictor, TwoDeltaStridePredictor

PC = 0x40


def _make(two_delta: bool = True, **kwargs):
    cls = TwoDeltaStridePredictor if two_delta else StridePredictor
    kwargs.setdefault("entries", 256)
    kwargs.setdefault("fpc_vector", DETERMINISTIC_3BIT_VECTOR)
    return cls(**kwargs)


def _train_sequence(predictor, values, pc=PC):
    """Feed a committed value sequence, predicting before each training update."""
    history = GlobalHistory()
    predictions = []
    for value in values:
        predictions.append(predictor.lookup(pc, history))
        predictor.train(pc, value, predictions[-1])
    return predictions


class TestBasics:
    def test_entry_count_must_be_power_of_two(self):
        with pytest.raises(ConfigurationError):
            StridePredictor(entries=100)

    def test_first_encounter_gives_no_prediction(self):
        predictor = _make()
        assert predictor.lookup(PC, GlobalHistory()) is None

    def test_constant_sequence_predicted_with_confidence(self):
        predictor = _make()
        _train_sequence(predictor, [7] * 20)
        prediction = predictor.lookup(PC, GlobalHistory())
        assert prediction is not None
        assert prediction.value == 7
        assert prediction.confident

    def test_strided_sequence_predicted(self):
        predictor = _make()
        _train_sequence(predictor, list(range(0, 200, 5)))
        prediction = predictor.lookup(PC, GlobalHistory())
        assert prediction.value == 200
        assert prediction.confident

    def test_storage_accounting_positive(self):
        assert _make().storage_bits() > 0
        assert _make(two_delta=False).storage_bits() > 0

    def test_two_delta_has_more_storage_than_single_delta(self):
        assert _make().storage_bits() > _make(two_delta=False).storage_bits()


class TestTwoDeltaFiltering:
    def test_transient_stride_change_does_not_update_prediction_delta(self):
        predictor = _make(two_delta=True)
        # Regular stride of 4, then a single glitch, then stride of 4 again.
        values = [0, 4, 8, 12, 16, 100, 104, 108, 112]
        _train_sequence(predictor, values)
        entry = predictor._table[predictor._index_and_tag(PC)[0]]
        assert entry.stride2 == 4

    def test_single_delta_follows_every_change(self):
        predictor = _make(two_delta=False)
        values = [0, 4, 8, 100]
        _train_sequence(predictor, values)
        entry = predictor._table[predictor._index_and_tag(PC)[0]]
        assert entry.stride2 == (100 - 8)

    def test_repeated_new_stride_is_adopted(self):
        predictor = _make(two_delta=True)
        _train_sequence(predictor, [0, 4, 8, 12, 20, 28, 36, 44])
        entry = predictor._table[predictor._index_and_tag(PC)[0]]
        assert entry.stride2 == 8


class TestSpeculativeChain:
    def test_back_to_back_predictions_chain_speculatively(self):
        predictor = _make()
        _train_sequence(predictor, list(range(0, 120, 3)))  # stride 3, last value 117
        history = GlobalHistory()
        first = predictor.lookup(PC, history)
        second = predictor.lookup(PC, history)
        assert first.value == 120
        assert second.value == 123

    def test_recover_collapses_speculative_state(self):
        predictor = _make()
        _train_sequence(predictor, list(range(0, 120, 3)))
        history = GlobalHistory()
        predictor.lookup(PC, history)
        predictor.lookup(PC, history)
        predictor.recover()
        assert predictor.lookup(PC, history).value == 120

    def test_misprediction_repairs_speculative_chain(self):
        predictor = _make()
        history = GlobalHistory()
        # Build up several stale in-flight predictions before any training.
        stale = [predictor.lookup(PC, history) for _ in range(4)]
        actuals = [10, 20, 30, 40, 50, 60, 70, 80, 90, 100]
        for actual, prediction in zip(actuals[:4], stale):
            predictor.train(PC, actual, prediction)
        # Continue with a normal predict/train rhythm: the chain must resynchronise and
        # eventually produce correct, confident predictions.
        correct = 0
        for actual in actuals[4:]:
            prediction = predictor.lookup(PC, history)
            if prediction is not None and prediction.value == actual:
                correct += 1
            predictor.train(PC, actual, prediction)
        assert correct >= 4

    def test_inflight_counter_never_negative(self):
        predictor = _make()
        history = GlobalHistory()
        predictor.train(PC, 5, None)
        predictor.train(PC, 10, None)
        entry = predictor._table[predictor._index_and_tag(PC)[0]]
        assert entry.inflight == 0
        predictor.lookup(PC, history)
        assert entry.inflight == 1


class TestStatistics:
    def test_lookup_and_outcome_accounting(self):
        predictor = _make()
        history = GlobalHistory()
        for value in range(0, 300, 5):
            prediction = predictor.lookup(PC, history)
            predictor.validate_and_train(PC, value, prediction)
        stats = predictor.stats
        assert stats.lookups == 60
        assert stats.confident_predictions > 0
        assert stats.accuracy > 0.9
