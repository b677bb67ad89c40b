"""Tests for the order-k FCM context-based predictor."""

import pytest

from repro.bpu.history import GlobalHistory
from repro.errors import ConfigurationError
from repro.vp.confidence import DETERMINISTIC_3BIT_VECTOR
from repro.vp.fcm import FCMPredictor

PC = 0x55


def _make(**kwargs):
    kwargs.setdefault("first_level_entries", 256)
    kwargs.setdefault("second_level_entries", 1024)
    kwargs.setdefault("fpc_vector", DETERMINISTIC_3BIT_VECTOR)
    return FCMPredictor(**kwargs)


class TestFCM:
    def test_invalid_configuration_rejected(self):
        with pytest.raises(ConfigurationError):
            FCMPredictor(first_level_entries=100)
        with pytest.raises(ConfigurationError):
            FCMPredictor(order=0)

    def test_cold_lookup_returns_none(self):
        assert _make().lookup(PC, GlobalHistory()) is None

    def test_repeating_value_pattern_learned(self):
        """FCM's strength: periodic patterns that last-value/stride predictors miss."""
        predictor = _make()
        history = GlobalHistory()
        pattern = [3, 1, 4, 1, 5]
        correct_late = 0
        total_late = 0
        for index in range(600):
            value = pattern[index % len(pattern)]
            prediction = predictor.lookup(PC, history)
            if index >= 400:
                total_late += 1
                if prediction is not None and prediction.value == value:
                    correct_late += 1
            predictor.train(PC, value, prediction)
        assert correct_late / total_late > 0.9

    def test_constant_value_learned(self):
        predictor = _make()
        history = GlobalHistory()
        for _ in range(30):
            predictor.train(PC, 7, predictor.lookup(PC, history))
        prediction = predictor.lookup(PC, history)
        assert prediction is not None and prediction.value == 7

    def test_storage_accounting(self):
        assert _make().storage_bits() > 0
