"""Tests for the Last-Value Predictor."""

import pytest

from repro.bpu.history import GlobalHistory
from repro.errors import ConfigurationError
from repro.vp.confidence import DETERMINISTIC_3BIT_VECTOR
from repro.vp.last_value import LastValuePredictor

PC = 0x123


def _make(**kwargs):
    kwargs.setdefault("entries", 256)
    kwargs.setdefault("fpc_vector", DETERMINISTIC_3BIT_VECTOR)
    return LastValuePredictor(**kwargs)


class TestLastValue:
    def test_rejects_non_power_of_two(self):
        with pytest.raises(ConfigurationError):
            LastValuePredictor(entries=300)

    def test_cold_lookup_returns_none(self):
        assert _make().lookup(PC, GlobalHistory()) is None

    def test_repeated_value_becomes_confident(self):
        predictor = _make()
        history = GlobalHistory()
        for _ in range(10):
            prediction = predictor.lookup(PC, history)
            predictor.train(PC, 42, prediction)
        prediction = predictor.lookup(PC, history)
        assert prediction.value == 42
        assert prediction.confident

    def test_changing_value_resets_confidence(self):
        predictor = _make()
        history = GlobalHistory()
        for _ in range(10):
            predictor.train(PC, 42, predictor.lookup(PC, history))
        predictor.train(PC, 43, predictor.lookup(PC, history))
        prediction = predictor.lookup(PC, history)
        assert not prediction.confident
        assert prediction.value == 43

    def test_strided_values_never_become_confident(self):
        predictor = _make()
        history = GlobalHistory()
        for value in range(0, 500, 7):
            predictor.train(PC, value, predictor.lookup(PC, history))
        prediction = predictor.lookup(PC, history)
        assert prediction is None or not prediction.confident

    def test_distinct_pcs_do_not_interfere(self):
        predictor = _make()
        history = GlobalHistory()
        for _ in range(10):
            predictor.train(0x10, 1, predictor.lookup(0x10, history))
            predictor.train(0x11, 2, predictor.lookup(0x11, history))
        assert predictor.lookup(0x10, history).value == 1
        assert predictor.lookup(0x11, history).value == 2

    def test_storage_accounting(self):
        predictor = _make(entries=256, tag_bits=12)
        assert predictor.storage_bits() == 256 * (12 + 64 + 3 + 1)
