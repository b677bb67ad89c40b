"""Tests for metric helpers."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.analysis.metrics import arithmetic_mean, geometric_mean, speedups


class TestMeans:
    def test_geometric_mean_basic(self):
        assert geometric_mean([1.0, 4.0]) == pytest.approx(2.0)
        assert geometric_mean([2.0, 2.0, 2.0]) == pytest.approx(2.0)

    def test_geometric_mean_ignores_non_positive(self):
        assert geometric_mean([2.0, 0.0, -1.0, 8.0]) == pytest.approx(4.0)

    def test_geometric_mean_empty(self):
        assert geometric_mean([]) == 0.0

    def test_arithmetic_mean(self):
        assert arithmetic_mean([1.0, 2.0, 3.0]) == pytest.approx(2.0)
        assert arithmetic_mean([]) == 0.0

    @given(st.lists(st.floats(min_value=0.1, max_value=10.0), min_size=1, max_size=20))
    def test_geomean_bounded_by_min_and_max(self, values):
        mean = geometric_mean(values)
        assert min(values) - 1e-9 <= mean <= max(values) + 1e-9

    @given(st.lists(st.floats(min_value=0.1, max_value=10.0), min_size=1, max_size=20))
    def test_geomean_never_exceeds_arithmetic_mean(self, values):
        assert geometric_mean(values) <= arithmetic_mean(values) + 1e-9


class TestSpeedups:
    def test_per_workload_speedups(self):
        result = speedups({"a": 2.0, "b": 1.0}, {"a": 1.0, "b": 2.0})
        assert result == {"a": 2.0, "b": 0.5}

    def test_missing_or_zero_baselines_skipped(self):
        result = speedups({"a": 2.0, "b": 1.0}, {"a": 0.0})
        assert result == {}
