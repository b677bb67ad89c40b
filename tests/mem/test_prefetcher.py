"""Tests for the stride prefetcher."""

import pytest

from repro.errors import ConfigurationError
from repro.mem.prefetcher import StridePrefetcher


class TestStridePrefetcher:
    def test_invalid_parameters_rejected(self):
        with pytest.raises(ConfigurationError):
            StridePrefetcher(degree=0)

    def test_no_prefetch_before_stride_confirmed(self):
        prefetcher = StridePrefetcher(degree=4)
        assert prefetcher.observe(0x10, 0x1000) == []
        assert prefetcher.observe(0x10, 0x1040) == []  # first stride observation

    def test_confirmed_stride_triggers_prefetches(self):
        prefetcher = StridePrefetcher(degree=4, distance=1)
        prefetcher.observe(0x10, 0x1000)
        prefetcher.observe(0x10, 0x1040)
        prefetches = prefetcher.observe(0x10, 0x1080)
        assert prefetches == [0x1080 + 0x40 * step for step in range(1, 5)]

    def test_degree_and_distance_respected(self):
        prefetcher = StridePrefetcher(degree=2, distance=3)
        prefetcher.observe(0x10, 0)
        prefetcher.observe(0x10, 8)
        prefetches = prefetcher.observe(0x10, 16)
        assert prefetches == [16 + 8 * 3, 16 + 8 * 4]

    def test_negative_strides_supported(self):
        prefetcher = StridePrefetcher(degree=2)
        prefetcher.observe(0x10, 0x1000)
        prefetcher.observe(0x10, 0x0FC0)
        prefetches = prefetcher.observe(0x10, 0x0F80)
        assert prefetches == [0x0F80 - 0x40, 0x0F80 - 0x80]

    def test_irregular_pattern_does_not_prefetch(self):
        prefetcher = StridePrefetcher(degree=4)
        addresses = [0x0, 0x100, 0x40, 0x900, 0x10]
        issued = []
        for address in addresses:
            issued.extend(prefetcher.observe(0x10, address))
        assert issued == []

    def test_distinct_pcs_tracked_separately(self):
        prefetcher = StridePrefetcher(degree=1)
        for address in (0, 8, 16):
            prefetcher.observe(0x1, address)
        for address in (0, 64, 128):
            prefetcher.observe(0x2, address)
        assert prefetcher.observe(0x1, 24) == [32]
        assert prefetcher.observe(0x2, 192) == [256]

    def test_table_capacity_bounded(self):
        prefetcher = StridePrefetcher(table_entries=4)
        for pc in range(10):
            prefetcher.observe(pc, pc * 0x1000)
        assert len(prefetcher._table) <= 4
