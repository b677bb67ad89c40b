"""Tests for the DDR3-like DRAM latency model."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigurationError
from repro.mem.dram import DRAMModel


class TestDRAM:
    def test_invalid_latency_window_rejected(self):
        with pytest.raises(ConfigurationError):
            DRAMModel(min_latency=0)
        with pytest.raises(ConfigurationError):
            DRAMModel(min_latency=100, max_latency=50)

    def test_first_access_pays_row_conflict(self):
        dram = DRAMModel()
        latency = dram.read(0x1000, cycle=0)
        assert latency == min(75 + 36, 185)
        assert dram.stats.row_conflicts == 1

    def test_row_hit_is_minimum_latency(self):
        dram = DRAMModel()
        dram.read(0x1000, cycle=0)
        latency = dram.read(0x1008, cycle=1000)
        assert latency == 75
        assert dram.stats.row_hits == 1

    def test_row_conflict_after_switching_rows(self):
        dram = DRAMModel()
        dram.read(0x1000, cycle=0)
        far_away = 0x1000 + dram.row_size * dram.num_banks  # same bank, next row
        latency = dram.read(far_away, cycle=1000)
        assert latency > 75

    def test_bank_queueing_delays_back_to_back_requests(self):
        dram = DRAMModel()
        first = dram.read(0x2000, cycle=0)
        second = dram.read(0x2008, cycle=1)  # same bank, immediately after
        assert second > 75  # pays queueing behind the busy bank
        assert dram.stats.queueing_cycles > 0
        assert first <= 185 and second <= 185

    def test_different_banks_do_not_queue(self):
        dram = DRAMModel()
        dram.read(0x0, cycle=0)
        other_bank = dram.row_size  # next bank
        dram.read(other_bank, cycle=1)
        assert dram.stats.queueing_cycles == 0

    def test_row_hit_rate(self):
        dram = DRAMModel()
        dram.read(0x0, 0)
        dram.read(0x8, 500)
        dram.read(0x10, 1000)
        assert (dram.stats.row_hits, dram.stats.reads) == (2, 3)

    @settings(max_examples=50, deadline=None)
    @given(
        st.integers(min_value=0, max_value=(1 << 30)),
        st.integers(min_value=0, max_value=1 << 20),
    )
    def test_latency_always_within_table1_window(self, address, cycle):
        dram = DRAMModel()
        latency = dram.read(address, cycle)
        assert 75 <= latency <= 185
