"""Tests for the branch target buffer and return-address stack."""

import pytest

from repro.bpu.btb import BranchTargetBuffer, ReturnAddressStack
from repro.errors import ConfigurationError


class TestBTB:
    def test_geometry_validation(self):
        with pytest.raises(ConfigurationError):
            BranchTargetBuffer(entries=7, associativity=2)

    def test_miss_then_hit(self):
        btb = BranchTargetBuffer(entries=64, associativity=2)
        assert btb.lookup(0x10) is None
        btb.update(0x10, 0x99)
        assert btb.lookup(0x10) == 0x99
        assert btb.hits == 1 and btb.misses == 1

    def test_update_refreshes_target(self):
        btb = BranchTargetBuffer(entries=64, associativity=2)
        btb.update(0x10, 1)
        btb.update(0x10, 2)
        assert btb.lookup(0x10) == 2

    def test_lru_eviction_within_set(self):
        btb = BranchTargetBuffer(entries=8, associativity=2)  # 4 sets
        sets = btb.num_sets
        a, b, c = 0x1, 0x1 + sets, 0x1 + 2 * sets  # all map to the same set
        btb.update(a, 10)
        btb.update(b, 20)
        btb.update(c, 30)  # evicts a (LRU)
        assert btb.lookup(a) is None
        assert btb.lookup(b) == 20
        assert btb.lookup(c) == 30

    def test_lookup_refreshes_recency(self):
        btb = BranchTargetBuffer(entries=8, associativity=2)
        sets = btb.num_sets
        a, b, c = 0x2, 0x2 + sets, 0x2 + 2 * sets
        btb.update(a, 10)
        btb.update(b, 20)
        btb.lookup(a)  # a becomes MRU
        btb.update(c, 30)  # evicts b
        assert btb.lookup(a) == 10
        assert btb.lookup(b) is None

    def test_hit_rate(self):
        btb = BranchTargetBuffer(entries=64, associativity=2)
        btb.update(1, 2)
        btb.lookup(1)
        btb.lookup(3)
        assert btb.hit_rate == 0.5


class TestRAS:
    def test_push_pop_round_trip(self):
        ras = ReturnAddressStack(entries=4)
        ras.push(10)
        ras.push(20)
        assert ras.pop() == 20
        assert ras.pop() == 10

    def test_underflow_returns_none(self):
        ras = ReturnAddressStack(entries=4)
        assert ras.pop() is None
        assert ras.depth == 0
        ras.push(7)  # an underflow leaves no stale entry behind
        assert ras.pop() == 7 and ras.pop() is None

    def test_overflow_drops_oldest(self):
        ras = ReturnAddressStack(entries=2)
        ras.push(1)
        ras.push(2)
        ras.push(3)
        assert ras.depth == 2
        assert ras.pop() == 3
        assert ras.pop() == 2
        assert ras.pop() is None

    def test_depth(self):
        ras = ReturnAddressStack(entries=8)
        ras.push(1)
        assert ras.depth == 1

    def test_invalid_capacity_rejected(self):
        with pytest.raises(ConfigurationError):
            ReturnAddressStack(entries=0)
