"""Tests for the set-associative cache model."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigurationError
from repro.mem.cache import Cache


def _small_cache(**kwargs):
    kwargs.setdefault("size_bytes", 1024)
    kwargs.setdefault("associativity", 2)
    kwargs.setdefault("line_size", 64)
    return Cache("test", **kwargs)


def _holds(cache: Cache, address: int) -> bool:
    """True if ``address``'s line is resident, read without touching LRU or stats."""
    line = address // cache.line_size
    return line in cache._sets[line % cache.num_sets]


class TestGeometry:
    def test_invalid_geometry_rejected(self):
        with pytest.raises(ConfigurationError):
            Cache("bad", size_bytes=1000, associativity=3, line_size=64)
        with pytest.raises(ConfigurationError):
            Cache("bad", size_bytes=0, associativity=1)

    def test_set_count(self):
        cache = _small_cache()
        assert cache.num_sets == 1024 // (64 * 2)

    def test_line_address(self):
        cache = _small_cache()
        assert not cache.access(0)
        assert cache.access(63)  # same 64-byte line
        assert not cache.access(64)  # the next line


class TestAccessBehaviour:
    def test_cold_miss_then_hit(self):
        cache = _small_cache()
        assert not cache.access(0x100)
        assert cache.access(0x100)
        assert cache.stats.misses == 1 and cache.stats.hits == 1

    def test_same_line_different_offsets_hit(self):
        cache = _small_cache()
        cache.access(0x100)
        assert cache.access(0x13F)

    def test_lru_eviction(self):
        cache = _small_cache()  # 8 sets, 2 ways
        stride = cache.num_sets * cache.line_size
        a, b, c = 0x0, stride, 2 * stride  # same set
        cache.access(a)
        cache.access(b)
        cache.access(c)  # evicts a
        assert not _holds(cache, a)
        assert _holds(cache, b) and _holds(cache, c)

    def test_access_refreshes_lru(self):
        cache = _small_cache()
        stride = cache.num_sets * cache.line_size
        a, b, c = 0x0, stride, 2 * stride
        cache.access(a)
        cache.access(b)
        cache.access(a)  # a MRU again
        cache.access(c)  # evicts b
        assert _holds(cache, a) and not _holds(cache, b)

    def test_prefetch_fill_installs_without_demand_stats(self):
        cache = _small_cache()
        cache.fill(0x200)
        assert cache.stats.accesses == cache.stats.hits == cache.stats.misses == 0
        assert _holds(cache, 0x200)

    def test_hit_and_miss_rates(self):
        cache = _small_cache()
        cache.access(0)
        cache.access(0)
        cache.access(64 * 1024)
        assert cache.stats.hit_rate == pytest.approx(1 / 3)
        assert cache.stats.miss_rate == pytest.approx(2 / 3)

    @settings(max_examples=30, deadline=None)
    @given(st.lists(st.integers(min_value=0, max_value=1 << 20), min_size=1, max_size=200))
    def test_occupancy_never_exceeds_capacity(self, addresses):
        cache = _small_cache()
        for address in addresses:
            cache.access(address)
        total_lines = sum(len(ways) for ways in cache._sets)
        assert total_lines <= cache.num_sets * cache.associativity

    @settings(max_examples=30, deadline=None)
    @given(st.lists(st.integers(min_value=0, max_value=1 << 14), min_size=1, max_size=50))
    def test_working_set_smaller_than_capacity_always_hits_second_pass(self, addresses):
        cache = Cache("big", size_bytes=64 * 1024, associativity=16, line_size=64)
        for address in addresses:
            cache.access(address)
        assert all(cache.access(address) for address in addresses)


class TestMSHR:
    def test_no_delay_when_mshrs_available(self):
        cache = _small_cache(mshrs=4)
        assert cache.mshr_delay(cycle=0, completion_cycle=100) == 0

    def test_delay_when_all_mshrs_busy(self):
        cache = _small_cache(mshrs=2)
        cache.mshr_delay(cycle=0, completion_cycle=100)
        cache.mshr_delay(cycle=0, completion_cycle=120)
        delay = cache.mshr_delay(cycle=0, completion_cycle=140)
        assert delay == 100

    def test_mshrs_free_after_completion(self):
        cache = _small_cache(mshrs=1)
        cache.mshr_delay(cycle=0, completion_cycle=10)
        assert cache.mshr_delay(cycle=20, completion_cycle=40) == 0
