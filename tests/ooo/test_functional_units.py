"""Tests for the functional-unit pool."""

import pytest

from repro.errors import ConfigurationError
from repro.isa.opcode import OpClass
from repro.ooo.functional_units import FunctionalUnitConfig, FunctionalUnitPool


class TestConfig:
    def test_defaults_match_table1(self):
        config = FunctionalUnitConfig()
        assert config.alu == 6
        assert config.mul_div == 4
        assert config.fp == 6
        assert config.fp_mul_div == 4
        assert config.mem_ports == 4

    def test_units_for_lookup(self):
        """Every operation class draws from some pool of a fresh machine."""
        for opclass in OpClass:
            assert FunctionalUnitPool().try_issue(opclass, cycle=1, latency=1), opclass

    def test_invalid_counts_rejected(self):
        with pytest.raises(ConfigurationError):
            FunctionalUnitPool(FunctionalUnitConfig(alu=0))


class TestIssueLimits:
    def test_per_cycle_alu_limit(self):
        pool = FunctionalUnitPool(FunctionalUnitConfig(alu=2))
        assert pool.try_issue(OpClass.INT_ALU, cycle=1, latency=1)
        assert pool.try_issue(OpClass.INT_ALU, cycle=1, latency=1)
        assert not pool.try_issue(OpClass.INT_ALU, cycle=1, latency=1)

    def test_counters_reset_each_cycle(self):
        pool = FunctionalUnitPool(FunctionalUnitConfig(alu=1))
        assert pool.try_issue(OpClass.INT_ALU, cycle=1, latency=1)
        assert pool.try_issue(OpClass.INT_ALU, cycle=2, latency=1)

    def test_branches_share_alu_pool(self):
        pool = FunctionalUnitPool(FunctionalUnitConfig(alu=1))
        assert pool.try_issue(OpClass.BR_COND, cycle=3, latency=1)
        assert not pool.try_issue(OpClass.INT_ALU, cycle=3, latency=1)

    def test_memory_port_limit(self):
        pool = FunctionalUnitPool(FunctionalUnitConfig(mem_ports=2))
        assert pool.try_issue(OpClass.LOAD, cycle=0, latency=1)
        assert pool.try_issue(OpClass.STORE, cycle=0, latency=1)
        assert not pool.try_issue(OpClass.LOAD, cycle=0, latency=1)

    def test_unpipelined_divider_blocks_for_full_latency(self):
        pool = FunctionalUnitPool(FunctionalUnitConfig(mul_div=1))
        assert pool.try_issue(OpClass.INT_DIV, cycle=0, latency=25)
        # Pipelined multiplies share the group per-cycle limit, but the single divider
        # stays busy: another divide cannot start before cycle 25.
        assert not pool.try_issue(OpClass.INT_DIV, cycle=10, latency=25)
        assert pool.try_issue(OpClass.INT_DIV, cycle=25, latency=25)

    def test_pipelined_multiplies_issue_back_to_back(self):
        pool = FunctionalUnitPool(FunctionalUnitConfig(mul_div=2))
        assert pool.try_issue(OpClass.INT_MUL, cycle=0, latency=3)
        assert pool.try_issue(OpClass.INT_MUL, cycle=1, latency=3)
        assert pool.try_issue(OpClass.INT_MUL, cycle=2, latency=3)

    def test_fp_divider_unpipelined(self):
        pool = FunctionalUnitPool(FunctionalUnitConfig(fp_mul_div=1))
        assert pool.try_issue(OpClass.FP_DIV, cycle=0, latency=10)
        assert not pool.try_issue(OpClass.FP_DIV, cycle=5, latency=10)
