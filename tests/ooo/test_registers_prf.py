"""Tests for the banked physical register file and its port budgets."""

import pytest

from repro.errors import ConfigurationError
from repro.ooo.registers import BankedRegisterFile, PRFPortBudget


def register_file_area_cost(read_ports: int, write_ports: int) -> int:
    """Relative area cost of a register file: ``(R + W) * (R + 2W)`` (Zyuban & Kogge,
    the proportionality the paper's Section 6.2 uses)."""
    return (read_ports + write_ports) * (read_ports + 2 * write_ports)


class TestAreaCost:
    def test_formula_matches_paper_example(self):
        """Section 6.2: EOLE_4_64 without banking needs (24R,12W) ≈ 4x the (20R,8W)-ish baseline."""
        baseline = register_file_area_cost(12, 6)  # 6-issue baseline: 12R, 6W
        eole_unbanked = register_file_area_cost(24, 12)
        assert eole_unbanked / baseline == pytest.approx(4.0, rel=0.05)

    def test_formula_monotone_in_ports(self):
        assert register_file_area_cost(10, 5) < register_file_area_cost(12, 6)


class TestAllocation:
    def test_configuration_validation(self):
        with pytest.raises(ConfigurationError):
            BankedRegisterFile(num_banks=0)
        with pytest.raises(ConfigurationError):
            BankedRegisterFile(num_banks=3, total_registers=256)
        with pytest.raises(ConfigurationError):
            BankedRegisterFile(num_banks=1, total_registers=64, architectural_registers=65)

    def test_round_robin_bank_allocation(self):
        prf = BankedRegisterFile(num_banks=4, total_registers=256)
        banks = [prf.allocate() for _ in range(8)]
        assert banks == [0, 1, 2, 3, 0, 1, 2, 3]

    def test_ops_without_destination_still_advance_the_pointer(self):
        prf = BankedRegisterFile(num_banks=4, total_registers=256)
        prf.allocate()
        prf.advance_without_allocation()
        assert prf.next_bank() == 2

    def test_release_frees_bank_register(self):
        prf = BankedRegisterFile(num_banks=2, total_registers=128)
        bank = prf.allocate()
        assert prf._allocated[bank] == 1
        prf.release(bank)
        assert prf._allocated[bank] == 0

    def test_bank_exhaustion_detected(self):
        prf = BankedRegisterFile(num_banks=2, total_registers=72, architectural_registers=65)
        # Bank 0 reserves 33 architectural entries out of 36; 3 free registers.
        free_in_bank0 = prf.registers_per_bank - prf._reserved[0]
        for _ in range(free_in_bank0):
            assert prf.can_allocate()
            prf.allocate()
            prf.advance_without_allocation()  # come back to bank 0
        assert not prf.can_allocate()


class TestPortBudgets:
    def test_unconstrained_budget_always_grants(self):
        prf = BankedRegisterFile(num_banks=4, total_registers=256)
        assert all(prf.try_ee_write(0, cycle=1) for _ in range(100))
        assert prf.try_levt_reads([0, 0, 0, 0, 0], cycle=1)

    def test_ee_write_ports_limited_per_bank_per_cycle(self):
        budget = PRFPortBudget(ee_write_ports_per_bank=2)
        prf = BankedRegisterFile(num_banks=4, total_registers=256, budget=budget)
        assert prf.try_ee_write(0, cycle=5)
        assert prf.try_ee_write(0, cycle=5)
        assert not prf.try_ee_write(0, cycle=5)
        assert prf.try_ee_write(1, cycle=5)  # other bank unaffected
        assert prf.try_ee_write(0, cycle=6)  # next cycle resets

    def test_levt_reads_are_all_or_nothing(self):
        budget = PRFPortBudget(levt_read_ports_per_bank=2)
        prf = BankedRegisterFile(num_banks=4, total_registers=256, budget=budget)
        assert prf.try_levt_reads([0, 0], cycle=3)
        # A request needing one more port on bank 0 must not partially consume bank 1.
        assert not prf.try_levt_reads([0, 1], cycle=3)
        assert prf.try_levt_reads([1, 1], cycle=3)

    def test_levt_reads_empty_request_granted(self):
        budget = PRFPortBudget(levt_read_ports_per_bank=1)
        prf = BankedRegisterFile(num_banks=2, total_registers=128, budget=budget)
        assert prf.try_levt_reads([], cycle=0)

    def test_port_counters_reset_per_cycle(self):
        budget = PRFPortBudget(levt_read_ports_per_bank=1)
        prf = BankedRegisterFile(num_banks=2, total_registers=128, budget=budget)
        assert prf.try_levt_reads([0], cycle=0)
        assert not prf.try_levt_reads([0], cycle=0)
        assert prf.try_levt_reads([0], cycle=1)
