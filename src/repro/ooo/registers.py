"""Physical Register File (PRF) model: banking and port budgets.

EOLE's hardware argument (Section 6) revolves around PRF ports:

* value prediction needs extra *write* ports (predictions written at dispatch) and
  extra *read* ports (validation/training and Late Execution at the pre-commit stage);
* banking the PRF and allocating the destination registers of consecutive µ-ops to
  different banks caps the per-bank port requirement (Fig. 9/10);
* limiting the LE/VT read ports per bank (Fig. 11) trades a little performance for a
  register file whose total port count matches a 6-issue baseline *without* VP.

This module models exactly those mechanisms: round-robin bank allocation, per-bank
free-register accounting (the "load unbalancing" stall of Fig. 10), and per-cycle
per-bank port budgets for Early-Execution/prediction writes and LE/VT reads.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigurationError


@dataclass
class PRFPortBudget:
    """Per-bank, per-cycle port budgets.  ``None`` means unconstrained."""

    ee_write_ports_per_bank: int | None = None
    levt_read_ports_per_bank: int | None = None


class BankedRegisterFile:
    """Banked PRF with per-bank free lists and per-cycle port accounting."""

    def __init__(
        self,
        num_banks: int = 1,
        total_registers: int = 256,
        architectural_registers: int = 65,
        budget: PRFPortBudget | None = None,
    ) -> None:
        if num_banks <= 0 or total_registers <= 0:
            raise ConfigurationError("PRF banks and register count must be positive")
        if total_registers % num_banks:
            raise ConfigurationError("PRF registers must divide evenly across banks")
        if total_registers <= architectural_registers:
            raise ConfigurationError("PRF must be larger than the architectural register set")
        self.num_banks = num_banks
        self.registers_per_bank = total_registers // num_banks
        self.budget = budget if budget is not None else PRFPortBudget()
        # Architectural state is spread across the banks; those registers are never free.
        base_share = architectural_registers // num_banks
        remainder = architectural_registers % num_banks
        self._reserved = [base_share + (1 if bank < remainder else 0) for bank in range(num_banks)]
        self._allocated = [0] * num_banks
        self._allocation_pointer = 0
        # Lazy per-cycle port counters.
        self._port_cycle = -1
        self._ee_writes_used = [0] * num_banks
        self._levt_reads_used = [0] * num_banks

    # ------------------------------------------------------------------ allocation
    def next_bank(self) -> int:
        """Bank the next dispatched destination register will be allocated in."""
        return self._allocation_pointer

    def can_allocate(self) -> bool:
        """True if the current allocation bank still has a free physical register."""
        bank = self._allocation_pointer
        in_use = self._reserved[bank] + self._allocated[bank]
        return in_use < self.registers_per_bank

    def allocate(self) -> int:
        """Allocate a destination register in the current bank and advance the pointer."""
        bank = self._allocation_pointer
        self._allocated[bank] += 1
        self._allocation_pointer = (self._allocation_pointer + 1) % self.num_banks
        return bank

    def advance_without_allocation(self) -> None:
        """Advance the round-robin pointer for a µ-op with no destination register."""
        self._allocation_pointer = (self._allocation_pointer + 1) % self.num_banks

    def release(self, bank: int) -> None:
        """Free one physical register of ``bank`` (commit of the overwriting µ-op)."""
        if self._allocated[bank] > 0:
            self._allocated[bank] -= 1

    # ------------------------------------------------------------------ port accounting
    def _roll_cycle(self, cycle: int) -> None:
        if cycle != self._port_cycle:
            self._port_cycle = cycle
            self._ee_writes_used = [0] * self.num_banks
            self._levt_reads_used = [0] * self.num_banks

    def try_ee_write(self, bank: int, cycle: int) -> bool:
        """Claim one Early-Execution/prediction write port on ``bank`` at ``cycle``."""
        limit = self.budget.ee_write_ports_per_bank
        if limit is None:
            return True
        self._roll_cycle(cycle)
        if self._ee_writes_used[bank] >= limit:
            return False
        self._ee_writes_used[bank] += 1
        return True

    def try_levt_reads(self, banks: list[int], cycle: int) -> bool:
        """Claim LE/VT read ports (one per entry of ``banks``) atomically at ``cycle``.

        Either all requested reads fit within the per-bank budgets (and are consumed) or
        none are, so the commit stage can retry the whole µ-op next cycle.
        """
        limit = self.budget.levt_read_ports_per_bank
        if limit is None or not banks:
            return True
        self._roll_cycle(cycle)
        if len(banks) == 1:
            # Single-read fast path (the dominant case: validation-only µ-ops),
            # including the general path's monopolise-an-idle-bank rule.
            bank = banks[0]
            used = self._levt_reads_used[bank]
            if used + 1 > limit and not (limit < 1 and used == 0):
                return False
            self._levt_reads_used[bank] = min(self.registers_per_bank, used + 1)
            return True
        needed: dict[int, int] = {}
        for bank in banks:
            needed[bank] = needed.get(bank, 0) + 1
        for bank, count in needed.items():
            if self._levt_reads_used[bank] + count > limit:
                # A request wider than the per-bank budget is allowed to monopolise an
                # otherwise-unused bank for the cycle (in hardware it would serialise
                # over multiple cycles); anything else must retry next cycle.
                if count > limit and self._levt_reads_used[bank] == 0:
                    continue
                return False
        for bank, count in needed.items():
            self._levt_reads_used[bank] = min(
                self.registers_per_bank, self._levt_reads_used[bank] + count
            )
        return True
