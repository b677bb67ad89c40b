"""Single-channel DDR3-like main-memory latency model.

Table 1 of the paper specifies a single channel of DDR3-1600 (11-11-11), 2 ranks,
8 banks per rank, 8K row buffers, with a minimum read latency of 75 cycles and a
maximum of 185 cycles (CPU cycles at 4 GHz).  This model captures the aspects that
matter to the pipeline study:

* row-buffer hits are cheap, row conflicts expensive;
* a bank can only serve one request at a time, so bursts of misses queue up;
* latency is bounded by the paper's [75, 185] cycle window.
"""

from __future__ import annotations

from repro.errors import ConfigurationError


class DRAMStatistics:
    """Access counters of the DRAM model."""

    __slots__ = ("reads", "row_hits", "row_conflicts", "queueing_cycles")

    def __init__(self) -> None:
        self.reads = 0
        self.row_hits = 0
        self.row_conflicts = 0
        self.queueing_cycles = 0


class DRAMModel:
    """Bank-aware open-page DRAM latency model."""

    def __init__(
        self,
        min_latency: int = 75,
        max_latency: int = 185,
        row_conflict_penalty: int = 36,
        ranks: int = 2,
        banks_per_rank: int = 8,
        row_size: int = 8192,
        bank_occupancy: int = 24,
    ) -> None:
        if min_latency <= 0 or max_latency < min_latency:
            raise ConfigurationError("invalid DRAM latency window")
        self.min_latency = min_latency
        self.max_latency = max_latency
        self.row_conflict_penalty = row_conflict_penalty
        self.num_banks = ranks * banks_per_rank
        self.row_size = row_size
        self.bank_occupancy = bank_occupancy
        self._open_rows: list[int | None] = [None] * self.num_banks
        self._bank_ready: list[int] = [0] * self.num_banks
        self.stats = DRAMStatistics()

    def _bank_of(self, address: int) -> int:
        return (address // self.row_size) % self.num_banks

    def _row_of(self, address: int) -> int:
        return address // (self.row_size * self.num_banks)

    def read(self, address: int, cycle: int) -> int:
        """Latency (in CPU cycles) of a read issued at ``cycle``."""
        self.stats.reads += 1
        bank = self._bank_of(address)
        row = self._row_of(address)
        latency = self.min_latency
        if self._open_rows[bank] == row:
            self.stats.row_hits += 1
        else:
            self.stats.row_conflicts += 1
            latency += self.row_conflict_penalty
            self._open_rows[bank] = row
        queue_delay = max(0, self._bank_ready[bank] - cycle)
        self.stats.queueing_cycles += queue_delay
        latency += queue_delay
        latency = min(latency, self.max_latency)
        self._bank_ready[bank] = cycle + queue_delay + self.bank_occupancy
        return latency
