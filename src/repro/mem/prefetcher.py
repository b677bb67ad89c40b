"""Stride prefetcher attached to the L2 cache (Table 1: degree 8, distance 1).

The prefetcher observes demand accesses (PC, address), detects constant strides per
static load/store, and issues prefetch fills for the next ``degree`` lines.  It is the
reason strided-streaming workloads (e.g. the ``libquantum``-like analogues) do not pay a
DRAM access per element.
"""

from __future__ import annotations

from repro.errors import ConfigurationError


class StridePrefetcher:
    """Per-PC stride detector issuing ``degree`` prefetches at ``distance`` strides ahead."""

    def __init__(self, degree: int = 8, distance: int = 1, table_entries: int = 256) -> None:
        if degree <= 0 or distance <= 0 or table_entries <= 0:
            raise ConfigurationError("prefetcher parameters must be positive")
        self.degree = degree
        self.distance = distance
        self.table_entries = table_entries
        # pc -> (last_address, last_stride, confidence)
        self._table: dict[int, tuple[int, int, int]] = {}

    def observe(self, pc: int, address: int) -> list[int]:
        """Record a demand access and return the addresses to prefetch (possibly empty)."""
        entry = self._table.get(pc)
        prefetches: list[int] = []
        if entry is None:
            if len(self._table) >= self.table_entries:
                # Evict an arbitrary (oldest-inserted) entry to bound the table.
                self._table.pop(next(iter(self._table)))
            self._table[pc] = (address, 0, 0)
            return prefetches
        last_address, last_stride, confidence = entry
        stride = address - last_address
        if stride != 0 and stride == last_stride:
            confidence = min(confidence + 1, 3)
        elif stride != 0:
            confidence = 0
        if confidence >= 1 and stride != 0:
            for step in range(self.distance, self.distance + self.degree):
                prefetches.append(address + stride * step)
        self._table[pc] = (address, stride if stride != 0 else last_stride, confidence)
        return prefetches
