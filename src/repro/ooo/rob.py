"""Reorder Buffer (ROB).

Holds every in-flight µ-op in program order between dispatch and commit.  The baseline
machine uses a 192-entry ROB (Table 1, on par with Haswell).
"""

from __future__ import annotations

from collections import deque

from repro.errors import ConfigurationError, SimulationError
from repro.ooo.inflight import InflightOp


class ReorderBuffer:
    """A bounded, in-order buffer of in-flight µ-ops."""

    def __init__(self, capacity: int = 192) -> None:
        if capacity <= 0:
            raise ConfigurationError("ROB capacity must be positive")
        self.capacity = capacity
        self._entries: deque[InflightOp] = deque()
        self.peak_occupancy = 0
        self.full_stall_cycles = 0

    # ------------------------------------------------------------------ capacity
    def __len__(self) -> int:
        return len(self._entries)

    @property
    def occupancy(self) -> int:
        """Current number of in-flight µ-ops."""
        return len(self._entries)

    def has_space(self, count: int = 1) -> bool:
        """True if ``count`` more µ-ops fit."""
        return len(self._entries) + count <= self.capacity

    # ------------------------------------------------------------------ mutation
    def push(self, op: InflightOp) -> None:
        """Insert ``op`` at the tail (dispatch order)."""
        if not self.has_space():
            raise SimulationError("ROB overflow: push called without space")
        if self._entries and op.seq <= self._entries[-1].seq:
            raise SimulationError("ROB entries must be pushed in increasing sequence order")
        entries = self._entries
        entries.append(op)
        if len(entries) > self.peak_occupancy:
            self.peak_occupancy = len(entries)

    def head(self) -> InflightOp | None:
        """Oldest in-flight µ-op, or ``None`` when empty."""
        return self._entries[0] if self._entries else None

    def squash_from(self, seq: int) -> list[InflightOp]:
        """Remove every µ-op with sequence number >= ``seq`` (youngest first in the ROB tail).

        Returns the squashed µ-ops in program order.  Used for value-misprediction and
        memory-order-violation recovery.
        """
        squashed: list[InflightOp] = []
        while self._entries and self._entries[-1].seq >= seq:
            op = self._entries.pop()
            op.squashed = True
            squashed.append(op)
        squashed.reverse()
        return squashed

    def __iter__(self):
        return iter(self._entries)
