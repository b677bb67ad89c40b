"""Reorder Buffer (ROB).

Holds every in-flight µ-op in program order between dispatch and commit.  The baseline
machine uses a 192-entry ROB (Table 1, on par with Haswell).
"""

from __future__ import annotations

from collections import deque

from repro.errors import ConfigurationError
from repro.ooo.inflight import InflightOp


class ReorderBuffer:
    """A bounded, in-order buffer of in-flight µ-ops.

    Dispatch appends to ``_entries`` against ``capacity`` (and raises
    ``peak_occupancy``) and commit pops its head; both are inlined in the
    simulator's per-µ-op loops.
    """

    def __init__(self, capacity: int = 192) -> None:
        if capacity <= 0:
            raise ConfigurationError("ROB capacity must be positive")
        self.capacity = capacity
        self._entries: deque[InflightOp] = deque()
        self.peak_occupancy = 0

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
