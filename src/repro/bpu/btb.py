"""Branch Target Buffer (BTB) — set-associative target cache.

The baseline front-end (Table 1) uses a 2-way, 4K-entry BTB.  In the trace-driven model
the BTB matters in two ways:

* a taken branch whose target is absent from the BTB incurs a front-end redirect
  (the target becomes known at decode for direct branches, at execute for indirect
  ones);
* indirect branches are predicted with the last target stored in the BTB, so a changing
  indirect target is a misprediction resolved at execute time.
"""

from __future__ import annotations

from repro.errors import ConfigurationError


class BranchTargetBuffer:
    """A set-associative branch target buffer with LRU replacement."""

    def __init__(self, entries: int = 4096, associativity: int = 2) -> None:
        if entries <= 0 or entries % associativity:
            raise ConfigurationError("BTB entries must be a positive multiple of associativity")
        self.entries = entries
        self.associativity = associativity
        self.num_sets = entries // associativity
        # Each set is an ordered list of (pc, target); index 0 is the MRU way.
        self._sets: list[list[tuple[int, int]]] = [[] for _ in range(self.num_sets)]
        self.hits = 0
        self.misses = 0

    def _set_index(self, pc: int) -> int:
        return pc % self.num_sets

    def lookup(self, pc: int) -> int | None:
        """Predicted target of the branch at ``pc`` (``None`` on a BTB miss)."""
        ways = self._sets[self._set_index(pc)]
        for position, (tag, target) in enumerate(ways):
            if tag == pc:
                self.hits += 1
                if position:
                    ways.insert(0, ways.pop(position))
                return target
        self.misses += 1
        return None

    def update(self, pc: int, target: int) -> None:
        """Install or refresh the target of the branch at ``pc``."""
        ways = self._sets[self._set_index(pc)]
        for position, (tag, _) in enumerate(ways):
            if tag == pc:
                ways.pop(position)
                break
        ways.insert(0, (pc, target))
        if len(ways) > self.associativity:
            ways.pop()

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups that hit."""
        total = self.hits + self.misses
        return self.hits / total if total else 0.0


class ReturnAddressStack:
    """Circular return-address stack (Table 1: 32 entries)."""

    def __init__(self, entries: int = 32) -> None:
        if entries <= 0:
            raise ConfigurationError("RAS must have at least one entry")
        self.entries = entries
        self._stack: list[int] = []

    def push(self, return_pc: int) -> None:
        """Record the return address of a call."""
        self._stack.append(return_pc)
        if len(self._stack) > self.entries:
            # Oldest entry is lost, like a hardware circular stack wrapping around.
            self._stack.pop(0)

    def pop(self) -> int | None:
        """Predicted return target (``None`` if the stack has underflowed)."""
        if not self._stack:
            return None
        return self._stack.pop()

    @property
    def depth(self) -> int:
        """Current number of valid entries."""
        return len(self._stack)
