"""Set-associative cache model with LRU replacement and MSHR accounting.

The timing simulator uses caches as *latency oracles*: an access at a given cycle
returns whether it hit and lets the hierarchy accumulate the resulting latency.  Tag
arrays and replacement state are modelled exactly; contention is approximated through a
bounded number of MSHRs (outstanding misses) per cache, matching the baseline's 64-MSHR
L1D/L2 (Table 1).
"""

from __future__ import annotations

from repro.errors import ConfigurationError


class CacheStatistics:
    """Demand hit/miss counters of one cache level."""

    __slots__ = ("accesses", "hits", "misses")

    def __init__(self) -> None:
        self.accesses = 0
        self.hits = 0
        self.misses = 0

    @property
    def hit_rate(self) -> float:
        """Hit rate over demand accesses."""
        return self.hits / self.accesses if self.accesses else 0.0

    @property
    def miss_rate(self) -> float:
        """Miss rate over demand accesses."""
        return self.misses / self.accesses if self.accesses else 0.0


class Cache:
    """One level of cache: set-associative, LRU, write-allocate."""

    def __init__(
        self,
        name: str,
        size_bytes: int,
        associativity: int,
        line_size: int = 64,
        latency: int = 2,
        mshrs: int = 64,
    ) -> None:
        if size_bytes <= 0 or line_size <= 0 or associativity <= 0:
            raise ConfigurationError(f"{name}: cache geometry must be positive")
        if size_bytes % (line_size * associativity):
            raise ConfigurationError(f"{name}: size must be a multiple of line*associativity")
        self.name = name
        self.size_bytes = size_bytes
        self.associativity = associativity
        self.line_size = line_size
        self.latency = latency
        self.mshrs = mshrs
        self.num_sets = size_bytes // (line_size * associativity)
        # Each set is an MRU-ordered list of line tags.
        self._sets: list[list[int]] = [[] for _ in range(self.num_sets)]
        # Completion cycles of outstanding misses (bounded by the MSHR count).
        self._outstanding: list[int] = []
        self.stats = CacheStatistics()

    # ------------------------------------------------------------------ access
    def access(self, address: int, *, is_prefetch: bool = False) -> bool:
        """Access ``address``; returns hit/miss and updates LRU + contents.

        Misses allocate the line (write-allocate for stores as well); the caller is
        responsible for charging the next-level latency.
        """
        line = address // self.line_size
        ways = self._sets[line % self.num_sets]
        if not is_prefetch:
            self.stats.accesses += 1
        if ways and ways[0] == line:
            # Already most-recently-used (the dominant case for sequential
            # instruction fetch): hit with no list reshuffle.
            if not is_prefetch:
                self.stats.hits += 1
            return True
        if line in ways:
            if not is_prefetch:
                self.stats.hits += 1
            ways.remove(line)
            ways.insert(0, line)
            return True
        if not is_prefetch:
            self.stats.misses += 1
        ways.insert(0, line)
        if len(ways) > self.associativity:
            ways.pop()
        return False

    def fill(self, address: int) -> None:
        """Install a line without counting a demand access (prefetch fill)."""
        self.access(address, is_prefetch=True)

    # ------------------------------------------------------------------ MSHRs
    def mshr_delay(self, cycle: int, completion_cycle: int) -> int:
        """Account an outstanding miss; returns extra delay if all MSHRs are busy."""
        self._outstanding = [c for c in self._outstanding if c > cycle]
        delay = 0
        if len(self._outstanding) >= self.mshrs:
            earliest = min(self._outstanding)
            delay = max(0, earliest - cycle)
        self._outstanding.append(completion_cycle + delay)
        return delay
