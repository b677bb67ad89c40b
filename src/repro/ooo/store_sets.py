"""Store Sets memory-dependence predictor (Chrysos & Emer, ISCA 1998).

The baseline machine (Table 1) uses a 1K-entry SSIT / 1K-entry LFST Store Sets
predictor: loads and stores that have conflicted in the past are assigned to the same
*store set*; a load dispatching while a store of its set is in flight must wait for that
store to execute before issuing.  This is what lets independent memory instructions
issue out of order without constant ordering violations.
"""

from __future__ import annotations

from repro.errors import ConfigurationError
from repro.ooo.inflight import InflightOp


class StoreSets:
    """SSIT + LFST memory dependence predictor."""

    _INVALID = -1

    def __init__(self, ssit_entries: int = 1024, lfst_entries: int = 1024) -> None:
        for entries in (ssit_entries, lfst_entries):
            if entries <= 0:
                raise ConfigurationError("Store Sets table sizes must be positive")
        self.ssit_entries = ssit_entries
        self.lfst_entries = lfst_entries
        # Store Set ID Table: static PC -> store set id.
        self._ssit: list[int] = [self._INVALID] * ssit_entries
        # Last Fetched Store Table: store set id -> most recent in-flight store µ-op.
        self._lfst: list[InflightOp | None] = [None] * lfst_entries
        self._next_set_id = 0

    # ------------------------------------------------------------------ indexing
    def _ssit_index(self, pc: int) -> int:
        return pc % self.ssit_entries

    def _lfst_index(self, set_id: int) -> int:
        return set_id % self.lfst_entries

    # ------------------------------------------------------------------ dispatch hooks
    def dependence_for_load(self, load: InflightOp) -> InflightOp | None:
        """Store this load must wait for, according to its store set (``None`` if free)."""
        set_id = self._ssit[self._ssit_index(load.pc)]
        if set_id == self._INVALID:
            return None
        store = self._lfst[self._lfst_index(set_id)]
        if store is None or store.squashed or store.issued:
            return None
        return store

    def register_store(self, store: InflightOp) -> None:
        """Record a dispatching store as the last fetched store of its set."""
        set_id = self._ssit[self._ssit_index(store.pc)]
        if set_id == self._INVALID:
            return
        self._lfst[self._lfst_index(set_id)] = store

    def store_executed(self, store: InflightOp) -> None:
        """Clear the LFST entry when the store it names executes."""
        set_id = self._ssit[self._ssit_index(store.pc)]
        if set_id == self._INVALID:
            return
        index = self._lfst_index(set_id)
        if self._lfst[index] is store:
            self._lfst[index] = None

    def store_retired(self, store: InflightOp) -> None:
        """Drop any remaining LFST reference to a retiring store.

        Observably a no-op — a retired store has ``issued`` set, so
        :meth:`dependence_for_load` already ignored it — but required by the
        :class:`~repro.ooo.inflight.InflightOpPool` recycling protocol: a recycled
        record must not linger in the LFST where it could alias a later µ-op.
        """
        set_id = self._ssit[self._ssit_index(store.pc)]
        if set_id == self._INVALID:
            return
        index = self._lfst_index(set_id)
        if self._lfst[index] is store:
            self._lfst[index] = None

    # ------------------------------------------------------------------ training
    def train_violation(self, load_pc: int, store_pc: int) -> None:
        """Assign the violating load and store to a common store set."""
        load_index = self._ssit_index(load_pc)
        store_index = self._ssit_index(store_pc)
        load_set = self._ssit[load_index]
        store_set = self._ssit[store_index]
        if load_set == self._INVALID and store_set == self._INVALID:
            set_id = self._next_set_id
            self._next_set_id = (self._next_set_id + 1) % self.lfst_entries
            self._ssit[load_index] = set_id
            self._ssit[store_index] = set_id
        elif load_set == self._INVALID:
            self._ssit[load_index] = store_set
        elif store_set == self._INVALID:
            self._ssit[store_index] = load_set
        else:
            # Merge: both adopt the smaller set id (the paper's "store set merging").
            merged = min(load_set, store_set)
            self._ssit[load_index] = merged
            self._ssit[store_index] = merged

    def flush_lfst(self) -> None:
        """Invalidate all LFST entries (pipeline squash)."""
        self._lfst = [None] * self.lfst_entries
