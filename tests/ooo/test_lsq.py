"""Tests for the load/store queue: forwarding and ordering-violation detection."""

import pytest

from repro.errors import ConfigurationError
from repro.isa.microop import MicroOp
from repro.isa.opcode import Opcode
from repro.isa.trace import DynInst
from repro.ooo.inflight import InflightOp
from repro.ooo.lsq import LoadStoreQueue


def _load(seq: int, addr: int) -> InflightOp:
    uop = MicroOp(Opcode.LD, dst=1, srcs=(2,), imm=0)
    return InflightOp(DynInst(seq=seq, pc=seq, uop=uop, addr=addr))


def _store(seq: int, addr: int) -> InflightOp:
    uop = MicroOp(Opcode.ST, srcs=(2, 3), imm=0)
    return InflightOp(DynInst(seq=seq, pc=seq, uop=uop, addr=addr))


class TestCapacity:
    def test_validation(self):
        with pytest.raises(ConfigurationError):
            LoadStoreQueue(lq_capacity=0)

    def test_space_accounting_per_queue(self):
        lsq = LoadStoreQueue(lq_capacity=1, sq_capacity=1)
        load, store = _load(0, 0x10), _store(1, 0x20)
        assert lsq.has_space(load)
        lsq.insert(load)
        assert not lsq.has_space(_load(2, 0x30))
        assert lsq.has_space(store)  # store queue is separate
        lsq.insert(store)
        assert not lsq.has_space(_store(3, 0x40))

    def test_remove_and_occupancy(self):
        lsq = LoadStoreQueue(lq_capacity=1)
        load = _load(0, 0x10)
        lsq.insert(load)
        assert not lsq.has_space(_load(1, 0x20))
        lsq.remove(load)
        assert lsq.has_space(_load(1, 0x20))
        lsq.remove(load)  # idempotent

    def test_remove_squashed(self):
        lsq = LoadStoreQueue(lq_capacity=1, sq_capacity=1)
        a, b = _load(0, 0x10), _store(1, 0x20)
        lsq.insert(a)
        lsq.insert(b)
        a.squashed = True
        b.squashed = True
        lsq.remove_squashed()
        assert lsq.has_space(_load(2, 0x30)) and lsq.has_space(_store(3, 0x40))


class TestForwarding:
    def test_older_executed_store_forwards_to_load(self):
        lsq = LoadStoreQueue()
        store = _store(1, 0x100)
        store.issued = True
        load = _load(2, 0x100)
        lsq.insert(store)
        lsq.insert(load)
        assert lsq.forwarding_store(load) is store

    def test_unexecuted_store_does_not_forward(self):
        lsq = LoadStoreQueue()
        store = _store(1, 0x100)
        load = _load(2, 0x100)
        lsq.insert(store)
        lsq.insert(load)
        assert lsq.forwarding_store(load) is None

    def test_younger_store_never_forwards(self):
        lsq = LoadStoreQueue()
        load = _load(1, 0x100)
        store = _store(2, 0x100)
        store.issued = True
        lsq.insert(load)
        lsq.insert(store)
        assert lsq.forwarding_store(load) is None

    def test_youngest_older_matching_store_wins(self):
        lsq = LoadStoreQueue()
        old, newer = _store(1, 0x100), _store(2, 0x100)
        old.issued = newer.issued = True
        load = _load(3, 0x100)
        for op in (old, newer, load):
            lsq.insert(op)
        assert lsq.forwarding_store(load) is newer

    def test_different_address_does_not_forward(self):
        lsq = LoadStoreQueue()
        store = _store(1, 0x200)
        store.issued = True
        load = _load(2, 0x100)
        lsq.insert(store)
        lsq.insert(load)
        assert lsq.forwarding_store(load) is None


class TestViolations:
    def test_store_detects_younger_executed_load_to_same_address(self):
        lsq = LoadStoreQueue()
        store = _store(1, 0x300)
        load = _load(2, 0x300)
        load.issued = True
        lsq.insert(store)
        lsq.insert(load)
        assert lsq.detect_violation(store) is load
        assert lsq.violations == 1

    def test_unexecuted_younger_load_is_safe(self):
        lsq = LoadStoreQueue()
        store = _store(1, 0x300)
        load = _load(2, 0x300)
        lsq.insert(store)
        lsq.insert(load)
        assert lsq.detect_violation(store) is None

    def test_forwarded_load_is_not_a_violation(self):
        lsq = LoadStoreQueue()
        store = _store(1, 0x300)
        load = _load(2, 0x300)
        load.issued = True
        load.load_forwarded = True
        lsq.insert(store)
        lsq.insert(load)
        assert lsq.detect_violation(store) is None

    def test_oldest_violating_load_returned(self):
        lsq = LoadStoreQueue()
        store = _store(1, 0x300)
        first, second = _load(2, 0x300), _load(3, 0x300)
        first.issued = second.issued = True
        for op in (store, first, second):
            lsq.insert(op)
        assert lsq.detect_violation(store) is first

    def test_older_load_is_not_flagged(self):
        lsq = LoadStoreQueue()
        load = _load(1, 0x300)
        load.issued = True
        store = _store(2, 0x300)
        lsq.insert(load)
        lsq.insert(store)
        assert lsq.detect_violation(store) is None
