"""Tests for the load/store queue: forwarding and ordering-violation detection."""

import pytest

from repro.errors import ConfigurationError
from repro.isa.microop import MicroOp
from repro.isa.opcode import Opcode
from repro.ooo.inflight import InflightOp
from repro.ooo.lsq import LoadStoreQueue


def _load(seq: int, addr: int) -> InflightOp:
    uop = MicroOp(Opcode.LD, dst=1, srcs=(2,), imm=0)
    return InflightOp(seq, seq, uop, addr)


def _store(seq: int, addr: int) -> InflightOp:
    uop = MicroOp(Opcode.ST, srcs=(2, 3), imm=0)
    return InflightOp(seq, seq, uop, addr)


def _dispatch(lsq: LoadStoreQueue, *ops: InflightOp) -> None:
    """Append memory µ-ops to their queues, as the simulator's dispatch stage does."""
    for op in ops:
        (lsq._loads if op.uop.is_load else lsq._stores).append(op)


class TestCapacity:
    def test_validation(self):
        with pytest.raises(ConfigurationError):
            LoadStoreQueue(lq_capacity=0)

    def test_space_accounting_per_queue(self):
        """Dispatch fills each queue up to its own capacity and stalls, never past it."""
        from repro.pipeline.config import named_config
        from repro.pipeline.simulator import Simulator
        from repro.workloads.suite import workload
        from tests.conftest import replay_trace

        config = named_config("Baseline_VP_6_64").derive(lq_size=4, sq_size=2)
        wl = workload("milc")
        simulator = Simulator(config, replay_trace(config, wl.program, 1500, wl.make_state()), 1500)
        assert simulator.run().full_stats.lsq_full_stalls > 0
        assert (simulator.lsq.peak_lq_occupancy, simulator.lsq.peak_sq_occupancy) == (4, 2)

    def test_remove_and_occupancy(self):
        lsq = LoadStoreQueue(lq_capacity=1)
        load, store = _load(0, 0x10), _store(1, 0x20)
        _dispatch(lsq, load, store)
        lsq.remove(load)
        assert list(lsq._loads) == [] and list(lsq._stores) == [store]
        lsq.remove(load)  # idempotent
        lsq.remove(store)
        assert list(lsq._stores) == []

    def test_remove_squashed(self):
        lsq = LoadStoreQueue()
        a, b = _load(0, 0x10), _store(1, 0x20)
        kept = _load(2, 0x30)
        _dispatch(lsq, a, b, kept)
        a.squashed = True
        b.squashed = True
        lsq.remove_squashed()
        assert list(lsq._loads) == [kept] and list(lsq._stores) == []


class TestForwarding:
    def test_older_executed_store_forwards_to_load(self):
        lsq = LoadStoreQueue()
        store = _store(1, 0x100)
        store.issued = True
        load = _load(2, 0x100)
        _dispatch(lsq, store, load)
        assert lsq.forwarding_store(load) is store

    def test_unexecuted_store_does_not_forward(self):
        lsq = LoadStoreQueue()
        store = _store(1, 0x100)
        load = _load(2, 0x100)
        _dispatch(lsq, store, load)
        assert lsq.forwarding_store(load) is None

    def test_younger_store_never_forwards(self):
        lsq = LoadStoreQueue()
        load = _load(1, 0x100)
        store = _store(2, 0x100)
        store.issued = True
        _dispatch(lsq, load, store)
        assert lsq.forwarding_store(load) is None

    def test_youngest_older_matching_store_wins(self):
        lsq = LoadStoreQueue()
        old, newer = _store(1, 0x100), _store(2, 0x100)
        old.issued = newer.issued = True
        load = _load(3, 0x100)
        _dispatch(lsq, old, newer, load)
        assert lsq.forwarding_store(load) is newer

    def test_different_address_does_not_forward(self):
        lsq = LoadStoreQueue()
        store = _store(1, 0x200)
        store.issued = True
        load = _load(2, 0x100)
        _dispatch(lsq, store, load)
        assert lsq.forwarding_store(load) is None


class TestViolations:
    def test_store_detects_younger_executed_load_to_same_address(self):
        lsq = LoadStoreQueue()
        store = _store(1, 0x300)
        load = _load(2, 0x300)
        load.issued = True
        _dispatch(lsq, store, load)
        assert lsq.detect_violation(store) is load

    def test_unexecuted_younger_load_is_safe(self):
        lsq = LoadStoreQueue()
        store = _store(1, 0x300)
        load = _load(2, 0x300)
        _dispatch(lsq, store, load)
        assert lsq.detect_violation(store) is None

    def test_forwarded_load_is_not_a_violation(self):
        lsq = LoadStoreQueue()
        store = _store(1, 0x300)
        load = _load(2, 0x300)
        load.issued = True
        load.load_forwarded = True
        _dispatch(lsq, store, load)
        assert lsq.detect_violation(store) is None

    def test_oldest_violating_load_returned(self):
        lsq = LoadStoreQueue()
        store = _store(1, 0x300)
        first, second = _load(2, 0x300), _load(3, 0x300)
        first.issued = second.issued = True
        _dispatch(lsq, store, first, second)
        assert lsq.detect_violation(store) is first

    def test_older_load_is_not_flagged(self):
        lsq = LoadStoreQueue()
        load = _load(1, 0x300)
        load.issued = True
        store = _store(2, 0x300)
        _dispatch(lsq, load, store)
        assert lsq.detect_violation(store) is None
