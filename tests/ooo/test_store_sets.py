"""Tests for the Store Sets memory-dependence predictor."""

import pytest

from repro.errors import ConfigurationError
from repro.isa.microop import MicroOp
from repro.isa.opcode import Opcode
from repro.ooo.inflight import InflightOp
from repro.ooo.store_sets import StoreSets

LOAD_PC = 0x100
STORE_PC = 0x200


def _load(seq: int, pc: int = LOAD_PC) -> InflightOp:
    return InflightOp(seq, pc, MicroOp(Opcode.LD, dst=1, srcs=(2,), imm=0))


def _store(seq: int, pc: int = STORE_PC) -> InflightOp:
    return InflightOp(seq, pc, MicroOp(Opcode.ST, srcs=(2, 3), imm=0))


class TestStoreSets:
    def test_validation(self):
        with pytest.raises(ConfigurationError):
            StoreSets(ssit_entries=0)

    def test_untrained_load_is_unconstrained(self):
        sets = StoreSets()
        assert sets.dependence_for_load(_load(1)) is None

    def test_trained_dependence_is_enforced(self):
        sets = StoreSets()
        sets.train_violation(LOAD_PC, STORE_PC)
        store = _store(5)
        sets.register_store(store)
        dependence = sets.dependence_for_load(_load(6))
        assert dependence is store

    def test_dependence_cleared_once_store_executes(self):
        sets = StoreSets()
        sets.train_violation(LOAD_PC, STORE_PC)
        store = _store(5)
        sets.register_store(store)
        store.issued = True
        assert sets.dependence_for_load(_load(6)) is None

    def test_store_executed_clears_lfst_entry(self):
        sets = StoreSets()
        sets.train_violation(LOAD_PC, STORE_PC)
        store = _store(5)
        sets.register_store(store)
        sets.store_executed(store)
        assert sets.dependence_for_load(_load(6)) is None

    def test_squashed_store_is_ignored(self):
        sets = StoreSets()
        sets.train_violation(LOAD_PC, STORE_PC)
        store = _store(5)
        sets.register_store(store)
        store.squashed = True
        assert sets.dependence_for_load(_load(6)) is None

    def test_unrelated_store_does_not_constrain_load(self):
        sets = StoreSets()
        sets.train_violation(LOAD_PC, STORE_PC)
        other_store = _store(5, pc=0x999)
        sets.register_store(other_store)
        assert sets.dependence_for_load(_load(6)) is None

    def test_merging_store_sets(self):
        sets = StoreSets()
        sets.train_violation(LOAD_PC, STORE_PC)
        sets.train_violation(LOAD_PC, 0x300)  # second store joins the load's set
        store_a = _store(1, pc=STORE_PC)
        store_b = _store(2, pc=0x300)
        sets.register_store(store_a)
        sets.register_store(store_b)
        # The LFST entry for the (merged) set now names the most recent store.
        assert sets.dependence_for_load(_load(3)) is store_b

    def test_flush_lfst(self):
        sets = StoreSets()
        sets.train_violation(LOAD_PC, STORE_PC)
        sets.register_store(_store(5))
        sets.flush_lfst()
        assert sets.dependence_for_load(_load(6)) is None
