"""Tests for the in-flight µ-op record."""

from repro.isa.microop import MicroOp
from repro.isa.opcode import Opcode
from repro.isa.trace import DynInst
from repro.ooo.inflight import InflightOp, UNKNOWN_CYCLE


def _op(opcode: Opcode = Opcode.ADD) -> InflightOp:
    dst = 1 if opcode is Opcode.ADD else None
    srcs = (2, 3) if opcode is Opcode.ADD else ()
    return InflightOp(DynInst(seq=0, pc=0, uop=MicroOp(opcode, dst=dst, srcs=srcs)))


class TestInflightOp:
    def test_initial_timing_fields_unknown(self):
        op = _op()
        assert op.dispatch_cycle == UNKNOWN_CYCLE
        assert op.issue_cycle == UNKNOWN_CYCLE
        assert op.complete_cycle == UNKNOWN_CYCLE
        assert not op.issued and not op.executed and not op.squashed

    def test_wraps_dynamic_instruction_fields(self):
        op = _op(Opcode.NOP)
        assert op.seq == 0
        assert op.pc == 0
        assert op.uop.opcode is Opcode.NOP


class TestInflightOpPool:
    def _dyn(self, seq: int = 0) -> DynInst:
        return DynInst(seq=seq, pc=seq, uop=MicroOp(Opcode.ADD, dst=1, srcs=(2, 3)))

    def test_acquire_grows_arena_then_recycles(self):
        from repro.ooo.inflight import InflightOpPool

        pool = InflightOpPool()
        first = pool.acquire(self._dyn(0))
        second = pool.acquire(self._dyn(1))
        assert pool.allocated == 2 and first.slot == 0 and second.slot == 1
        pool.release(first)
        assert pool.free_count == 1
        recycled = pool.acquire(self._dyn(2))
        assert recycled is first  # LIFO reuse of the released record
        assert pool.allocated == 2 and pool.free_count == 0

    def test_recycled_record_matches_a_fresh_one(self):
        from repro.ooo.inflight import InflightOpPool

        pool = InflightOpPool()
        op = pool.acquire(self._dyn(0))
        # Dirty every mutable field a pipeline stage touches.
        op.dispatch_cycle = op.complete_cycle = op.avail_cycle = 9
        op.wait_until = 5
        op.iq_waiters = 3
        op.pred_used = op.early_executed = op.late_executed = True
        op.in_issue_queue = op.issued = op.executed = op.squashed = True
        op.dest_bank = 2
        op.load_forwarded = True
        op.producers = (op,)
        op.mem_dependence = op
        pool.release(op)
        dyn = self._dyn(1)
        recycled = pool.acquire(dyn)
        fresh = InflightOp(dyn)
        for name in InflightOp.__slots__:
            if name in ("slot", "fetch_cycle", "dispatch_ready_cycle",
                        "history_snapshot", "issue_cycle", "commit_cycle"):
                continue  # pool-owned / fetch-assigned before any read
            if name in ("dispatch_cycle", "complete_cycle", "wait_until",
                        "unknown_producers", "mem_blocked", "producers",
                        "mem_dependence", "branch_outcome"):
                # Deliberately stale on recycling: a later stage overwrites each
                # of these before any read (see the invariant note in _init).
                continue
            if name == "wake_gen":
                # The wake-up generation deliberately differs on recycling: it is
                # what invalidates stale consumer-list registrations.
                assert recycled.wake_gen > fresh.wake_gen
                continue
            assert getattr(recycled, name) == getattr(fresh, name), name

    def test_retire_defers_until_barrier_drains(self):
        from repro.ooo.inflight import InflightOpPool

        pool = InflightOpPool()
        op = pool.acquire(self._dyn(0))
        pool.retire(op, barrier_seq=7)
        assert pool.deferred_count == 1 and pool.free_count == 0
        pool.promote(oldest_inflight_seq=5)  # ops <= 7 may still read the record
        assert pool.deferred_count == 1 and pool.free_count == 0
        pool.promote(oldest_inflight_seq=8)  # everything <= 7 has drained
        assert pool.deferred_count == 0 and pool.free_count == 1

    def test_promote_with_empty_rob_releases_everything(self):
        from repro.ooo.inflight import InflightOpPool

        pool = InflightOpPool()
        for seq in range(3):
            pool.retire(pool.acquire(self._dyn(seq)), barrier_seq=seq)
        pool.promote(oldest_inflight_seq=None)
        assert pool.deferred_count == 0 and pool.free_count == 3

    def test_simulation_working_set_is_bounded(self):
        from repro.ooo.inflight import InflightOpPool
        from repro.pipeline.config import named_config
        from repro.pipeline.simulator import Simulator
        from repro.workloads.suite import workload
        from tests.conftest import replay_trace

        config, wl = named_config("EOLE_4_64"), workload("gcc")
        trace = replay_trace(config, wl.program, 2000, wl.make_state())
        simulator = Simulator(config, trace, max_uops=2000)
        result = simulator.run()
        assert isinstance(simulator.pool, InflightOpPool)
        # Far more µ-ops were fetched than records ever created: the pool recycles.
        assert result.full_stats.fetched_uops >= 2000
        assert simulator.pool.allocated < result.full_stats.fetched_uops / 2
