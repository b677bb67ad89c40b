"""The cycle-level EOLE pipeline simulator.

This is the timing model tying every substrate together.  It is a trace-driven,
correct-path, cycle-by-cycle model of the machine described in Table 1 of the paper,
optionally augmented with value prediction (validation at commit, squash recovery) and
with the EOLE Early/Late Execution blocks.

Each simulated cycle processes, in order:

1. **completions** — µ-ops finishing execution this cycle (branch resolution, memory
   ordering checks);
2. **commit / LE-VT** — in-order retirement of up to ``commit_width`` µ-ops, including
   Late Execution, prediction validation, predictor training and squash on value
   misprediction;
3. **issue** — age-ordered select of up to ``issue_width`` ready µ-ops from the IQ,
   bounded by the functional-unit pool;
4. **rename/dispatch** — up to ``rename_width`` µ-ops leave the front-end, get renamed,
   classified for Early/Late Execution, and allocated ROB/IQ/LSQ/PRF resources;
5. **fetch** — up to ``fetch_width`` µ-ops enter the front-end, consulting the branch
   predictor and the value predictor.

The main loop is **event-driven**: after each simulated cycle the scheduler computes
the earliest future cycle at which *any* stage could make progress or mutate state (a
completion firing, the ROB head's minimum commit cycle, the issue scan's re-arm cycle,
the front-end head's dispatch-maturity deadline, the fetch resume point) and jumps
``cycle`` directly there, crediting the skipped span in bulk to the per-cycle counters
(``stats.cycles``, plus the recurring dispatch structural-stall counter when the
front-end is blocked on a full ROB/LSQ/PRF bank).  The result is byte-identical to
stepping every cycle — ``REPRO_EVENT_DRIVEN=0`` retains the cycle-stepping loop as the
reference, and ``tests/trace/test_simulation_determinism.py`` compares the two across a
configuration × workload grid.

See DESIGN.md §5 for the modelling assumptions (wrong-path effects, speculative
scheduling) and their justification, and docs/performance.md for the event-wheel
design and its dead-cycle/stat-crediting rules.
"""

from __future__ import annotations

import gc
import os
from bisect import insort
from collections import deque
from collections.abc import Iterable, Iterator

from repro.bpu.btb import BranchTargetBuffer, ReturnAddressStack
from repro.bpu.history import GlobalHistory
from repro.bpu.tage import TAGEBranchPredictor
from repro.bpu.unit import BranchPredictionUnit
from repro.core.early_execution import EarlyExecutionBlock
from repro.core.late_execution import LateExecutionBlock
from repro.errors import SimulationError
from repro.isa.emulator import ArchState, Emulator
from repro.isa.flags import approximate_flags, flags_match_for_validation
from repro.isa.opcode import OpClass
from repro.isa.program import Program
from repro.isa.trace import DynInst
from repro.mem.hierarchy import MemoryHierarchy
from repro.obs.metrics import drain_simulator_metrics, maybe_sim_metrics
from repro.obs.tracer import maybe_tracer
from repro.ooo.functional_units import FunctionalUnitPool
from repro.ooo.inflight import InflightOp, InflightOpPool, UNKNOWN_CYCLE
from repro.ooo.issue_queue import (
    _NEVER as _SHARED_NEVER,
    WAKEUP_ENV_VAR,
    IssueQueue,
    WakeupIssueQueue,
    wakeup_lists_enabled,
)
from repro.ooo.lsq import LoadStoreQueue
from repro.ooo.registers import BankedRegisterFile, PRFPortBudget
from repro.ooo.rob import ReorderBuffer
from repro.ooo.store_sets import StoreSets
from repro.pipeline.config import PipelineConfig
from repro.pipeline.stats import SimStats, SimulationResult
from repro.trace.encoding import CapturedTrace

#: Environment variable: ``0`` selects the cycle-stepping reference loop instead of
#: the event-driven scheduler (both produce byte-identical results).
EVENT_DRIVEN_ENV_VAR = "REPRO_EVENT_DRIVEN"


def event_driven_enabled() -> bool:
    """True unless ``REPRO_EVENT_DRIVEN=0`` selects the cycle-stepping reference."""
    return os.environ.get(EVENT_DRIVEN_ENV_VAR, "1") != "0"


class Simulator:
    """Cycle-level simulator of one machine configuration running one workload."""

    #: Safety factor: a run is aborted if it exceeds this many cycles per committed µ-op.
    _DEADLOCK_CYCLES_PER_UOP = 400
    _DEADLOCK_SLACK_CYCLES = 200_000

    def __init__(
        self,
        config: PipelineConfig,
        program: Program,
        max_uops: int = 20_000,
        warmup_uops: int = 0,
        arch_state: ArchState | None = None,
        workload_name: str | None = None,
        trace: "CapturedTrace | Iterable[DynInst] | None" = None,
    ) -> None:
        if warmup_uops >= max_uops:
            raise SimulationError("warmup_uops must be smaller than max_uops")
        self.config = config
        self.program = program
        self.max_uops = max_uops
        self.warmup_uops = warmup_uops
        self.workload_name = workload_name if workload_name is not None else program.name

        # Architectural trace source.  Fetch runs ahead of commit by at most the ROB
        # plus the front-end, so a bounded-slack emulator limit is sufficient.  A
        # pre-captured trace (repro.trace) replaces the inline emulator entirely; it
        # must cover at least the same bounded-slack window to be bit-equivalent.
        # ``_trace_list`` is the fetch fast path: a materialised capture is consumed
        # by plain list indexing (one bounds check + one index per µ-op) instead of
        # a generator resume; ``_trace`` remains the uniform iterator interface for
        # the inline-emulation and ad-hoc-iterable paths.
        self._trace_list: tuple[DynInst, ...] | None = None
        self._trace_pos = 0
        if trace is not None:
            if isinstance(trace, CapturedTrace):
                self._trace_list = trace.instructions()
                self._trace: Iterator[DynInst] = iter(())
            else:
                self._trace = iter(trace)
        else:
            emulator_budget = max_uops + config.rob_size + config.frontend_capacity + 64
            self._trace = Emulator(program, state=arch_state).run(emulator_budget)
        self._trace_exhausted = False
        self._replay: deque[DynInst] = deque()

        # Substrates.
        self.history = GlobalHistory()
        self.bpu = BranchPredictionUnit(
            tage=TAGEBranchPredictor(
                bimodal_entries=config.tage_bimodal_entries,
                tagged_entries=config.tage_tagged_entries,
                num_components=config.tage_components,
            ),
            btb=BranchTargetBuffer(entries=config.btb_entries),
            ras=ReturnAddressStack(entries=config.ras_entries),
            history=self.history,
        )
        self.predictor = config.make_predictor() if config.value_prediction else None
        self.hierarchy = MemoryHierarchy(config.memory)
        self.rob = ReorderBuffer(config.rob_size)
        # Dependency-driven wake-up (REPRO_WAKEUP_LISTS, default on): producers keep
        # explicit consumer lists and the IQ maintains an age-ordered ready list, so
        # wake-up is O(woken) and select O(ready) instead of O(occupancy) walks.
        # The scan-based IssueQueue remains the byte-identical reference.
        self._wakeup = wakeup_lists_enabled()
        self.iq = (
            WakeupIssueQueue(config.iq_size, config.dispatch_to_issue_latency)
            if self._wakeup
            else IssueQueue(config.iq_size)
        )
        self.lsq = LoadStoreQueue(config.lq_size, config.sq_size)
        self.store_sets = StoreSets(config.store_sets_ssit, config.store_sets_lfst)
        self.fu_pool = FunctionalUnitPool(config.functional_units)
        self.prf = BankedRegisterFile(
            num_banks=config.prf_banks,
            total_registers=config.prf_registers,
            budget=PRFPortBudget(
                ee_write_ports_per_bank=config.ee_write_ports_per_bank,
                levt_read_ports_per_bank=config.levt_read_ports_per_bank,
            ),
        )
        self.early_block = EarlyExecutionBlock(config.eole.early)
        self.late_block = LateExecutionBlock(config.eole.late)

        # Derived constants hoisted out of the per-cycle loops.
        self._commit_extra = config.writeback_to_commit_latency + (
            1 if config.has_levt_stage else 0
        )
        self._levt_ports_limited = (
            config.has_levt_stage and config.levt_read_ports_per_bank is not None
        )
        self._ee_enabled = config.eole.early.enabled
        self._late_enabled = config.eole.late.enabled
        self._multi_bank = config.prf_banks > 1
        self._d2i = config.dispatch_to_issue_latency
        # Completion-wheel diet (wake-up mode): a completion's only effect for
        # µ-ops that are neither stores nor blocking fetch is ``executed = True``,
        # and every reader of that flag also compares against the commit deadline
        # ``complete_cycle + _commit_extra`` — so those µ-ops set the flag at
        # issue and skip the wheel entirely.  The reference scan IQ *does* need
        # every completion on the wheel (its issue-scan re-arm listens to them).
        self._wheel_all = not self._wakeup

        # Issue-scan gating: IQ readiness only changes on discrete events — a
        # completion firing, a dispatched entry maturing past dispatch_to_issue
        # latency, a squash flipping dependence flags, or functional-unit/width
        # pressure from a previous scan.  ``_iq_scan_from`` is the earliest cycle at
        # which a select could find new work; scans before it are provably empty and
        # are skipped (bit-identical: a skipped scan mutates no state and counts no
        # statistics, exactly like an empty walk).
        self._iq_scan_from = 0

        # Pipeline state.
        self.cycle = 0
        self.stats = SimStats()
        self._warmup_snapshot: SimStats | None = None
        self._warmup_done = warmup_uops == 0
        if self._warmup_done:
            self._warmup_snapshot = SimStats()
        self._frontend: deque[InflightOp] = deque()
        self._completions: dict[int, list[InflightOp]] = {}
        self._rename_map: dict[int, InflightOp] = {}
        self._previous_dispatch_group: list[InflightOp] = []
        self._fetch_resume_cycle = 0
        self._fetch_blocked_on: InflightOp | None = None
        self._finished = False

        # Pooled µ-op records: fetch acquires, retire/squash give back (retire goes
        # through a barrier — younger IQ entries keep reading their producers).
        self.pool = InflightOpPool()
        self._last_dispatched_seq = -1

        # Event-driven scheduling state.  ``_dispatch_stall_reason`` is non-None
        # exactly when dispatch ended the cycle stalled on a structural resource with
        # *zero* progress — a state that provably recurs (and counts one stall per
        # cycle) until some other pipeline event frees the resource, which is what
        # lets the scheduler credit those cycles in bulk instead of ticking them.
        self._event_driven = event_driven_enabled()
        self._dispatch_stall_reason: str | None = None

        # Observability (repro.obs): both hooks are None unless their env switch
        # opts in, so every hot-path site pays one ``is not None`` check and the
        # disabled path stays byte-identical (see docs/observability.md).
        self.tracer = maybe_tracer()
        self.metrics = metrics = maybe_sim_metrics()
        if metrics is not None:
            self._m_iq_occupancy = metrics.histogram("iq.occupancy")
            self._m_wakeup_depth = metrics.histogram("iq.wakeup_list_depth")
            self._m_skip_distance = metrics.histogram(
                "scheduler.skip_distance", power_of_two=True
            )
            self._m_squash_depth = metrics.histogram("squash.depth", power_of_two=True)
        else:
            self._m_iq_occupancy = None
            self._m_wakeup_depth = None
            self._m_skip_distance = None
            self._m_squash_depth = None
        if self.tracer is not None:
            self.iq.tracer = self.tracer

    # ================================================================== public API
    def run(self) -> SimulationResult:
        """Run the simulation to completion and return its result."""
        deadlock_limit = (
            self.max_uops * self._DEADLOCK_CYCLES_PER_UOP + self._DEADLOCK_SLACK_CYCLES
        )
        # The simulation allocates no reference cycles on its hot paths (records are
        # pooled, prediction/outcome objects are acyclic), so the generational
        # collector's periodic heap walks are pure overhead while it runs.
        gc_was_enabled = gc.isenabled()
        if gc_was_enabled:
            gc.disable()
        try:
            if self._event_driven:
                self._run_event_driven(deadlock_limit)
            else:
                while not self._finished:
                    self._step()
                    if self.cycle > deadlock_limit:
                        self._raise_deadlock(deadlock_limit)
        finally:
            if gc_was_enabled:
                gc.enable()
        return self._build_result()

    def _raise_deadlock(self, deadlock_limit: int) -> None:
        raise SimulationError(
            f"simulation exceeded {deadlock_limit} cycles "
            f"({self.stats.committed_uops} µ-ops committed): likely deadlock"
        )

    def _run_event_driven(self, deadlock_limit: int) -> None:
        """The event-wheel main loop: step on event cycles, jump over dead spans.

        Invariant: a skipped cycle is one where the cycle-stepping loop would only
        have incremented ``stats.cycles`` (and, when dispatch is parked on a
        structural stall, one stall counter) — every candidate source in
        :meth:`_next_event_cycle` is conservative, so any cycle that could mutate
        other state is stepped normally.

        This loop is the fused fast path: the per-cycle stage guards of
        :meth:`_step`, the event-candidate computation of
        :meth:`_next_event_cycle` and the bulk crediting of
        :meth:`_skip_dead_cycles` are inlined into one body with the stable
        pipeline structures hoisted into locals, so the common stepped cycle pays
        no per-stage method indirection beyond the stages that actually run.
        Those three methods remain the cycle-stepping reference implementation
        (``REPRO_EVENT_DRIVEN=0``), and the determinism suite compares the two.
        """
        stats = self.stats
        completions = self._completions
        frontend = self._frontend
        replay = self._replay
        rob_entries = self.rob._entries
        commit_extra = self._commit_extra
        frontend_capacity = self.config.frontend_capacity
        never = self._NEVER
        process_completions = self._process_completions
        commit = self._commit
        issue = self._issue
        dispatch = self._dispatch
        fetch = self._fetch
        while not self._finished:
            # ---- one stepped cycle (the _step reference, guards inlined) ----
            cycle = self.cycle + 1
            self.cycle = cycle
            stats.cycles += 1
            if completions and cycle in completions:
                process_completions()
            if not self._finished:
                if rob_entries:
                    head = rob_entries[0]
                    if head.executed and cycle >= head.complete_cycle + commit_extra:
                        commit()
                if not self._finished:
                    if cycle >= self._iq_scan_from:
                        issue()
                    if frontend and frontend[0].dispatch_ready_cycle <= cycle:
                        dispatch()
                    else:
                        self._previous_dispatch_group = []
                        self._dispatch_stall_reason = None
                    if (
                        self._fetch_blocked_on is None
                        and cycle >= self._fetch_resume_cycle
                        and len(frontend) < frontend_capacity
                    ):
                        fetch()
                    if (
                        self._trace_exhausted
                        and not replay
                        and not frontend
                        and not rob_entries
                    ):
                        self._finished = True
            if cycle > deadlock_limit:
                self._raise_deadlock(deadlock_limit)
            if self._finished:
                break
            # ---- event scheduling (the _next_event_cycle reference, inlined) ----
            # Fast path: when dispatch or fetch is guaranteed to act next cycle,
            # the minimum candidate is cycle + 1 and the gap is zero — skip the
            # full candidate scan (identical behaviour, nothing to credit).
            if frontend:
                if (
                    frontend[0].dispatch_ready_cycle <= cycle
                    and self._dispatch_stall_reason is None
                ):
                    continue
            elif (
                self._fetch_blocked_on is None
                and self._fetch_resume_cycle <= cycle
                and (replay or not self._trace_exhausted)
            ):
                continue
            nxt = never
            if completions:
                nxt = min(completions)
            if rob_entries:
                head = rob_entries[0]
                if head.executed:
                    ready = head.complete_cycle + commit_extra
                    candidate = ready if ready > cycle else cycle + 1
                    if candidate < nxt:
                        nxt = candidate
            scan = self._iq_scan_from
            if scan != never:
                candidate = scan if scan > cycle else cycle + 1
                if candidate < nxt:
                    nxt = candidate
            if frontend:
                ready = frontend[0].dispatch_ready_cycle
                if ready > cycle:
                    if ready < nxt:
                        nxt = ready
                elif self._dispatch_stall_reason is None:
                    if cycle + 1 < nxt:
                        nxt = cycle + 1
            if (
                self._fetch_blocked_on is None
                and (replay or not self._trace_exhausted)
                and len(frontend) < frontend_capacity
            ):
                resume = self._fetch_resume_cycle
                candidate = resume if resume > cycle else cycle + 1
                if candidate < nxt:
                    nxt = candidate
            if nxt > deadlock_limit + 1:
                # No event before the deadlock horizon: step once at the horizon so
                # the reference loop's failure mode (and cycle accounting) is kept.
                nxt = deadlock_limit + 1
            gap = nxt - cycle - 1
            if gap > 0:
                self._skip_dead_cycles(gap)

    #: Sentinel for "no known future event" (also used by the issue-scan gating).
    # Shared with the wake-up IQ's wheel sentinel: the fused issue path copies
    # ``iq._wake_min`` straight into ``_iq_scan_from``, so the two "no known
    # future cycle" values must be the same object of comparison.
    _NEVER = _SHARED_NEVER

    def _next_event_cycle(self) -> int:
        """Earliest future cycle at which any pipeline stage could make progress.

        Candidate sources, mirroring the stage order of :meth:`_step`:

        * **completions** — the earliest pending entry of the completion wheel;
        * **commit** — if the ROB head has executed, its minimum commit cycle
          (``complete_cycle`` plus the writeback/LE-VT latency); a head already past
          it is stalled on per-cycle-counted width/port/ALU limits and re-arms next
          cycle.  A head that has *not* executed needs a completion or an issue
          first, which the other candidates cover;
        * **issue** — ``_iq_scan_from``, the scan re-arm cycle maintained by
          :meth:`_issue` (dispatch-maturity deadline or an event having lowered it);
        * **dispatch** — the front-end head's ``dispatch_ready_cycle``; a head that
          is already dispatch-ready re-arms next cycle *unless* the stage is parked
          on a recurring structural stall, which only another stage's event can
          clear (the skipped span is then credited to that stall counter);
        * **fetch** — the fetch resume point, whenever fetch is unblocked, the trace
          has µ-ops left and the front-end has room (fetch otherwise resumes only as
          a consequence of one of the other events).
        """
        cycle = self.cycle
        nxt = self._NEVER
        completions = self._completions
        if completions:
            nxt = min(completions)
        head = self.rob.head()
        if head is not None and head.executed:
            ready = head.complete_cycle + self._commit_extra
            candidate = ready if ready > cycle else cycle + 1
            if candidate < nxt:
                nxt = candidate
        scan = self._iq_scan_from
        if scan != self._NEVER:
            candidate = scan if scan > cycle else cycle + 1
            if candidate < nxt:
                nxt = candidate
        frontend = self._frontend
        if frontend:
            ready = frontend[0].dispatch_ready_cycle
            if ready > cycle:
                if ready < nxt:
                    nxt = ready
            elif self._dispatch_stall_reason is None:
                if cycle + 1 < nxt:
                    nxt = cycle + 1
        if (
            self._fetch_blocked_on is None
            and (self._replay or not self._trace_exhausted)
            and len(frontend) < self.config.frontend_capacity
        ):
            resume = self._fetch_resume_cycle
            candidate = resume if resume > cycle else cycle + 1
            if candidate < nxt:
                nxt = candidate
        return nxt

    def _skip_dead_cycles(self, gap: int) -> None:
        """Jump over ``gap`` provably-dead cycles, crediting per-cycle counters.

        A dead cycle, stepped by the reference loop, would increment
        ``stats.cycles``, clear the previous-dispatch bypass group, and — when the
        front-end head is dispatch-ready but structurally blocked — count exactly one
        dispatch stall against the blocking resource.  Everything else is untouched
        by construction (see :meth:`_next_event_cycle`), so those effects are applied
        in bulk here.
        """
        self.cycle += gap
        self.stats.cycles += gap
        self._previous_dispatch_group = []
        reason = self._dispatch_stall_reason
        if reason is not None:
            # Mirrors _count_dispatch_stall (the per-cycle reference), credited gap
            # cycles at once.
            if reason == "rob":
                self.stats.rob_full_stalls += gap
            elif reason == "lsq":
                self.stats.lsq_full_stalls += gap
            elif reason == "prf":
                self.stats.prf_bank_stalls += gap
                self.prf.record_bank_full_stall(gap)
            else:  # pragma: no cover - _dispatch only parks on the reasons above
                raise SimulationError(f"unknown dispatch stall reason {reason!r}")
        if self._m_skip_distance is not None:
            self._m_skip_distance.record(gap)

    def _step(self) -> None:
        """Advance the machine by one cycle.

        Each stage call is preceded by an inline guard replicating that stage's own
        no-work early-exit, so a cycle in which a stage provably does nothing pays
        one comparison instead of a call (the stages keep their early-exits and
        remain callable on their own — the guards are pure short-circuits).
        """
        cycle = self.cycle + 1
        self.cycle = cycle
        self.stats.cycles += 1
        if self._completions and cycle in self._completions:
            self._process_completions()
            if self._finished:
                return
        rob_entries = self.rob._entries
        if rob_entries:
            head = rob_entries[0]
            if head.executed and cycle >= head.complete_cycle + self._commit_extra:
                self._commit()
                if self._finished:
                    return
        if cycle >= self._iq_scan_from:
            self._issue()
        frontend = self._frontend
        if frontend and frontend[0].dispatch_ready_cycle <= cycle:
            self._dispatch()
        else:
            self._previous_dispatch_group = []
            self._dispatch_stall_reason = None
        if (
            self._fetch_blocked_on is None
            and cycle >= self._fetch_resume_cycle
            and len(frontend) < self.config.frontend_capacity
        ):
            self._fetch()
        if (
            self._trace_exhausted
            and not self._replay
            and not frontend
            and not rob_entries
        ):
            self._finished = True

    # ================================================================== completion
    def _process_completions(self) -> None:
        ops = self._completions.pop(self.cycle, None)
        if not ops:
            return
        rearm = not self._wakeup
        tracer = self.tracer
        for op in ops:
            op.in_completion_wheel = False
            if rearm and op.iq_waiters and not op.squashed and self.cycle < self._iq_scan_from:
                # The completed producer has waiting IQ consumers: they may wake
                # this very cycle.  (Completions nobody renamed against — stores,
                # branches, dead values — never need to re-arm the scan: store-set
                # dependences release at store *issue*, not completion.  The
                # wake-up IQ needs no completion re-arm at all: a waking
                # consumer's exact deadline is already on its wheel.)
                self._iq_scan_from = self.cycle
            if op.squashed:
                # A squashed µ-op's stale wheel entry was its last reference; its
                # record is recyclable the moment the entry pops.
                if tracer is not None:
                    tracer.emit(self.cycle, "complete", op, "squashed")
                self.pool.release(op)
                continue
            op.executed = True
            if tracer is not None:
                tracer.emit(self.cycle, "complete", op)
            if op is self._fetch_blocked_on:
                self._resume_fetch_after_resolution()
            if op.uop.is_store:
                self.store_sets.store_executed(op)
                violator = self.lsq.detect_violation(op)
                if violator is not None:
                    self.stats.memory_order_violations += 1
                    self.store_sets.train_violation(violator.pc, op.pc)
                    self._squash_from(violator.seq, "memory_order")

    def _resume_fetch_after_resolution(self) -> None:
        self._fetch_blocked_on = None
        self._fetch_resume_cycle = max(
            self._fetch_resume_cycle, self.cycle + self.config.branch_resolution_extra
        )

    # ================================================================== commit / LE-VT
    def _commit(self) -> None:
        """In-order retirement of up to ``commit_width`` µ-ops (the LE/VT stage).

        Fused fast path: the per-µ-op :meth:`_retire` bookkeeping and the
        :meth:`_validate_and_train` correctness decision are inlined (both are
        kept below as the reference implementations), and the commit-side table
        training is batched into one ``train_commit_group`` call per commit
        group for the branch predictor and the value predictor each.  The
        deferral is invisible: the deferred updates touch only predictor tables
        and predictor-local statistics (read at result-build time), never
        ``SimStats``; their per-item order is the commit order; and on a value
        misprediction the batch — offender included, which trains exactly like
        the reference — is flushed *before* :meth:`_squash_from` runs predictor
        recovery.  The correctness decision itself needs no table state (it
        compares the fetched prediction against the architectural result), so
        deciding before training is equivalent.
        """
        committed = 0
        late_alus_used = 0
        cycle = self.cycle
        commit_extra = self._commit_extra
        late_alu_limit = self.late_block.config.alus
        commit_width = self.config.commit_width
        levt_limited = self._levt_ports_limited
        # The head peek/pop pair runs once per committed µ-op: the deque is read
        # directly (same entries ReorderBuffer.head/pop_head expose).
        rob_entries = self.rob._entries
        stats = self.stats
        predictor = self.predictor
        rename_map = self._rename_map
        prf = self.prf
        lsq = self.lsq
        pool_deferred = self.pool._deferred
        hierarchy_store = self.hierarchy.store
        store_sets = self.store_sets
        last_dispatched = self._last_dispatched_seq
        tracer = self.tracer
        vp_group: list = []
        bpu_group: list = []
        squash_seq = -1
        while committed < commit_width:
            if not rob_entries:
                break
            op = rob_entries[0]
            if not op.executed:
                break
            if cycle < op.complete_cycle + commit_extra:
                break
            late_executed = op.late_executed
            if late_executed and late_alus_used >= late_alu_limit:
                stats.late_alu_stalls += 1
                break
            if levt_limited:
                banks = self.late_block.levt_read_banks(op)
                if not prf.try_levt_reads(banks, cycle):
                    stats.levt_port_stalls += 1
                    break

            # The µ-op retires this cycle (inlined _retire).
            rob_entries.popleft()
            op.commit_cycle = cycle
            committed += 1
            if late_executed:
                late_alus_used += 1
            uop = op.uop
            dyn = op.dyn
            kind = uop.hot_mask
            stats.committed_uops += 1
            if kind & 1:  # branch
                stats.committed_branches += 1
                if kind & 2:
                    stats.committed_cond_branches += 1
            if kind & 4:  # load
                stats.committed_loads += 1
                if op.load_forwarded:
                    stats.forwarded_loads += 1
            elif kind & 8:  # store
                stats.committed_stores += 1
                if dyn.addr is not None:
                    hierarchy_store(dyn.addr, op.pc, cycle)
                # Scrub any remaining LFST reference before the record is recycled
                # (observably a no-op: a retired store already has ``issued`` set).
                store_sets.store_retired(op)
            if kind & 32:  # vp-eligible
                stats.committed_vp_eligible += 1
            if op.early_executed:
                stats.early_executed += 1
            elif late_executed:
                if kind & 2:
                    stats.late_resolved_branches += 1
                else:
                    stats.late_executed_alu += 1
            if op.pred_used:
                stats.predictions_used += 1
            if tracer is not None:
                tracer.emit(cycle, "commit", op)

            # Free the rename mapping and the physical register.
            for dst in uop.dst_regs:
                if rename_map.get(dst) is op:
                    del rename_map[dst]
            if kind & 64:  # has a destination register
                prf.release(op.dest_bank)
            if kind & 16:  # memory
                lsq.remove(op)

            # Branch predictor training (batched) and late branch resolution.
            if kind & 1:
                outcome = op.branch_outcome
                if kind & 2 and outcome is not None:
                    bpu_group.append((op.pc, outcome))
                    if outcome.mispredicted:
                        stats.branch_mispredictions += 1
                        if outcome.high_confidence:
                            stats.high_confidence_branch_mispredictions += 1
                    if op is self._fetch_blocked_on:
                        # A late-resolved (LE/VT) mispredicted branch unblocks
                        # fetch at commit.
                        self._resume_fetch_after_resolution()
                elif outcome is not None and outcome.mispredicted:
                    stats.branch_mispredictions += 1

            if not self._warmup_done and stats.committed_uops >= self.warmup_uops:
                self._warmup_snapshot = stats.copy()
                self._warmup_done = True
            if stats.committed_uops >= self.max_uops:
                self._finished = True

            # Park the record for recycling (inlined pool.retire; see _retire).
            pool_deferred.append((last_dispatched, op))
            if self._finished:
                # The reference returns before validating the run's final µ-op;
                # mirror it (its value-predictor entry is never appended).
                break

            # Prediction validation (inlined _validate_and_train; training deferred).
            if predictor is not None and kind & 32 and dyn.result is not None:
                actual = dyn.result
                prediction = op.prediction
                vp_group.append((op.pc, actual, prediction))
                if op.pred_used:
                    value_correct = prediction.value == actual
                    flags_ok = True
                    if kind & 128 and dyn.flags_result is not None:
                        flags_ok = flags_match_for_validation(
                            dyn.flags_result, approximate_flags(prediction.value)
                        )
                        if value_correct and not flags_ok:
                            stats.flag_only_mispredictions += 1
                    if not value_correct or not flags_ok:
                        # Value misprediction: the offending µ-op retires with the
                        # architectural value, everything younger is squashed and
                        # re-fetched (Section 3.1: pipeline squash).
                        stats.value_mispredictions += 1
                        squash_seq = op.seq + 1
                        break

        if bpu_group:
            self.bpu.train_commit_group(bpu_group)
        if vp_group:
            predictor.train_commit_group(vp_group)
        if squash_seq >= 0:
            self._squash_from(squash_seq, "value_mispred")

    def _retire(self, op: InflightOp) -> None:
        """Bookkeeping common to every retiring µ-op.

        Reference implementation: :meth:`_commit` inlines this per-µ-op body on
        its fast path (kept in sync; the only intentional difference is that the
        fast path defers ``bpu.train`` into a per-commit-group batch)."""
        uop = op.uop
        stats = self.stats
        stats.committed_uops += 1
        if uop.is_branch:
            stats.committed_branches += 1
            if uop.is_conditional_branch:
                stats.committed_cond_branches += 1
        if uop.is_load:
            stats.committed_loads += 1
            if op.load_forwarded:
                stats.forwarded_loads += 1
        if uop.is_store:
            stats.committed_stores += 1
            if op.dyn.addr is not None:
                self.hierarchy.store(op.dyn.addr, op.pc, self.cycle)
            # Scrub any remaining LFST reference before the record is recycled
            # (observably a no-op: a retired store already has ``issued`` set).
            self.store_sets.store_retired(op)
        if uop.vp_eligible:
            stats.committed_vp_eligible += 1
        if op.early_executed:
            stats.early_executed += 1
        elif op.late_executed:
            if uop.is_conditional_branch:
                stats.late_resolved_branches += 1
            else:
                stats.late_executed_alu += 1
        if op.pred_used:
            stats.predictions_used += 1
        if self.tracer is not None:
            self.tracer.emit(self.cycle, "commit", op)

        # Free the rename mapping and the physical register.
        for dst in uop.dst_regs:
            if self._rename_map.get(dst) is op:
                del self._rename_map[dst]
        if uop.dst is not None:
            self.prf.release(op.dest_bank)
        if uop.is_memory:
            self.lsq.remove(op)

        # Branch predictor training and late branch resolution.
        if uop.is_conditional_branch and op.branch_outcome is not None:
            self.bpu.train(op.dyn, op.branch_outcome)
            if op.branch_outcome.mispredicted:
                stats.branch_mispredictions += 1
                if op.branch_outcome.high_confidence:
                    stats.high_confidence_branch_mispredictions += 1
            if op is self._fetch_blocked_on:
                # A late-resolved (LE/VT) mispredicted branch unblocks fetch at commit.
                self._resume_fetch_after_resolution()
        elif (
            uop.is_branch
            and op.branch_outcome is not None
            and op.branch_outcome.mispredicted
        ):
            stats.branch_mispredictions += 1

        if not self._warmup_done and stats.committed_uops >= self.warmup_uops:
            self._warmup_snapshot = stats.copy()
            self._warmup_done = True
        if stats.committed_uops >= self.max_uops:
            self._finished = True

        # Park the record for recycling.  Younger IQ entries renamed against this
        # µ-op keep reading its timing fields until they issue, and the LE/VT port
        # model reads its destination bank when they commit — all of them were
        # dispatched by now, so the current dispatch high-water mark is the barrier.
        self.pool.retire(op, self._last_dispatched_seq)

    def _validate_and_train(self, op: InflightOp) -> bool:
        """Prediction validation + predictor training; returns True if a squash occurred.

        Reference implementation: :meth:`_commit` inlines the correctness decision
        and defers the training into a per-commit-group batch (kept in sync)."""
        if self.predictor is None or not op.uop.vp_eligible or op.dyn.result is None:
            return False
        actual = op.dyn.result
        value_correct = self.predictor.validate_and_train(op.pc, actual, op.prediction)
        if not op.pred_used:
            return False
        flags_ok = True
        if op.uop.sets_flags and op.dyn.flags_result is not None and op.prediction is not None:
            flags_ok = flags_match_for_validation(
                op.dyn.flags_result, approximate_flags(op.prediction.value)
            )
            if value_correct and not flags_ok:
                self.stats.flag_only_mispredictions += 1
        if value_correct and flags_ok:
            return False
        # Value misprediction: the offending µ-op retires with the architectural value,
        # everything younger is squashed and re-fetched (Section 3.1: pipeline squash).
        self.stats.value_mispredictions += 1
        self._squash_from(op.seq + 1, "value_mispred")
        return True

    # ================================================================== issue / execute
    def _operand_ready(self, op: InflightOp, cycle: int) -> bool:
        for producer in op.producers:
            if producer is None:
                continue
            available = producer.avail_cycle
            if available == UNKNOWN_CYCLE or available > cycle:
                return False
        return True

    def _is_ready(self, op: InflightOp, cycle: int) -> bool:
        if cycle < op.dispatch_cycle + self.config.dispatch_to_issue_latency:
            return False
        if not self._operand_ready(op, cycle):
            return False
        if op.uop.is_load:
            dependence = op.mem_dependence
            if dependence is not None and not dependence.squashed and not dependence.issued:
                return False
        return True

    def _execution_latency(self, op: InflightOp) -> int:
        return op.uop.latency

    def _issue(self) -> None:
        if self._wakeup:
            self._issue_wakeup()
            return
        cycle = self.cycle
        if cycle < self._iq_scan_from:
            return
        # ``select_ready`` inlines the ``_is_ready``/``_execution_latency`` rules
        # above (kept as the reference implementation) into the IQ walk.
        fu_pool = self.fu_pool
        rejects_before = fu_pool.structural_rejects
        issue_width = self.config.issue_width
        selected = self.iq.select_ready(
            cycle,
            issue_width,
            fu_pool,
            self.config.dispatch_to_issue_latency,
        )
        if selected:
            for op in selected:
                self._start_execution(op)
            # A rescan next cycle is only needed when this select could have left
            # newly-issuable work behind: the width ran out (unexamined entries may
            # be ready), a ready µ-op lost its functional unit, or an issued store
            # released a store-set dependence (dependent loads become ready at
            # once).  Otherwise every remaining entry is immature or waiting on a
            # completion/dispatch/squash event, exactly as in the empty-scan case.
            rescan_next = (
                len(selected) == issue_width
                or fu_pool.structural_rejects != rejects_before
            )
            if not rescan_next:
                for op in selected:
                    if op.uop.is_store:
                        rescan_next = True
                        break
            if rescan_next:
                self._iq_scan_from = cycle + 1
            else:
                # The width was not exhausted, so the walk covered the whole queue:
                # its observed earliest maturity deadline is the next scan cycle.
                mature_at = self.iq.next_immature_cycle
                self._iq_scan_from = mature_at if mature_at is not None else self._NEVER
        elif fu_pool.structural_rejects != rejects_before:
            # A ready µ-op lost its functional unit; retry when the pool resets.
            self._iq_scan_from = cycle + 1
        else:
            # Nothing can issue until an event (completion/dispatch/squash) fires —
            # except entries still inside the dispatch-to-issue latency, whose
            # maturity is a known deadline no event announces.  Re-arm on it
            # (tracked as a byproduct of the walk that just found nothing).
            mature_at = self.iq.next_immature_cycle
            self._iq_scan_from = mature_at if mature_at is not None else self._NEVER

    def _issue_wakeup(self) -> None:
        """:meth:`_issue` fused with :meth:`WakeupIssueQueue.select_ready`.

        The scan-based ``_issue`` with the wake-up IQ's maintained ready list
        substituted for the queue walk: the ready set at any scanned cycle — and
        hence the age-ordered selection and every issue cycle — is identical to
        the reference walk's.  Scan scheduling, however, uses the IQ's *exact*
        deadlines rather than the reference's conservative re-arm heuristics:
        ``_iq_scan_from`` becomes ``cycle + 1`` while ready entries remain
        (functional-unit rejects or width exhaustion, exactly when the reference
        rescans) and the earliest wheel deadline otherwise.  Any scan skipped
        relative to the reference is one with an empty ready list, which walks
        nothing, selects nothing and mutates nothing — observably a no-op.
        """
        cycle = self.cycle
        if cycle < self._iq_scan_from:
            return
        iq = self.iq
        ready = iq._ready
        tracer = self.tracer
        if iq._wake_min <= cycle:
            # Inlined WakeupIssueQueue._surface_ripe (kept as the reference).
            buckets = iq._wake_buckets
            added = False
            while buckets:
                key = iq._wake_min
                if key > cycle:
                    break
                for op, gen in buckets.pop(key):
                    if op.wake_gen == gen and not op.squashed:
                        ready.append((op.seq, op))
                        added = True
                        if tracer is not None:
                            tracer.emit(cycle, "wakeup", op, "wheel")
                iq._wake_min = min(buckets) if buckets else self._NEVER
            if added:
                ready.sort()
        if ready:
            fu_pool = self.fu_pool
            try_issue = fu_pool.try_issue
            members = iq._members
            width_left = self.config.issue_width
            selected: list[InflightOp] = []
            selected_append = selected.append
            index = 0
            while index < len(ready) and width_left:
                seq, op = ready[index]
                uop = op.uop
                if not try_issue(uop.opclass, cycle, uop.latency):
                    index += 1
                    continue
                del ready[index]
                del members[seq]
                op.issued = True
                op.issue_cycle = cycle
                op.in_issue_queue = False
                selected_append(op)
                width_left -= 1
                if uop.is_store:
                    waiters = op.mem_waiters
                    if waiters:
                        # Store-set release: dependent loads (younger, hence later
                        # in age order) join this very pass, exactly like the
                        # reference walk observing ``dependence.issued`` mid-scan.
                        op.mem_waiters = None
                        for waiter, gen in waiters:
                            if waiter.wake_gen != gen or waiter.squashed:
                                continue
                            waiter.mem_blocked = False
                            if waiter.unknown_producers:
                                continue
                            ready_at = iq._ready_cycle(waiter)
                            if ready_at <= cycle:
                                insort(ready, (waiter.seq, waiter))
                                if tracer is not None:
                                    tracer.emit(cycle, "wakeup", waiter, "store_release")
                            else:
                                iq._park(waiter, gen, ready_at)
            start_execution = self._start_execution
            for op in selected:
                start_execution(op)
        # Exact re-arm: leftovers retry next cycle, otherwise the next entry to
        # become ready is the earliest wheel deadline (parks performed by the
        # selection and its _start_execution wake-ups are already reflected).
        self._iq_scan_from = cycle + 1 if ready else iq._wake_min

    def _start_execution(self, op: InflightOp) -> None:
        uop = op.uop
        cycle = self.cycle
        if self.tracer is not None:
            self.tracer.emit(cycle, "issue", op)
        if uop.is_load:
            forwarding_store = self.lsq.forwarding_store(op)
            if forwarding_store is not None:
                op.load_forwarded = True
                memory_latency = 2
            else:
                memory_latency = self.hierarchy.load(op.dyn.addr, op.pc, cycle)
            complete = cycle + 1 + memory_latency
        elif uop.is_store:
            complete = cycle + 1
        else:
            complete = cycle + uop.latency
        op.complete_cycle = complete
        if not op.pred_used:
            # Predicted results stay available from dispatch; everything else
            # becomes consumable when execution completes.
            op.avail_cycle = complete
            consumers = op.wake_consumers
            if consumers is not None:
                # Wake-up lists: O(consumers) resolution of the now-known
                # availability (registrations only exist in wake-up mode;
                # WakeupIssueQueue.producer_available inlined).
                op.wake_consumers = None
                if self._m_wakeup_depth is not None:
                    self._m_wakeup_depth.record(len(consumers))
                iq = self.iq
                d2i = self._d2i
                buckets = iq._wake_buckets
                for consumer, gen in consumers:
                    if consumer.wake_gen != gen or consumer.squashed:
                        continue
                    remaining = consumer.unknown_producers - 1
                    consumer.unknown_producers = remaining
                    if remaining or consumer.mem_blocked:
                        continue
                    ready_at = consumer.dispatch_cycle + d2i
                    for producer in consumer.producers:
                        if producer is not None and producer.avail_cycle > ready_at:
                            ready_at = producer.avail_cycle
                    bucket = buckets.get(ready_at)
                    if bucket is None:
                        buckets[ready_at] = [(consumer, gen)]
                        if ready_at < iq._wake_min:
                            iq._wake_min = ready_at
                    else:
                        bucket.append((consumer, gen))
        if uop.is_store or self._wheel_all or op is self._fetch_blocked_on:
            op.in_completion_wheel = True
            completions = self._completions
            wheel_slot = completions.get(complete)
            if wheel_slot is None:
                completions[complete] = [op]
            else:
                wheel_slot.append(op)
        else:
            # Wheel diet (wake-up mode): the completion would only have set this
            # flag; every reader also checks the commit deadline, so setting it
            # at issue is invisible.  The traced event keeps the wheel timestamp.
            op.executed = True
            if self.tracer is not None:
                self.tracer.emit(complete, "complete", op)

    # ================================================================== rename / dispatch
    def _dispatch(self) -> None:
        """Rename/dispatch up to ``rename_width`` front-end µ-ops.

        Fused fast path for machines without Early Execution: rename (phase A/B)
        and classification/IQ insertion (phase D/E) run in one loop per µ-op, so
        every per-µ-op attribute is read once.  EE machines need the phase C
        barrier (the EE planner sees the whole rename group at once) and keep the
        two-phase reference, :meth:`_dispatch_eole`.  The one asymmetric case is
        an IQ-full rollback: the reference renames the *whole* group before
        discovering the full IQ, so the fused loop falls into
        :meth:`_dispatch_overshoot` to replicate that overshoot exactly (it is
        observable through ROB/LSQ peak-occupancy statistics and the PRF
        round-robin allocation pointer, which rollback does not rewind).
        """
        if self._ee_enabled:
            self._dispatch_eole()
            return
        cycle = self.cycle
        frontend = self._frontend
        self._dispatch_stall_reason = None
        if not frontend or frontend[0].dispatch_ready_cycle > cycle:
            self._previous_dispatch_group = []
            return
        config = self.config
        rename_width = config.rename_width
        multi_bank = self._multi_bank
        rename_map = self._rename_map
        rob = self.rob
        lsq = self.lsq
        prf = self.prf
        stats = self.stats
        rob_entries = rob._entries
        rob_capacity = rob.capacity
        lsq_loads = lsq._loads
        lsq_stores = lsq._stores
        lq_capacity = lsq.lq_capacity
        sq_capacity = lsq.sq_capacity
        prf_allocated = prf._allocated
        late_enabled = self._late_enabled
        late_block = self.late_block
        iq = self.iq
        wakeup = self._wakeup
        iq_level = iq._members if wakeup else iq._entries
        iq_capacity = iq.capacity
        store_sets = self.store_sets
        nop_class = OpClass.NOP
        d2i = self._d2i
        scan_wake = cycle + d2i
        maturity = scan_wake
        wake_buckets = iq._wake_buckets if wakeup else None
        unknown_cycle = UNKNOWN_CYCLE
        tracer = self.tracer
        group: list[InflightOp] = []
        overshot = False
        while len(group) < rename_width and frontend:
            op = frontend[0]
            if op.dispatch_ready_cycle > cycle:
                break
            uop = op.uop
            kind = uop.hot_mask
            # Structural space checks (identical to the two-phase reference).
            if len(rob_entries) >= rob_capacity:
                stats.rob_full_stalls += 1
                if not group:
                    self._dispatch_stall_reason = "rob"
                break
            if kind & 16 and (  # memory
                len(lsq_loads) >= lq_capacity
                if kind & 4
                else len(lsq_stores) >= sq_capacity
            ):
                stats.lsq_full_stalls += 1
                if not group:
                    self._dispatch_stall_reason = "lsq"
                break
            if kind & 64 and multi_bank and not prf.can_allocate():
                stats.prf_bank_stalls += 1
                prf.record_bank_full_stall()
                if not group:
                    self._dispatch_stall_reason = "prf"
                break
            frontend.popleft()
            # Rename (unrolled for the dominant 0/1/2-source shapes).
            sources = uop.src_regs
            if not sources:
                producers: tuple[InflightOp | None, ...] = ()
            elif len(sources) == 1:
                producers = (rename_map.get(sources[0]),)
            elif len(sources) == 2:
                reg_a, reg_b = sources
                producers = (rename_map.get(reg_a), rename_map.get(reg_b))
            else:
                producers = tuple(rename_map.get(reg) for reg in sources)
            op.producers = producers
            for dst in uop.dst_regs:
                rename_map[dst] = op
            group.append(op)
            rob_entries.append(op)
            if kind & 4:  # load
                lsq_loads.append(op)
            elif kind & 8:  # store
                lsq_stores.append(op)
            if multi_bank:
                if kind & 64:
                    op.dest_bank = prf.next_bank()
                    prf.allocate()
                else:
                    prf.advance_without_allocation()
            elif kind & 64:
                prf_allocated[0] += 1
            op.dispatch_cycle = cycle

            # Classification + IQ insertion (phase D/E, EE impossible here).
            pred_used = op.pred_used
            if late_enabled and (pred_used or kind & 2):
                late_block.classify(op)
            if pred_used:
                op.avail_cycle = cycle
                if kind & 64 and not prf.try_ee_write(op.dest_bank, cycle):
                    stats.ee_write_port_stalls += 1
            if op.late_executed or kind & 256:
                op.complete_cycle = cycle
                op.executed = True
                if kind & 4:
                    op.mem_dependence = store_sets.dependence_for_load(op)
                elif kind & 8:
                    store_sets.register_store(op)
                if tracer is not None:
                    tracer.emit(cycle, "dispatch", op, "nop" if kind & 256 else "late")
                    tracer.emit(cycle, "complete", op, "bypass")
            else:
                if len(iq_level) >= iq_capacity:
                    stats.iq_full_stalls += 1
                    self._record_dispatch_peaks()
                    group = self._dispatch_overshoot(group)
                    overshot = True
                    break
                dependence = None
                if kind & 4:
                    dependence = store_sets.dependence_for_load(op)
                    op.mem_dependence = dependence
                elif kind & 8:
                    store_sets.register_store(op)
                if wakeup:
                    # Inlined WakeupIssueQueue.insert (kept as the reference).
                    op.in_issue_queue = True
                    iq_level[op.seq] = op
                    gen = op.wake_gen
                    unknown = 0
                    ready_at = maturity
                    for producer in producers:
                        if producer is None:
                            continue
                        avail = producer.avail_cycle
                        if avail == unknown_cycle:
                            unknown += 1
                            consumers = producer.wake_consumers
                            if consumers is None:
                                producer.wake_consumers = [(op, gen)]
                            else:
                                consumers.append((op, gen))
                        elif avail > ready_at:
                            ready_at = avail
                    op.unknown_producers = unknown
                    if dependence is not None:
                        op.mem_blocked = True
                        waiters = dependence.mem_waiters
                        if waiters is None:
                            dependence.mem_waiters = [(op, gen)]
                        else:
                            waiters.append((op, gen))
                    else:
                        op.mem_blocked = False
                        if not unknown:
                            bucket = wake_buckets.get(ready_at)
                            if bucket is None:
                                wake_buckets[ready_at] = [(op, gen)]
                                if ready_at < iq._wake_min:
                                    iq._wake_min = ready_at
                            else:
                                bucket.append((op, gen))
                else:
                    op.in_issue_queue = True
                    op.wait_until = 0
                    iq_level.append(op)
                    for producer in producers:
                        if producer is not None:
                            producer.iq_waiters += 1
                    if scan_wake < self._iq_scan_from:
                        self._iq_scan_from = scan_wake
                stats.dispatched_to_iq += 1
                if tracer is not None:
                    tracer.emit(cycle, "dispatch", op, "iq")

        if not overshot:
            # Peak statistics, deferred out of the per-µ-op loop: within one
            # dispatch call these structures only grow, so the end-of-loop
            # occupancy is the cycle's maximum (identical values to per-append
            # updates; the overshoot path records them before rolling back).
            self._record_dispatch_peaks()
        if wakeup:
            # One exact re-arm per dispatch group: freshly parked entries carry
            # their precise readiness deadline on the wheel.
            wake_min = iq._wake_min
            if wake_min < self._iq_scan_from:
                self._iq_scan_from = wake_min
        if group and not overshot:
            self._last_dispatched_seq = group[-1].seq
        self._previous_dispatch_group = group

    def _record_dispatch_peaks(self) -> None:
        """Fold the current ROB/LSQ/IQ occupancies into their peak statistics."""
        rob = self.rob
        occupancy = len(rob._entries)
        if occupancy > rob.peak_occupancy:
            rob.peak_occupancy = occupancy
        lsq = self.lsq
        occupancy = len(lsq._loads)
        if occupancy > lsq.peak_lq_occupancy:
            lsq.peak_lq_occupancy = occupancy
        occupancy = len(lsq._stores)
        if occupancy > lsq.peak_sq_occupancy:
            lsq.peak_sq_occupancy = occupancy
        iq = self.iq
        occupancy = len(iq._members) if self._wakeup else len(iq._entries)
        if occupancy > iq.peak_occupancy:
            iq.peak_occupancy = occupancy
        if self._m_iq_occupancy is not None:
            self._m_iq_occupancy.record(occupancy)

    def _dispatch_overshoot(self, group: list[InflightOp]) -> list[InflightOp]:
        """Replicate the reference's rename overshoot when the IQ fills mid-group.

        The two-phase reference renames the whole group (phase A/B) before phase
        D/E discovers the full IQ at ``group[-1]``; the extra renames bump
        ROB/LSQ peak-occupancy statistics and advance the PRF round-robin
        pointer before the rollback returns every op from the IQ-denied one on
        to the front-end.  This continues phase A/B from where the fused loop
        stopped — structural stall counters included — then performs the same
        rollback, returning the surviving (truncated) group.
        """
        cycle = self.cycle
        config = self.config
        frontend = self._frontend
        rename_width = config.rename_width
        multi_bank = self._multi_bank
        rename_map = self._rename_map
        rob = self.rob
        lsq = self.lsq
        prf = self.prf
        stats = self.stats
        first_undispatched = len(group) - 1
        while len(group) < rename_width and frontend:
            op = frontend[0]
            if op.dispatch_ready_cycle > cycle:
                break
            uop = op.uop
            if not rob.has_space():
                stats.rob_full_stalls += 1
                break
            if uop.is_memory and not lsq.has_space(op):
                stats.lsq_full_stalls += 1
                break
            if uop.dst is not None and multi_bank and not prf.can_allocate():
                stats.prf_bank_stalls += 1
                prf.record_bank_full_stall()
                break
            frontend.popleft()
            sources = uop.src_regs
            op.producers = tuple(rename_map.get(reg) for reg in sources)
            for dst in uop.dst_regs:
                rename_map[dst] = op
            group.append(op)
            rob.push_renamed(op)
            if uop.is_memory:
                lsq.insert(op)
            if multi_bank:
                if uop.dst is not None:
                    op.dest_bank = prf.next_bank()
                    prf.allocate()
                else:
                    prf.advance_without_allocation()
            elif uop.dst is not None:
                prf._allocated[0] += 1
            op.dispatch_cycle = cycle
        # The reference records the dispatch high-water mark over the *renamed*
        # group, overshoot included (rollback does not lower it).
        self._last_dispatched_seq = group[-1].seq
        self._rollback_undispatched(group, first_undispatched)
        return group[:first_undispatched]

    def _dispatch_eole(self) -> None:
        """Two-phase rename/dispatch (the reference; EE needs the group barrier)."""
        cycle = self.cycle
        frontend = self._frontend
        self._dispatch_stall_reason = None
        if not frontend or frontend[0].dispatch_ready_cycle > cycle:
            self._previous_dispatch_group = []
            return
        config = self.config
        rename_width = config.rename_width
        multi_bank = config.prf_banks > 1
        rename_map = self._rename_map
        rob = self.rob
        lsq = self.lsq
        prf = self.prf
        stats = self.stats
        # Hot-path views of the structural resources (the methods on ReorderBuffer /
        # LoadStoreQueue / BankedRegisterFile remain the reference implementations;
        # phase A/B runs once per dispatched µ-op and inlines them).
        rob_entries = rob._entries
        rob_capacity = rob.capacity
        lsq_loads = lsq._loads
        lsq_stores = lsq._stores
        lq_capacity = lsq.lq_capacity
        sq_capacity = lsq.sq_capacity
        prf_allocated = prf._allocated
        group: list[InflightOp] = []
        # Phase A/B: pull dispatch-ready µ-ops and rename them.  Intra-group
        # producers are visible through ``rename_map`` itself — every destination is
        # written to it immediately and nothing is deleted mid-group, so a separate
        # local overlay would always agree with it.
        while len(group) < rename_width and frontend:
            op = frontend[0]
            if op.dispatch_ready_cycle > cycle:
                break
            uop = op.uop
            kind = uop.hot_mask
            # Structural space checks (see _structural_space_for_op, kept as the
            # reference implementation).  A stall hit before *any* progress parks
            # the stage: the identical check fails every cycle (one stall counted
            # per cycle) until another stage's event frees the resource, which the
            # event scheduler exploits by crediting skipped spans in bulk.
            if len(rob_entries) >= rob_capacity:
                stats.rob_full_stalls += 1
                if not group:
                    self._dispatch_stall_reason = "rob"
                break
            if kind & 16 and (  # memory
                len(lsq_loads) >= lq_capacity
                if kind & 4
                else len(lsq_stores) >= sq_capacity
            ):
                stats.lsq_full_stalls += 1
                if not group:
                    self._dispatch_stall_reason = "lsq"
                break
            if kind & 64 and multi_bank and not prf.can_allocate():
                stats.prf_bank_stalls += 1
                prf.record_bank_full_stall()
                if not group:
                    self._dispatch_stall_reason = "prf"
                break
            frontend.popleft()
            # Rename (unrolled for the dominant 0/1/2-source shapes).
            sources = uop.src_regs
            if not sources:
                producers: tuple[InflightOp | None, ...] = ()
            elif len(sources) == 1:
                producers = (rename_map.get(sources[0]),)
            elif len(sources) == 2:
                reg_a, reg_b = sources
                producers = (rename_map.get(reg_a), rename_map.get(reg_b))
            else:
                producers = tuple(rename_map.get(reg) for reg in sources)
            op.producers = producers
            for dst in uop.dst_regs:
                rename_map[dst] = op
            group.append(op)
            # Structural allocation happens immediately so the next iteration's space
            # checks see it (ROB/LSQ/PRF are per-µ-op resources, not per-group).
            rob_entries.append(op)
            if kind & 4:  # load
                lsq_loads.append(op)
            elif kind & 8:  # store
                lsq_stores.append(op)
            if multi_bank:
                if kind & 64:
                    op.dest_bank = prf.next_bank()
                    prf.allocate()
                else:
                    prf.advance_without_allocation()
            elif kind & 64:
                # Single-bank PRF: the allocation pointer never moves and the
                # destination bank is always 0 (the record's reset default).
                prf_allocated[0] += 1
            op.dispatch_cycle = cycle

        # ROB/LSQ peaks, deferred out of the per-µ-op loop (within one dispatch
        # call these structures only grow, so end-of-phase occupancy is the max;
        # the IQ-full rollback path below never shrinks them before this point).
        occupancy = len(rob_entries)
        if occupancy > rob.peak_occupancy:
            rob.peak_occupancy = occupancy
        occupancy = len(lsq_loads)
        if occupancy > lsq.peak_lq_occupancy:
            lsq.peak_lq_occupancy = occupancy
        occupancy = len(lsq_stores)
        if occupancy > lsq.peak_sq_occupancy:
            lsq.peak_sq_occupancy = occupancy
        if not group:
            self._previous_dispatch_group = []
            return
        self._last_dispatched_seq = group[-1].seq

        # Phase C: Early Execution planning (in parallel with rename).
        if config.eole.early.enabled:
            self.early_block.plan(group, self._previous_dispatch_group)

        # Phase D/E: Late-Execution classification, IQ insertion and port accounting.
        # The store-set hookup runs *before* the IQ insertion (the wake-up insert
        # reads ``mem_dependence``); relative to the reference order this swaps two
        # operations on disjoint state within one µ-op, and the capacity check still
        # precedes both, so a µ-op denied an IQ slot never touches the LFST.
        late_enabled = config.eole.late.enabled
        late_block = self.late_block
        iq = self.iq
        wakeup = self._wakeup
        iq_level = iq._members if wakeup else iq._entries
        iq_capacity = iq.capacity
        store_sets = self.store_sets
        nop_class = OpClass.NOP
        tracer = self.tracer
        for op in group:
            uop = op.uop
            kind = uop.hot_mask
            pred_used = op.pred_used
            if late_enabled and (pred_used or kind & 2):
                # Pre-filter: only predicted µ-ops and conditional branches can be
                # late-executable (classify returns False for everything else).
                late_block.classify(op)
            if pred_used or op.early_executed:
                # The result is written to the PRF at dispatch: dependents may
                # consume it from this cycle on (mirrors result_available_cycle).
                op.avail_cycle = cycle
                if kind & 64 and not prf.try_ee_write(op.dest_bank, cycle):
                    # Port pressure delays the write by a cycle; modelled as a slight
                    # dispatch-side stall statistic rather than a structural replay.
                    stats.ee_write_port_stalls += 1
            if op.early_executed or op.late_executed or kind & 256:
                # Bypasses the OoO engine entirely (or needs no execution at all).
                op.complete_cycle = op.dispatch_cycle
                op.executed = True
                if kind & 4:
                    op.mem_dependence = store_sets.dependence_for_load(op)
                elif kind & 8:
                    store_sets.register_store(op)
                if tracer is not None:
                    if op.early_executed:
                        tracer.emit(cycle, "early_exec", op)
                        cause = "early"
                    else:
                        cause = "nop" if kind & 256 else "late"
                    tracer.emit(cycle, "dispatch", op, cause)
                    tracer.emit(cycle, "complete", op, "bypass")
            else:
                if len(iq_level) >= iq_capacity:
                    stats.iq_full_stalls += 1
                    self._rollback_undispatched(group, group.index(op))
                    group = group[: group.index(op)]
                    break
                if kind & 4:
                    op.mem_dependence = store_sets.dependence_for_load(op)
                elif kind & 8:
                    store_sets.register_store(op)
                if wakeup:
                    iq.insert(op)
                else:
                    op.in_issue_queue = True
                    op.wait_until = 0
                    iq_level.append(op)
                    if len(iq_level) > iq.peak_occupancy:
                        iq.peak_occupancy = len(iq_level)
                    for producer in op.producers:
                        if producer is not None:
                            producer.iq_waiters += 1
                    wake = cycle + config.dispatch_to_issue_latency
                    if wake < self._iq_scan_from:
                        self._iq_scan_from = wake
                stats.dispatched_to_iq += 1
                if tracer is not None:
                    tracer.emit(cycle, "dispatch", op, "iq")

        if self._m_iq_occupancy is not None:
            self._m_iq_occupancy.record(len(iq_level))
        if wakeup:
            # One exact re-arm per dispatch group (see _dispatch).
            wake_min = iq._wake_min
            if wake_min < self._iq_scan_from:
                self._iq_scan_from = wake_min
        self._previous_dispatch_group = group

    def _structural_space_for_op(self, op: InflightOp) -> str | None:
        if not self.rob.has_space():
            return "rob"
        if op.uop.is_memory and not self.lsq.has_space(op):
            return "lsq"
        if op.uop.dst is not None and self.config.prf_banks > 1 and not self.prf.can_allocate():
            return "prf"
        return None

    def _count_dispatch_stall(self, reason: str) -> None:
        if reason == "rob":
            self.stats.rob_full_stalls += 1
        elif reason == "lsq":
            self.stats.lsq_full_stalls += 1
        elif reason == "prf":
            self.stats.prf_bank_stalls += 1
            self.prf.record_bank_full_stall()

    def _rollback_undispatched(self, group: list[InflightOp], first_undispatched: int) -> None:
        """Return µ-ops that could not get an IQ slot to the front-end, youngest first."""
        for op in reversed(group[first_undispatched:]):
            # Undo the structural allocations performed in phase A/B.
            squashed = self.rob.squash_from(op.seq)
            for undone in squashed:
                undone.squashed = False
            if op.uop.is_memory:
                self.lsq.remove(op)
            if op.uop.dst is not None:
                self.prf.release(op.dest_bank)
            op.producers = ()
            op.early_executed = False
            op.late_executed = False
            op.executed = False
            op.dispatch_cycle = UNKNOWN_CYCLE
            op.complete_cycle = UNKNOWN_CYCLE
            op.avail_cycle = UNKNOWN_CYCLE
            op.wait_until = 0
            self._frontend.appendleft(op)
        # Rebuild the rename map from the surviving ROB contents.
        self._rebuild_rename_map()

    def _rebuild_rename_map(self) -> None:
        self._rename_map = {}
        for op in self.rob:
            for dst in op.uop.dst_regs:
                self._rename_map[dst] = op

    # ================================================================== fetch
    def _next_dyninst(self) -> DynInst | None:
        if self._replay:
            return self._replay.popleft()
        if self._trace_exhausted:
            return None
        trace_list = self._trace_list
        if trace_list is not None:
            pos = self._trace_pos
            if pos >= len(trace_list):
                self._trace_exhausted = True
                return None
            self._trace_pos = pos + 1
            return trace_list[pos]
        try:
            return next(self._trace)
        except StopIteration:
            self._trace_exhausted = True
            return None

    def _fetch(self) -> None:
        config = self.config
        # Recycle retired records whose barrier has drained — fetch is the only
        # acquisition site, so promoting here guarantees no reader between a
        # record's release and its reuse.  (The pool's deferred queue is consulted
        # directly to keep the common nothing-parked cycle call-free.)
        pool = self.pool
        deferred = pool._deferred
        if deferred:
            # Inlined pool.promote (kept as the reference implementation).
            rob_entries = self.rob._entries
            free = pool._free
            if rob_entries:
                oldest = rob_entries[0].seq
                while deferred and deferred[0][0] < oldest:
                    free.append(deferred.popleft()[1].slot)
            else:
                while deferred:
                    free.append(deferred.popleft()[1].slot)
        if self._fetch_blocked_on is not None:
            return
        cycle = self.cycle
        if cycle < self._fetch_resume_cycle:
            return
        frontend = self._frontend
        if len(frontend) >= config.frontend_capacity:
            return
        fetch_width = config.fetch_width
        max_taken = config.max_taken_branches_per_cycle
        l1i_latency = config.memory.l1i_latency
        fetch_to_dispatch = config.fetch_to_dispatch_latency
        hierarchy_fetch = self.hierarchy.fetch
        bpu_predict = self.bpu.predict
        history = self.history
        predictor = self.predictor
        stats = self.stats
        replay = self._replay
        pool_free = pool._free
        pool_arena = pool._arena
        # L1I hit fast path (the reference path is hierarchy.fetch): sequential
        # fetch hits the MRU line of one set almost every µ-op.
        l1i = self.hierarchy.l1i
        l1i_sets = l1i._sets
        l1i_num_sets = l1i.num_sets
        l1i_line_size = l1i.line_size
        l1i_stats = l1i.stats
        trace_list = self._trace_list
        trace_length = len(trace_list) if trace_list is not None else 0
        unknown_cycle = UNKNOWN_CYCLE
        tracer = self.tracer
        fetched = 0
        taken_branches = 0
        while fetched < fetch_width:
            # Inlined _next_dyninst (kept below as the reference implementation).
            # A materialised capture is consumed by plain indexing — no generator
            # resume, no StopIteration — which is the dominant fetch source.
            if replay:
                dyn = replay.popleft()
            elif trace_list is not None:
                pos = self._trace_pos
                if pos >= trace_length:
                    self._trace_exhausted = True
                    break
                dyn = trace_list[pos]
                self._trace_pos = pos + 1
            elif self._trace_exhausted:
                break
            else:
                try:
                    dyn = next(self._trace)
                except StopIteration:
                    self._trace_exhausted = True
                    break
            uop = dyn.uop
            kind = uop.hot_mask
            is_branch = kind & 1
            if is_branch and dyn.taken and taken_branches >= max_taken:
                replay.appendleft(dyn)
                break
            line = (dyn.pc * 4) // l1i_line_size
            ways = l1i_sets[line % l1i_num_sets]
            if ways and ways[0] == line:
                # MRU hit: same accounting as Cache.access, no latency beyond L1I.
                l1i_stats.accesses += 1
                l1i_stats.hits += 1
            else:
                icache_latency = hierarchy_fetch(dyn.pc, cycle)
                if icache_latency > l1i_latency:
                    # Instruction cache miss: fetch stalls until the line returns.
                    replay.appendleft(dyn)
                    self._fetch_resume_cycle = cycle + icache_latency
                    break

            # Inlined pool.acquire + InflightOp._init (both kept as the
            # reference implementations; the recycle path below must mirror
            # _init field for field).
            if pool_free:
                op = pool_arena[pool_free.pop()]
                op.dyn = dyn
                op.seq = dyn.seq
                op.pc = dyn.pc
                op.uop = uop
                op.wake_gen += 1
                op.wake_consumers = None
                op.mem_waiters = None
                op.avail_cycle = unknown_cycle
                op.iq_waiters = 0
                op.prediction = None
                op.pred_used = False
                op.early_executed = False
                op.late_executed = False
                op.in_issue_queue = False
                op.issued = False
                op.executed = False
                op.squashed = False
                op.dest_bank = 0
                op.load_forwarded = False
            else:
                op = pool.acquire(dyn)
            op.fetch_cycle = cycle
            op.dispatch_ready_cycle = cycle + fetch_to_dispatch
            # Inlined history.snapshot() memoisation (one attribute read on the
            # common no-new-branch path).
            snapshot = history._snapshot
            op.history_snapshot = snapshot if snapshot is not None else history.snapshot()

            if predictor is not None and kind & 32:  # vp-eligible
                prediction = predictor.lookup(dyn.pc, history)
                op.prediction = prediction
                op.pred_used = prediction is not None and prediction.confident

            stop_fetching = False
            if is_branch:
                if dyn.taken:
                    taken_branches += 1
                outcome = bpu_predict(dyn)
                op.branch_outcome = outcome
                if outcome.direction_mispredicted or outcome.target_mispredicted:
                    self._fetch_blocked_on = op
                    stop_fetching = True
                elif outcome.resolved_at_decode:
                    stats.decode_redirects += 1
                    self._fetch_resume_cycle = cycle + config.decode_redirect_penalty
                    stop_fetching = True

            frontend.append(op)
            fetched += 1
            if tracer is not None:
                tracer.emit(cycle, "fetch", op, uop.opcode.name)
                if predictor is not None and kind & 32:
                    prediction = op.prediction
                    if op.pred_used:
                        tracer.emit(cycle, "vp_lookup", op, prediction.source)
                    elif prediction is not None:
                        tracer.emit(cycle, "vp_lookup", op, "low_confidence")
                    else:
                        tracer.emit(cycle, "vp_lookup", op, "miss")
            if stop_fetching:
                break
        if fetched:
            stats.fetched_uops += fetched

    # ================================================================== squash
    def _squash_from(self, seq: int, cause: str = "value_mispred") -> None:
        """Squash every µ-op with sequence number >= ``seq`` and set up re-fetch."""
        self.stats.pipeline_squashes += 1
        squashed_rob = self.rob.squash_from(seq)
        squashed_frontend: list[InflightOp] = []
        while self._frontend and self._frontend[-1].seq >= seq:
            op = self._frontend.pop()
            op.squashed = True
            squashed_frontend.append(op)
        squashed_frontend.reverse()
        squashed = squashed_rob + squashed_frontend
        if not squashed:
            return
        self.stats.squashed_uops += len(squashed)
        if self.tracer is not None:
            emit = self.tracer.emit
            for op in squashed:
                emit(self.cycle, "squash", op, cause)
        if self._m_squash_depth is not None:
            self._m_squash_depth.record(len(squashed))
            self.metrics.counter(f"squash.cause.{cause}").inc()

        # Undo structural allocations of the squashed µ-ops.
        for op in squashed_rob:
            if op.uop.dst is not None and op.dispatch_cycle != UNKNOWN_CYCLE:
                self.prf.release(op.dest_bank)
        self.iq.remove_squashed()
        self.lsq.remove_squashed()
        self.store_sets.flush_lfst()
        self._rebuild_rename_map()
        self._previous_dispatch_group = []
        # Squashing flips dependence flags: surviving loads may now be ready.
        if self.cycle < self._iq_scan_from:
            self._iq_scan_from = self.cycle

        # Re-feed the squashed µ-ops to fetch, oldest first.
        for op in reversed(squashed):
            self._replay.appendleft(op.dyn)

        # Recover speculative predictor and history state.
        if self.predictor is not None:
            self.predictor.recover()
        self.history.restore(squashed[0].history_snapshot)

        # Fetch restarts after the squash (full front-end refill is paid naturally).
        if self._fetch_blocked_on is not None and self._fetch_blocked_on.squashed:
            self._fetch_blocked_on = None
        self._fetch_resume_cycle = max(self._fetch_resume_cycle, self.cycle + 1)

        # Squashed records are unreachable now (their consumers, being younger, died
        # with them; every structure above dropped its references) — recycle them,
        # except those still on the completion wheel, whose stale entries release
        # them when they pop.
        pool = self.pool
        for op in squashed:
            if not op.in_completion_wheel:
                pool.release(op)

    # ================================================================== results
    def _build_result(self) -> SimulationResult:
        full = self.stats.copy()
        baseline = self._warmup_snapshot if self._warmup_snapshot is not None else SimStats()
        window = full.delta(baseline)
        coverage = accuracy = 0.0
        if self.predictor is not None:
            coverage = self.predictor.stats.coverage
            accuracy = self.predictor.stats.accuracy
        extra = {
            "iq_peak_occupancy": self.iq.peak_occupancy,
            "rob_peak_occupancy": self.rob.peak_occupancy,
            "btb_hit_rate": self.bpu.btb.hit_rate,
        }
        if self.metrics is not None:
            extra["metrics"] = drain_simulator_metrics(self)
        return SimulationResult(
            config_name=self.config.name,
            workload_name=self.workload_name,
            stats=window,
            full_stats=full,
            warmup_uops=self.warmup_uops,
            predictor_coverage=coverage,
            predictor_accuracy=accuracy,
            tage_misprediction_rate=self.bpu.tage.misprediction_rate,
            tage_high_confidence_misprediction_rate=(
                self.bpu.tage.high_confidence_misprediction_rate
            ),
            l1d_miss_rate=self.hierarchy.l1d.stats.miss_rate,
            l2_miss_rate=self.hierarchy.l2.stats.miss_rate,
            extra=extra,
        )


def simulate(
    config: PipelineConfig,
    program: Program,
    max_uops: int = 20_000,
    warmup_uops: int = 0,
    arch_state: ArchState | None = None,
    workload_name: str | None = None,
    trace: "CapturedTrace | Iterable[DynInst] | None" = None,
) -> SimulationResult:
    """Convenience wrapper: build a :class:`Simulator` and run it."""
    simulator = Simulator(
        config,
        program,
        max_uops=max_uops,
        warmup_uops=warmup_uops,
        arch_state=arch_state,
        workload_name=workload_name,
        trace=trace,
    )
    return simulator.run()
