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
stepping every cycle: ``SteppedSimulator`` in ``tests/oracles.py`` is that reference,
and ``tests/trace/test_simulation_determinism.py`` compares the two across a
configuration × workload grid.

See DESIGN.md §5 for the modelling assumptions (wrong-path effects, speculative
scheduling) and their justification, and docs/performance.md for the event-wheel
design and its dead-cycle/stat-crediting rules.
"""

from __future__ import annotations

from collections import deque

from repro.bpu.btb import BranchTargetBuffer, ReturnAddressStack
from repro.bpu.history import GlobalHistory
from repro.bpu.tage import TAGEBranchPredictor
from repro.bpu.unit import BranchPredictionUnit
from repro.core.early_execution import EarlyExecutionBlock
from repro.core.late_execution import LateExecutionBlock
from repro.errors import SimulationError
from repro.isa.flags import approximate_flags, flags_match_for_validation
from repro.isa.trace import gc_paused
from repro.mem.hierarchy import MemoryHierarchy
from repro.obs.metrics import drain_simulator_metrics, maybe_sim_metrics
from repro.obs.tracer import maybe_tracer
from repro.ooo.functional_units import FunctionalUnitPool
from repro.ooo.inflight import InflightOp, InflightOpPool, UNKNOWN_CYCLE
from repro.ooo.issue_queue import _NEVER as _SHARED_NEVER, WakeupIssueQueue
from repro.ooo.lsq import LoadStoreQueue
from repro.ooo.registers import BankedRegisterFile, PRFPortBudget
from repro.ooo.rob import ReorderBuffer
from repro.ooo.store_sets import StoreSets
from repro.pipeline.config import PipelineConfig
from repro.pipeline.stats import SimStats, SimulationResult
from repro.trace.cache import shared_trace_cache
from repro.trace.capture import required_length
from repro.trace.encoding import CapturedTrace
from repro.workloads.suite import Workload

class Simulator:
    """Cycle-level simulator of one machine configuration running one workload."""

    #: Safety factor: a run is aborted if it exceeds this many cycles per committed µ-op.
    _DEADLOCK_CYCLES_PER_UOP = 400
    _DEADLOCK_SLACK_CYCLES = 200_000

    #: The issue queue class; a test swaps in its reference queue here.
    queue_class = WakeupIssueQueue

    def __init__(
        self,
        config: PipelineConfig,
        trace: CapturedTrace,
        max_uops: int = 20_000,
        warmup_uops: int = 0,
    ) -> None:
        """Set up the machine to replay ``max_uops`` committed µ-ops of ``trace``.

        Fetch runs ahead of commit by at most the ROB plus the front-end, so the
        trace must cover :func:`~repro.trace.capture.required_length` µ-ops (or
        hold the whole run of a program that halts sooner).
        """
        if warmup_uops >= max_uops:
            raise SimulationError("warmup_uops must be smaller than max_uops")
        needed = required_length(max_uops, config)
        if not trace.covers(needed):
            raise SimulationError(
                f"trace of {trace.program.name} holds {trace.length} µ-ops; "
                f"{config.name} needs {needed} for {max_uops} committed µ-ops"
            )
        self.config = config
        self.max_uops = max_uops
        self.warmup_uops = warmup_uops
        self.workload_name = trace.program.name

        # The committed stream, replayed by position (a position is also the
        # µ-op's sequence number): fetch reads the pc, taken and next-pc columns
        # and each µ-op's address, commit the dense result and flags lists.
        view = trace.replay_view()
        self._uops = trace.program.uops
        self._trace_pcs = view.pcs
        self._trace_taken = view.taken
        self._trace_next_pcs = view.next_pcs
        self._trace_results = view.result
        self._trace_flags = view.flags_result
        self._trace_addrs = view.addr
        self._trace_pos = 0
        self._trace_exhausted = False
        # Positions a squash (or a fetch stall) hands back to fetch, oldest first.
        self._replay: deque[int] = deque()

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
        # Dependency-driven wake-up: producers keep explicit consumer lists and the
        # IQ maintains an age-ordered ready list, so wake-up is O(woken) and select
        # O(ready) instead of O(occupancy) walks.  The issue stage calls the queue.
        self.iq = self.queue_class(config.iq_size, config.dispatch_to_issue_latency)
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
        self._multi_bank = config.prf_banks > 1

        # Issue-scan gating: ``_iq_scan_from`` is the earliest cycle at which a
        # select could find new work — the queue's next wheel deadline, lowered by
        # each dispatch group.  A squash leaves it alone: the squashed µ-ops are
        # younger than every survivor, so none of them held a survivor back.
        # Scans before it are provably empty and are skipped (bit-identical: a
        # skipped scan mutates no state and counts no statistics).
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
        # exactly when dispatch ended the cycle stalled with *zero* progress on a
        # structural resource ("rob"/"lsq"/"prf") or on a full IQ ("iq") — a cycle
        # that provably recurs unchanged until some other pipeline event frees the
        # resource, which is what lets the scheduler credit those cycles in bulk
        # instead of ticking them.  An "iq" cycle also re-runs the rename
        # overshoot: ``_iq_stall_blocked`` is the structural stall that ended it
        # and ``_iq_stall_ee_counts`` the EE planner's per-call counter increments.
        # It parks only where it repeats identically (see _park_on_full_iq).
        self._dispatch_stall_reason: str | None = None
        self._iq_stall_blocked: str | None = None
        self._iq_stall_ee_counts: tuple[int, int, int] | None = None
        ee_ports = config.ee_write_ports_per_bank
        self._iq_stall_repeats = not self._multi_bank and (ee_ports is None or ee_ports > 0)

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
        # pooled, prediction/outcome objects are acyclic).
        with gc_paused():
            self._run_event_driven(deadlock_limit)
        return self._build_result()

    def _raise_deadlock(self, deadlock_limit: int) -> None:
        raise SimulationError(
            f"simulation exceeded {deadlock_limit} cycles "
            f"({self.stats.committed_uops} µ-ops committed): likely deadlock"
        )

    def _run_event_driven(self, deadlock_limit: int) -> None:
        """The event-wheel main loop: step on event cycles, jump over dead spans.

        Invariant: a skipped cycle is one where the cycle-stepping loop would only
        have incremented ``stats.cycles`` and, when dispatch is parked on a
        zero-progress stall (a full ROB, LSQ, PRF bank or IQ), re-run that
        identical stalled dispatch (see :meth:`_skip_dead_cycles` for what it
        counts).  After each stepped cycle the loop jumps to the earliest cycle
        at which any stage could act: the minimum of conservative candidates
        taken from the completion wheel, the executed ROB head's commit
        deadline, ``_iq_scan_from`` (the re-arm cycle the issue queue gives
        :meth:`_issue`), the front-end head's dispatch deadline and the fetch
        resume point (docs/performance.md, "The event-wheel scheduler").
        Any cycle that could mutate other state is therefore stepped normally.
        Each stage call is preceded by an inline guard replicating that stage's
        own no-work early-exit, with the stable pipeline structures hoisted into
        locals.  ``SteppedSimulator`` in ``tests/oracles.py`` steps every cycle
        instead, and the determinism suite compares the two.
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
            # ---- one stepped cycle (stage guards inlined) ----
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
            # ---- event scheduling: jump to the earliest candidate cycle ----
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
                # a stepped loop's failure mode (and cycle accounting) is kept.
                nxt = deadlock_limit + 1
            gap = nxt - cycle - 1
            if gap > 0:
                self._skip_dead_cycles(gap)

    #: Sentinel for "no known future event" (also used by the issue-scan gating).
    # Shared with the issue queue's sentinel: ``next_scan_cycle`` and
    # ``wake_min`` flow straight into ``_iq_scan_from``, so the two "no known
    # future cycle" values must compare equal.
    _NEVER = _SHARED_NEVER

    def _skip_dead_cycles(self, gap: int) -> None:
        """Jump over ``gap`` provably-dead cycles, crediting per-cycle counters.

        A dead cycle, if stepped, would increment ``stats.cycles`` and clear the
        previous-dispatch bypass group.  When dispatch is parked (the front-end
        head is dispatch-ready but blocked with zero progress) it would also run
        the stalled dispatch once:

        * a structural stall counts one stall against the blocking resource;
        * a full IQ counts one ``iq_full_stalls``, and its rename overshoot the
          structural stall that ended the group (if any) and, on EE machines,
          the EE planner's per-call counter increments;
        * either records one ``iq.occupancy`` sample (metrics on), at an
          occupancy that is constant across the span.

        Everything else is untouched by construction (see
        :meth:`_run_event_driven`), so those effects are applied in bulk here.
        """
        self.cycle += gap
        stats = self.stats
        stats.cycles += gap
        self._previous_dispatch_group = []
        reason = self._dispatch_stall_reason
        if reason is not None:
            if reason == "iq":
                stats.iq_full_stalls += gap
                ee_counts = self._iq_stall_ee_counts
                if ee_counts is not None:
                    early_block = self.early_block
                    early_block.candidates_seen += ee_counts[0] * gap
                    early_block.executed += ee_counts[1] * gap
                    early_block.alu_saturation_rejects += ee_counts[2] * gap
                reason = self._iq_stall_blocked
            # The stall the stepped dispatch counts once a cycle, credited gap
            # cycles at once.
            if reason == "rob":
                stats.rob_full_stalls += gap
            elif reason == "lsq":
                stats.lsq_full_stalls += gap
            elif reason == "prf":
                stats.prf_bank_stalls += gap
            elif reason is not None:  # pragma: no cover - dispatch parks on no other
                raise SimulationError(f"unknown dispatch stall reason {reason!r}")
            if self._m_iq_occupancy is not None:
                self._m_iq_occupancy.record(self.iq.occupancy, gap)
        if self._m_skip_distance is not None:
            self._m_skip_distance.record(gap)

    # ================================================================== completion
    def _process_completions(self) -> None:
        ops = self._completions.pop(self.cycle, None)
        if not ops:
            return
        tracer = self.tracer
        for op in ops:
            op.in_completion_wheel = False
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

    def _count_late_resolution(self, op: InflightOp, outcome) -> None:
        """``REPRO_METRICS``: a mispredicted branch whose fetch block commit lifts.

        Counted by TAGE provider (a tagged component, or the bimodal table), with
        the cycles fetch stood blocked on it: from its fetch to the resume cycle.
        """
        provider = "tagged" if outcome.tage.provider >= 0 else "bimodal"
        fetch_cycle = op.dispatch_ready_cycle - self.config.fetch_to_dispatch_latency
        self.metrics.counter(f"branch.late_resolved.{provider}").inc()
        self.metrics.counter(f"branch.late_blocked_cycles.{provider}").inc(
            self._fetch_resume_cycle - fetch_cycle
        )

    # ================================================================== commit / LE-VT
    def _commit(self) -> None:
        """In-order retirement of up to ``commit_width`` µ-ops (the LE/VT stage).

        Fused fast path: the per-µ-op retire bookkeeping and the prediction
        correctness decision are inlined (their unfused reference methods live in
        ``tests/pipeline/test_commit_reference.py``, which compares whole runs),
        and the commit-side table training is batched into one
        ``train_commit_group`` call per commit group for the branch predictor and
        the value predictor each.  The deferral is invisible: the deferred
        updates touch only predictor tables and predictor-local statistics (read
        at result-build time), never ``SimStats``; their per-item order is the
        commit order; and on a value misprediction the batch — offender
        included, which trains exactly like the reference — is flushed *before*
        :meth:`_squash_from` runs predictor recovery.  The correctness decision
        itself needs no table state (it compares the fetched prediction against
        the architectural result), so deciding before training is equivalent.
        """
        committed = 0
        late_alus_used = 0
        cycle = self.cycle
        commit_extra = self._commit_extra
        late_alu_limit = self.late_block.config.alus
        commit_width = self.config.commit_width
        levt_limited = self._levt_ports_limited
        # The head peek/pop pair runs once per committed µ-op: the ROB's deque is
        # read and popped directly.
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
        results = self._trace_results
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

            # The µ-op retires this cycle.
            rob_entries.popleft()
            committed += 1
            if late_executed:
                late_alus_used += 1
            uop = op.uop
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
                hierarchy_store(op.addr, op.pc, cycle)
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
                        if self.metrics is not None:
                            self._count_late_resolution(op, outcome)
                elif outcome is not None and outcome.mispredicted:
                    stats.branch_mispredictions += 1

            if not self._warmup_done and stats.committed_uops >= self.warmup_uops:
                self._warmup_snapshot = stats.copy()
                self._warmup_done = True
            if stats.committed_uops >= self.max_uops:
                self._finished = True

            # Park the record for recycling (inlined pool.retire).
            pool_deferred.append((last_dispatched, op))
            if self._finished:
                # The reference returns before validating the run's final µ-op;
                # mirror it (its value-predictor entry is never appended).
                break

            # Prediction validation (training deferred).
            if (
                predictor is not None
                and kind & 32
                and (actual := results[op.seq]) is not None
            ):
                record = op.prediction
                vp_group.append((op.pc, actual, record))
                if op.pred_used:
                    value_correct = record[0] == actual
                    flags_ok = True
                    flags_result = self._trace_flags[op.seq] if kind & 128 else None
                    if flags_result is not None:
                        flags_ok = flags_match_for_validation(
                            flags_result, approximate_flags(record[0])
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

    # ================================================================== issue / execute
    def _issue(self) -> None:
        """Issue up to ``issue_width`` ready µ-ops and re-arm the issue scan.

        The queue decides everything: which entries are ready and win a
        functional unit (``select_ready``, oldest first) and the earliest cycle
        a later select could find new work (``next_scan_cycle``, asked after the
        selected µ-ops started, so the wake-ups they caused count).  Scans before
        ``_iq_scan_from`` are provably empty and are skipped: an empty scan
        mutates no state and counts no statistics.
        """
        cycle = self.cycle
        if cycle < self._iq_scan_from:
            return
        iq = self.iq
        selected = iq.select_ready(cycle, self.config.issue_width, self.fu_pool)
        if selected:
            start_execution = self._start_execution
            for op in selected:
                start_execution(op)
        self._iq_scan_from = iq.next_scan_cycle(cycle)

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
                memory_latency = self.hierarchy.load(op.addr, op.pc, cycle)
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
                # Consumers registered on this producer resolve now that its
                # availability is known.
                if self._m_wakeup_depth is not None:
                    self._m_wakeup_depth.record(len(consumers))
                self.iq.producer_available(op)
        if uop.is_store or op is self._fetch_blocked_on:
            # Only these completions act: a store checks memory order, a
            # mispredicted branch resumes fetch.
            op.in_completion_wheel = True
            completions = self._completions
            wheel_slot = completions.get(complete)
            if wheel_slot is None:
                completions[complete] = [op]
            else:
                wheel_slot.append(op)
        else:
            # Wheel diet: the completion would only have set this flag, and every
            # reader of it also compares against the commit deadline
            # ``complete_cycle + _commit_extra``, so setting it at issue is
            # invisible.  The traced event keeps the completion timestamp.
            op.executed = True
            if self.tracer is not None:
                self.tracer.emit(complete, "complete", op)

    # ================================================================== rename / dispatch
    def _park_on_full_iq(
        self, blocked: str | None, ee_counts: tuple[int, int, int] | None
    ) -> None:
        """Park dispatch after an IQ-full cycle with zero progress, if it recurs.

        The stalled cycle renames the group, counts ``blocked`` (the structural
        stall that ended the rename, if any) and rolls everything back, so it
        repeats identically until another stage's event changes the machine —
        unless the rename stopped short of ``rename_width`` at a front-end µ-op
        that is not yet dispatch-ready or at the end of the front-end
        (``"wait"``: a later cycle renames more, and neither the maturing µ-op
        nor one fetched after dispatch this cycle is a wheel candidate), or the
        PRF is banked (the round-robin pointer moves on every rename) or has no
        EE write port (the denied µ-op's prediction write stalls once a cycle).
        ``ee_counts`` are the EE planner's per-call counter increments on EE
        machines (``None`` without EE).  :meth:`_skip_dead_cycles` credits all of
        it per cycle.
        """
        if blocked != "wait" and self._iq_stall_repeats:
            self._dispatch_stall_reason = "iq"
            self._iq_stall_blocked = blocked
            self._iq_stall_ee_counts = ee_counts

    def _dispatch(self) -> None:
        """Rename/dispatch up to ``rename_width`` front-end µ-ops, in two phases.

        Phase A/B renames the whole group and allocates its ROB/LSQ/PRF entries;
        phase C lets the Early Execution planner see that group at once (the
        barrier EE needs); phase D/E classifies each µ-op for Late Execution and
        inserts it into the IQ.  A µ-op denied an IQ slot is rolled back to the
        front-end with every younger µ-op of the group.
        """
        cycle = self.cycle
        frontend = self._frontend
        self._dispatch_stall_reason = None
        if not frontend or frontend[0].dispatch_ready_cycle > cycle:
            self._previous_dispatch_group = []
            return
        previous_group = self._previous_dispatch_group
        config = self.config
        rename_width = config.rename_width
        multi_bank = self._multi_bank
        rename_map = self._rename_map
        rob = self.rob
        lsq = self.lsq
        prf = self.prf
        stats = self.stats
        # Hot-path views of the structural resources: phase A/B runs once per
        # dispatched µ-op and appends to the ROB/LSQ deques itself.
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
        # local overlay would always agree with it.  ``undo`` logs what each write
        # overwrote, for an IQ-full rollback; ``blocked`` is what ended the group.
        undo: list[InflightOp | None] = []
        blocked: str | None = None
        while len(group) < rename_width and frontend:
            op = frontend[0]
            if op.dispatch_ready_cycle > cycle:
                blocked = "wait"
                break
            uop = op.uop
            kind = uop.hot_mask
            # Structural space checks (ROB, then LSQ, then PRF bank).  A stall hit
            # before *any* progress parks the stage: the identical check fails
            # every cycle (one stall counted per cycle) until another stage's
            # event frees the resource, which the event scheduler exploits by
            # crediting skipped spans in bulk.
            if len(rob_entries) >= rob_capacity:
                stats.rob_full_stalls += 1
                blocked = "rob"
                break
            if kind & 16 and (  # memory
                len(lsq_loads) >= lq_capacity
                if kind & 4
                else len(lsq_stores) >= sq_capacity
            ):
                stats.lsq_full_stalls += 1
                blocked = "lsq"
                break
            if kind & 64 and multi_bank and not prf.can_allocate():
                stats.prf_bank_stalls += 1
                blocked = "prf"
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
                undo.append(rename_map.get(dst))
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
        if blocked is None and len(group) < rename_width:
            blocked = "wait"  # the front-end ran dry: a later fetch extends the group

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
        iq = self.iq
        if not group:
            # The head is dispatch-ready, so a structural stall ended the group.
            self._dispatch_stall_reason = blocked
            if self._m_iq_occupancy is not None:
                self._m_iq_occupancy.record(iq.occupancy)
            self._previous_dispatch_group = []
            return
        self._last_dispatched_seq = group[-1].seq

        # Phase C: Early Execution planning (in parallel with rename).  A group
        # denied whole by a full IQ parks dispatch (see _park_on_full_iq) — with
        # EE, only when the planner sees no previous-group bypass, as on every
        # later stalled cycle of the span; the planner's per-call counters are
        # then noted for the skipped cycles.
        early_block = self.early_block
        iq_capacity = iq.capacity
        parkable = iq.occupancy >= iq_capacity
        ee_before = None
        if self._ee_enabled:
            parkable = parkable and not previous_group
            if parkable:
                ee_before = (
                    early_block.candidates_seen,
                    early_block.executed,
                    early_block.alu_saturation_rejects,
                )
            early_block.plan(group, previous_group)

        # Phase D/E: Late-Execution classification, IQ insertion and port accounting.
        # The store-set hookup runs *before* the IQ insertion (the wake-up insert
        # reads ``mem_dependence``); relative to the reference order this swaps two
        # operations on disjoint state within one µ-op, and the capacity check still
        # precedes both, so a µ-op denied an IQ slot never touches the LFST.
        late_enabled = config.eole.late.enabled
        late_block = self.late_block
        store_sets = self.store_sets
        tracer = self.tracer
        for index, op in enumerate(group):
            uop = op.uop
            kind = uop.hot_mask
            pred_used = op.pred_used
            if late_enabled and (pred_used or kind & 2):
                # Pre-filter: only predicted µ-ops and conditional branches can be
                # late-executable (classify returns False for everything else).
                late_block.classify(op)
            if pred_used or op.early_executed:
                # The result is written to the PRF at dispatch: dependents may
                # consume it from this cycle on.
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
                if iq.occupancy >= iq_capacity:
                    stats.iq_full_stalls += 1
                    self._rollback_undispatched(group, index, undo)
                    if not index and parkable:
                        ee_counts = None
                        if ee_before is not None:
                            ee_counts = (
                                early_block.candidates_seen - ee_before[0],
                                early_block.executed - ee_before[1],
                                early_block.alu_saturation_rejects - ee_before[2],
                            )
                        self._park_on_full_iq(blocked, ee_counts)
                    group = group[:index]
                    break
                if kind & 4:
                    op.mem_dependence = store_sets.dependence_for_load(op)
                elif kind & 8:
                    store_sets.register_store(op)
                iq.insert(op)
                stats.dispatched_to_iq += 1
                if tracer is not None:
                    tracer.emit(cycle, "dispatch", op, "iq")

        if self._m_iq_occupancy is not None:
            self._m_iq_occupancy.record(iq.occupancy)
        # One re-arm per dispatch group: the queue's earliest deadline covers
        # every entry this group inserted.
        wake_min = iq.wake_min
        if wake_min < self._iq_scan_from:
            self._iq_scan_from = wake_min
        self._previous_dispatch_group = group

    def _rollback_undispatched(
        self,
        group: list[InflightOp],
        first_undispatched: int,
        undo: list[InflightOp | None],
    ) -> None:
        """Return µ-ops that could not get an IQ slot to the front-end, youngest first.

        ``undo`` logs, in rename order, the rename-map entry each destination
        write overwrote (``None``: no entry); it ends with the writes of
        ``group[first_undispatched:]``, which are popped and restored youngest
        first.  The restored map equals a rebuild from the surviving ROB: commit
        deletes an entry only while it still points at the committing µ-op, and
        nothing iterates the map.
        """
        rename_map = self._rename_map
        for op in reversed(group[first_undispatched:]):
            for dst in reversed(op.uop.dst_regs):
                previous = undo.pop()
                if previous is None:
                    del rename_map[dst]
                else:
                    rename_map[dst] = previous
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
            self._frontend.appendleft(op)

    def _rebuild_rename_map(self) -> None:
        self._rename_map = {}
        for op in self.rob:
            for dst in op.uop.dst_regs:
                self._rename_map[dst] = op

    # ================================================================== fetch
    def _fetch(self) -> None:
        config = self.config
        # Recycle retired records whose barrier has drained — fetch is the only
        # acquisition site, so promoting here guarantees no reader between a
        # record's release and its reuse.  (The pool's deferred queue is consulted
        # directly to keep the common nothing-parked cycle call-free.)
        pool = self.pool
        deferred = pool._deferred
        if deferred:
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
        # L1I hit fast path (the reference path is hierarchy.fetch, which
        # test_general_l1i_path_matches_the_committed_golden forces): sequential
        # fetch hits the MRU line of one set almost every µ-op.
        l1i = self.hierarchy.l1i
        l1i_sets = l1i._sets
        l1i_num_sets = l1i.num_sets
        l1i_line_size = l1i.line_size
        l1i_stats = l1i.stats
        uops = self._uops
        pcs = self._trace_pcs
        taken_column = self._trace_taken
        next_pcs = self._trace_next_pcs
        addrs = self._trace_addrs
        trace_length = len(pcs)
        unknown_cycle = UNKNOWN_CYCLE
        tracer = self.tracer
        fetched = 0
        taken_branches = 0
        while fetched < fetch_width:
            # The next trace position: a squash's replay queue first, then the
            # trace's next one.
            if replay:
                pos = replay.popleft()
            else:
                pos = self._trace_pos
                if pos >= trace_length:
                    self._trace_exhausted = True
                    break
                self._trace_pos = pos + 1
            pc = pcs[pos]
            uop = uops[pc]
            kind = uop.hot_mask
            is_branch = kind & 1
            if is_branch:
                taken = taken_column[pos]
                if taken and taken_branches >= max_taken:
                    replay.appendleft(pos)
                    break
            line = (pc * 4) // l1i_line_size
            ways = l1i_sets[line % l1i_num_sets]
            if ways and ways[0] == line:
                # MRU hit: same accounting as Cache.access, no latency beyond L1I.
                l1i_stats.accesses += 1
                l1i_stats.hits += 1
            else:
                icache_latency = hierarchy_fetch(pc, cycle)
                if icache_latency > l1i_latency:
                    # Instruction cache miss: fetch stalls until the line returns.
                    replay.appendleft(pos)
                    self._fetch_resume_cycle = cycle + icache_latency
                    break

            # Inlined pool.acquire + InflightOp._init: the recycle path below
            # must mirror _init field for field, which
            # test_unpooled_records_match_the_committed_golden checks by holding
            # runs that never recycle to the pooled golden.
            if pool_free:
                op = pool_arena[pool_free.pop()]
                op.seq = pos
                op.pc = pc
                op.uop = uop
                op.addr = addrs[pos]
                op.wake_gen += 1
                op.wake_consumers = None
                op.mem_waiters = None
                op.avail_cycle = unknown_cycle
                op.prediction = None
                op.pred_used = False
                op.early_executed = False
                op.late_executed = False
                op.issued = False
                op.executed = False
                op.squashed = False
                op.dest_bank = 0
                op.load_forwarded = False
            else:
                op = pool.acquire(pos, pc, uop, addrs[pos])
            op.dispatch_ready_cycle = cycle + fetch_to_dispatch
            # Inlined history.snapshot() memoisation (one attribute read on the
            # common no-new-branch path).
            snapshot = history._snapshot
            op.history_snapshot = snapshot if snapshot is not None else history.snapshot()

            if predictor is not None and kind & 32:  # vp-eligible
                record = predictor.lookup(pc, history)
                op.prediction = record
                op.pred_used = record is not None and record[1]

            stop_fetching = False
            if is_branch:
                if taken:
                    taken_branches += 1
                outcome = bpu_predict(pc, uop, taken, next_pcs[pos])
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
                    if op.pred_used:
                        tracer.emit(cycle, "vp_lookup", op, predictor.name)
                    elif op.prediction is not None:
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

        # Re-feed the squashed positions to fetch, oldest first.
        for op in reversed(squashed):
            self._replay.appendleft(op.seq)

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
    workload: Workload,
    max_uops: int = 20_000,
    warmup_uops: int = 0,
    trace: CapturedTrace | None = None,
) -> SimulationResult:
    """Run ``workload`` on ``config``: replay ``trace``, or the shared trace cache's."""
    if trace is None:
        trace = shared_trace_cache.trace_for(workload, max_uops, config)
    return Simulator(config, trace, max_uops, warmup_uops).run()
