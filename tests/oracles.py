"""The differential oracles: slow, plain references of three fast paths in ``src/``.

Each reference computes what its fast path computes, the direct way, and tests
hold the two byte-identical:

- :class:`StepEmulator` executes one µ-op per :meth:`~StepEmulator.step` call and
  returns ``DynInst`` records; :func:`reference_trace` encodes a run of them as a
  trace.  It is the reference of the batched capture (``Emulator.run_batch``).
- :class:`ScanIssueQueue` walks every entry on every select and asks for a scan
  every cycle while it holds one.  It is the reference of ``WakeupIssueQueue``.
- :class:`SteppedSimulator` steps every cycle.  It is the reference of the event
  wheel (``Simulator._run_event_driven``).

:func:`use_oracles` routes the library's own simulations (``simulate``,
``run_campaign``, ``repro.obs trace``) through any of them for one test.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator

import repro.pipeline.simulator as simulator_module
from repro.errors import EmulationError
from repro.isa import registers as regs
from repro.isa.emulator import HALT_PC, ArchState, Emulator, _invalid_indirect_target
from repro.isa.flags import (
    CF,
    MASK64,
    OF,
    SF,
    ZF,
    add_flags,
    flags_from_result,
    logic_flags,
    sub_flags,
)
from repro.isa.opcode import Opcode
from repro.isa.program import Program
from repro.isa.trace import OPTIONAL_FIELDS, DynInst, gc_paused
from repro.ooo.functional_units import FunctionalUnitPool
from repro.ooo.inflight import InflightOp, UNKNOWN_CYCLE
from repro.ooo.issue_queue import _NEVER
from repro.pipeline.simulator import Simulator
from repro.pipeline.stats import SimulationResult
from repro.trace.cache import TraceCache
from repro.trace.encoding import CapturedTrace, empty_columns


# ---------------------------------------------------------------------- emulator
def read_mem(state: ArchState, address: int) -> int:
    """Word-granular memory read (the written value, else the initial image)."""
    value = state.memory.get(address)
    if value is None:
        return state.initial_value(address)
    return value


def write_mem(state: ArchState, address: int, value: int) -> None:
    """Word-granular memory write."""
    state.memory[address] = value & MASK64


class StepEmulator(Emulator):
    """The step-wise emulator: one µ-op per :meth:`step`, as a ``DynInst`` record."""

    def _branch_condition(self, opcode: Opcode, flags: int) -> bool:
        if opcode is Opcode.BEQ:
            return bool(flags & ZF)
        if opcode is Opcode.BNE:
            return not flags & ZF
        if opcode is Opcode.BLT:
            return bool(flags & SF) != bool(flags & OF)
        if opcode is Opcode.BGE:
            return bool(flags & SF) == bool(flags & OF)
        if opcode is Opcode.BGT:
            return not flags & ZF and bool(flags & SF) == bool(flags & OF)
        if opcode is Opcode.BLE:
            return bool(flags & ZF) or bool(flags & SF) != bool(flags & OF)
        if opcode is Opcode.BCS:
            return bool(flags & CF)
        if opcode is Opcode.BVS:
            return bool(flags & OF)
        raise EmulationError(f"not a conditional branch: {opcode}")

    def step(self) -> DynInst | None:
        """Execute one µ-op and return its dynamic record, or ``None`` once halted."""
        if self.halted:
            return None
        pc = self.pc
        if not 0 <= pc < self._length:
            self.halted = True
            return None

        program = self.program
        state = self.state
        arch_regs = state.regs
        uop = self._uops[pc]
        opcode = uop.opcode
        imm = self._imms[pc]

        srcs = uop.srcs
        src_values = tuple(arch_regs[s] for s in srcs)
        result: int | None = None
        flags_result: int | None = None
        addr: int | None = None
        taken = False
        next_pc = pc + 1

        a = src_values[0] if src_values else 0
        b = src_values[1] if len(src_values) > 1 else (imm if imm is not None else 0)

        if opcode is Opcode.ADD:
            result = (a + b) & MASK64
            if uop.sets_flags:
                flags_result = add_flags(a, b)
        elif opcode is Opcode.SUB:
            result = (a - b) & MASK64
            if uop.sets_flags:
                flags_result = sub_flags(a, b)
        elif opcode is Opcode.AND:
            result = a & b
            if uop.sets_flags:
                flags_result = logic_flags(result)
        elif opcode is Opcode.OR:
            result = (a | b) & MASK64
            if uop.sets_flags:
                flags_result = logic_flags(result)
        elif opcode is Opcode.XOR:
            result = (a ^ b) & MASK64
            if uop.sets_flags:
                flags_result = logic_flags(result)
        elif opcode is Opcode.SHL:
            result = (a << (b & 63)) & MASK64
            if uop.sets_flags:
                flags_result = logic_flags(result)
        elif opcode is Opcode.SHR:
            result = (a & MASK64) >> (b & 63)
            if uop.sets_flags:
                flags_result = logic_flags(result)
        elif opcode is Opcode.MOV:
            result = a
            if uop.sets_flags:
                flags_result = flags_from_result(result)
        elif opcode is Opcode.MOVI:
            result = (imm if imm is not None else 0) & MASK64
            if uop.sets_flags:
                flags_result = flags_from_result(result)
        elif opcode is Opcode.CMP:
            flags_result = sub_flags(a, b)
        elif opcode is Opcode.NOT:
            result = (~a) & MASK64
            if uop.sets_flags:
                flags_result = logic_flags(result)
        elif opcode is Opcode.NEG:
            result = (-a) & MASK64
            if uop.sets_flags:
                flags_result = sub_flags(0, a)
        elif opcode is Opcode.MIN:
            result = min(a, b) & MASK64
            if uop.sets_flags:
                flags_result = flags_from_result(result)
        elif opcode is Opcode.MAX:
            result = max(a, b)
            if uop.sets_flags:
                flags_result = flags_from_result(result)
        elif opcode is Opcode.MUL:
            result = (a * b) & MASK64
            if uop.sets_flags:
                flags_result = flags_from_result(result)
        elif opcode is Opcode.DIV:
            result = (a // b) & MASK64 if b else MASK64
            if uop.sets_flags:
                flags_result = flags_from_result(result)
        elif opcode is Opcode.MOD:
            result = (a % b) & MASK64 if b else 0
            if uop.sets_flags:
                flags_result = flags_from_result(result)
        elif opcode is Opcode.FADD:
            result = (a + b) & MASK64
        elif opcode is Opcode.FSUB:
            result = (a - b) & MASK64
        elif opcode in (Opcode.FMOV, Opcode.FCVT):
            result = a
        elif opcode is Opcode.FMUL:
            result = (a * b) & MASK64
        elif opcode is Opcode.FMA:
            c = src_values[2] if len(src_values) > 2 else 0
            result = (a * b + c) & MASK64
        elif opcode is Opcode.FDIV:
            result = (a // b) & MASK64 if b else MASK64
        elif opcode is Opcode.FSQRT:
            result = int((a & MASK64) ** 0.5) & MASK64
        elif opcode in (Opcode.LD, Opcode.FLD):
            addr = (a + (imm if imm is not None else 0)) & MASK64
            result = read_mem(state, addr)
        elif opcode in (Opcode.ST, Opcode.FST):
            addr = (a + (imm if imm is not None else 0)) & MASK64
            write_mem(state, addr, src_values[1] if len(src_values) > 1 else 0)
        elif uop.is_conditional_branch:
            taken = self._branch_condition(opcode, arch_regs[regs.FLAGS_REG])
            target = program.target_of(pc)
            if target is None:
                raise EmulationError(f"conditional branch at pc={pc} has no target")
            next_pc = target if taken else pc + 1
        elif opcode is Opcode.JMP:
            target = program.target_of(pc)
            if target is None:
                raise EmulationError(f"jump at pc={pc} has no target")
            taken = True
            next_pc = target
        elif opcode is Opcode.JMPI:
            taken = True
            next_pc = a & MASK64
            if not 0 <= next_pc < len(program):
                raise _invalid_indirect_target(pc, next_pc)
        elif opcode is Opcode.CALL:
            target = program.target_of(pc)
            if target is None:
                raise EmulationError(f"call at pc={pc} has no target")
            state.call_stack.append(pc + 1)
            taken = True
            next_pc = target
        elif opcode is Opcode.RET:
            taken = True
            if state.call_stack:
                next_pc = state.call_stack.pop()
            else:
                next_pc = HALT_PC
        elif opcode is Opcode.NOP:
            pass
        else:  # pragma: no cover - defensive, all opcodes are handled above
            raise EmulationError(f"unimplemented opcode {opcode}")

        if result is not None and uop.dst is not None:
            arch_regs[uop.dst] = result & MASK64
        if flags_result is not None:
            arch_regs[regs.FLAGS_REG] = flags_result & MASK64

        inst = DynInst(self.seq, pc, uop, result, flags_result, addr, taken, next_pc)
        self.seq += 1
        if next_pc == HALT_PC or not 0 <= next_pc < self._length:
            self.halted = True
            self.pc = HALT_PC
        else:
            self.pc = next_pc
        return inst

    def run(self, max_uops: int) -> Iterator[DynInst]:
        """Yield up to ``max_uops`` dynamic µ-ops (stops early if the program halts)."""
        produced = 0
        while produced < max_uops:
            inst = self.step()
            if inst is None:
                break
            produced += 1
            yield inst


def trace_from_instructions(
    program: Program, instructions: Iterable[DynInst], halted: bool
) -> CapturedTrace:
    """Encode a committed ``DynInst`` stream as the columns every trace holds."""
    columns = empty_columns()
    pcs, next_pcs, taken, presence, values = columns
    for inst in instructions:
        pcs.append(inst.pc)
        next_pcs.append(inst.next_pc)
        taken.append(1 if inst.taken else 0)
        for name in OPTIONAL_FIELDS:
            value = getattr(inst, name)
            presence[name].append(value is not None)
            if value is not None:
                values[name].append(value)
    return CapturedTrace(program, *columns, halted=halted)


def reference_trace(
    program: Program, budget: int, state: ArchState | None = None
) -> CapturedTrace:
    """:meth:`StepEmulator.run` for up to ``budget`` µ-ops, encoded as a trace."""
    emulator = StepEmulator(program, state=state)
    with gc_paused():
        instructions = tuple(emulator.run(budget))
    return trace_from_instructions(program, instructions, emulator.halted)


def _reference_acquire(cache, workload, needed: int, max_uops: int) -> CapturedTrace:
    """A fresh reference trace of ``needed`` µ-ops: no entry, store or counter."""
    return reference_trace(workload.program, needed, workload.make_state())


# ---------------------------------------------------------------------- issue queue
class ScanIssueQueue:
    """The full-walk issue queue: every select re-derives each entry's readiness.

    It keeps no wake-up state.  An entry is ready once it is past the
    dispatch-to-issue latency, every producer's result is available and, for a
    load, its store-set dependence has issued or been squashed; the walk offers
    ready entries to ``fu_pool`` oldest first, up to the issue width.  While the
    queue holds an entry it asks for a scan every cycle.
    """

    def __init__(self, capacity: int = 64, dispatch_to_issue_latency: int = 1) -> None:
        self.capacity = capacity
        self._d2i = dispatch_to_issue_latency
        self._entries: list[InflightOp] = []
        self.occupancy = 0
        self.peak_occupancy = 0
        self.tracer = None
        #: The earliest maturity deadline inserted since the last select.
        self.wake_min = _NEVER

    def insert(self, op: InflightOp) -> None:
        self._entries.append(op)
        self.occupancy += 1
        self.peak_occupancy = max(self.peak_occupancy, self.occupancy)
        self.wake_min = min(self.wake_min, op.dispatch_cycle + self._d2i)

    def remove_squashed(self) -> None:
        self._entries = [op for op in self._entries if not op.squashed]
        self.occupancy = len(self._entries)

    def select_ready(
        self, cycle: int, issue_width: int, fu_pool: FunctionalUnitPool
    ) -> list[InflightOp]:
        """Issue up to ``issue_width`` ready entries, oldest first, and remove them."""
        self.wake_min = _NEVER
        selected: list[InflightOp] = []
        for op in self._entries:
            if len(selected) >= issue_width or cycle < op.dispatch_cycle + self._d2i:
                # Entries are in dispatch order: past the first immature one, all are.
                break
            for producer in op.producers:
                if producer is not None and (
                    producer.avail_cycle == UNKNOWN_CYCLE or producer.avail_cycle > cycle
                ):
                    break
            else:
                uop = op.uop
                dependence = op.mem_dependence if uop.is_load else None
                if dependence is not None and not (dependence.squashed or dependence.issued):
                    continue
                if fu_pool.try_issue(uop.opclass, cycle, uop.latency):
                    op.issued = True
                    op.issue_cycle = cycle
                    if self.tracer is not None:
                        self.tracer.emit(cycle, "wakeup", op, "scan")
                    selected.append(op)
        if selected:
            self._entries = [op for op in self._entries if not op.issued]
            self.occupancy = len(self._entries)
        return selected

    def next_scan_cycle(self, cycle: int) -> int:
        return cycle + 1 if self._entries else _NEVER


# ---------------------------------------------------------------------- main loop
class SteppedSimulator(Simulator):
    """The simulator stepping every cycle, with no event wheel."""

    def run(self) -> SimulationResult:
        deadlock_limit = (
            self.max_uops * self._DEADLOCK_CYCLES_PER_UOP + self._DEADLOCK_SLACK_CYCLES
        )
        with gc_paused():
            while not self._finished:
                self._step()
                if self.cycle > deadlock_limit:
                    self._raise_deadlock(deadlock_limit)
        return self._build_result()

    def _step(self) -> None:
        """Advance the machine by one cycle, each stage behind its no-work guard."""
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


def use_oracles(monkeypatch, *, trace=False, loop=False, queue=False) -> None:
    """Route this test's simulations through the chosen references.

    ``trace``: the trace cache hands out a fresh :func:`reference_trace` on every
    request, touching no entry, store or counter.  ``loop``: ``simulate`` (and so
    every campaign and ``repro.obs`` run in this process) builds a
    :class:`SteppedSimulator`.  ``queue``: every simulator builds a
    :class:`ScanIssueQueue`.
    """
    if trace:
        monkeypatch.setattr(TraceCache, "_acquire", _reference_acquire)
    if loop:
        monkeypatch.setattr(simulator_module, "Simulator", SteppedSimulator)
    if queue:
        monkeypatch.setattr(Simulator, "queue_class", ScanIssueQueue)
