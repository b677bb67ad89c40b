"""Architectural (functional) emulator.

The emulator executes a resolved :class:`~repro.isa.program.Program` at the
architectural level and writes the committed µ-op stream as trace columns, in one
batch (:meth:`Emulator.run_batch`).  Its reference, ``StepEmulator`` in
``tests/oracles.py``, executes one µ-op per call and returns
:class:`~repro.isa.trace.DynInst` records.  All values are 64-bit unsigned integers with
wrap-around semantics; "floating-point" µ-ops operate on the same value domain but use
distinct arithmetic so that FP-heavy kernels exhibit their own value locality patterns.

Memory is a sparse word-granular store.  A word not written before being read takes
its initial value from the address: inside one of the state's closed-form regions (a
workload's initialised arrays) the region's value for that word, elsewhere a
deterministic pseudo-random value, so that loads from untouched memory carry low
value-predictability (mirroring pointer-chasing codes) while the arrays behave as the
kernel dictates.
"""

from __future__ import annotations

from collections.abc import Callable

from repro.errors import EmulationError
from repro.isa import registers as regs
from repro.isa.flags import (
    ALL_FLAGS,
    MASK64,
    ZF,
    SF,
    CF,
    OF,
    add_flags,
    flags_from_result,
    logic_flags,
    sub_flags,
)
from repro.isa.opcode import Opcode
from repro.isa.program import Program
from repro.isa.trace import OPTIONAL_FIELDS

#: Multiplier used to synthesise the contents of untouched memory locations.
_UNINITIALISED_MEMORY_MIX = 0x9E3779B97F4A7C15

#: Static PC value meaning "the program has fallen off its end".
HALT_PC = -1


# Arms of the batched capture loop (:meth:`Emulator.run_batch`), numbered in the
# order the loop tests them: by share of the suite's dynamic µ-op mix (ADD with
# FADD 40.5 %, AND 17.8 %, LD 13.9 %, conditional branches 6.1 %, CMP 6.1 %,
# XOR 4.2 %, MOVI 3.4 %, ST 3.1 %), then the rare ones.
(
    _ADD, _AND, _LOAD, _COND_BRANCH, _CMP, _XOR, _MOVI, _STORE, _SHL, _CALL, _RET,
    _MUL, _SHR, _JMP, _JMPI, _MOV, _SUB, _OR, _NOT, _NEG, _MIN, _MAX, _DIV, _MOD,
    _FMA, _FSQRT, _NOP,
) = range(27)


def _tabulate_condition(taken_if) -> tuple[bool, ...]:
    """``taken_if(zf, sf, cf, of)`` for every value of the modelled flag bits."""
    return tuple(
        bool(taken_if(bool(flags & ZF), bool(flags & SF), bool(flags & CF), bool(flags & OF)))
        for flags in range(ALL_FLAGS + 1)
    )


#: Direction of each conditional branch, indexed by ``flags & ALL_FLAGS``.
#: Written independently of ``StepEmulator._branch_condition`` in
#: ``tests/oracles.py``, the reference a unit test compares it with.
_BRANCH_TAKEN: dict[Opcode, tuple[bool, ...]] = {
    Opcode.BEQ: _tabulate_condition(lambda zf, sf, cf, of: zf),
    Opcode.BNE: _tabulate_condition(lambda zf, sf, cf, of: not zf),
    Opcode.BLT: _tabulate_condition(lambda zf, sf, cf, of: sf != of),
    Opcode.BGE: _tabulate_condition(lambda zf, sf, cf, of: sf == of),
    Opcode.BGT: _tabulate_condition(lambda zf, sf, cf, of: not zf and sf == of),
    Opcode.BLE: _tabulate_condition(lambda zf, sf, cf, of: zf or sf != of),
    Opcode.BCS: _tabulate_condition(lambda zf, sf, cf, of: cf),
    Opcode.BVS: _tabulate_condition(lambda zf, sf, cf, of: of),
}


#: Loop arm of every opcode.  An FP opcode whose semantics equal an integer
#: opcode's (never setting flags) shares that opcode's arm.
_DISPATCH_KIND: dict[Opcode, int] = {
    Opcode.ADD: _ADD,
    Opcode.FADD: _ADD,
    Opcode.AND: _AND,
    Opcode.LD: _LOAD,
    Opcode.FLD: _LOAD,
    **dict.fromkeys(_BRANCH_TAKEN, _COND_BRANCH),
    Opcode.CMP: _CMP,
    Opcode.XOR: _XOR,
    Opcode.MOVI: _MOVI,
    Opcode.ST: _STORE,
    Opcode.FST: _STORE,
    Opcode.SHL: _SHL,
    Opcode.CALL: _CALL,
    Opcode.RET: _RET,
    Opcode.MUL: _MUL,
    Opcode.FMUL: _MUL,
    Opcode.SHR: _SHR,
    Opcode.JMP: _JMP,
    Opcode.JMPI: _JMPI,
    Opcode.MOV: _MOV,
    Opcode.FMOV: _MOV,
    Opcode.FCVT: _MOV,
    Opcode.SUB: _SUB,
    Opcode.FSUB: _SUB,
    Opcode.OR: _OR,
    Opcode.NOT: _NOT,
    Opcode.NEG: _NEG,
    Opcode.MIN: _MIN,
    Opcode.MAX: _MAX,
    Opcode.DIV: _DIV,
    Opcode.FDIV: _DIV,
    Opcode.MOD: _MOD,
    Opcode.FMA: _FMA,
    Opcode.FSQRT: _FSQRT,
    Opcode.NOP: _NOP,
}


#: Loop arms whose µ-op always produces a ``result``.
_RESULT_ARMS = frozenset(
    {
        _ADD, _AND, _LOAD, _XOR, _MOVI, _SHL, _MUL, _SHR, _MOV, _SUB, _OR, _NOT,
        _NEG, _MIN, _MAX, _DIV, _MOD, _FMA, _FSQRT,
    }
)

#: Loop arms that write the flags when the µ-op ``sets_flags`` (CMP always does).
_FLAG_SETTING_ARMS = frozenset(
    {
        _ADD, _AND, _XOR, _MOVI, _SHL, _MUL, _SHR, _MOV, _SUB, _OR, _NOT, _NEG,
        _MIN, _MAX, _DIV, _MOD,
    }
)


def _present_fields(kind: int, sets_flags: bool) -> tuple[bool, ...]:
    """Which optional ``DynInst`` fields a µ-op sets, in :data:`OPTIONAL_FIELDS` order.

    Static per µ-op: it follows from the loop arm and ``sets_flags`` alone, so
    a columnar capture expands the presence columns from the pcs after the loop.
    """
    return (
        kind in _RESULT_ARMS,
        kind == _CMP or (sets_flags and kind in _FLAG_SETTING_ARMS),
        kind == _LOAD or kind == _STORE,
    )


def _default_memory_value(address: int) -> int:
    """Deterministic pseudo-random content of an untouched memory word.

    Uses a splitmix64-style finaliser so that *all* bits (including the low bits read by
    data-dependent branches) look random even for aligned addresses.
    """
    z = (address + _UNINITIALISED_MEMORY_MIX) & MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK64
    return (z ^ (z >> 31)) & MASK64


def _invalid_indirect_target(pc: int, target: int) -> EmulationError:
    """The error of an indirect jump to ``target``, naming its usual cause."""
    return EmulationError(
        f"indirect jump at pc={pc} targets invalid pc {target}; a suite workload "
        "started from an empty ArchState has no jump table: run it from "
        "workload.make_state()"
    )


class ArchState:
    """Architectural machine state: registers, memory and the shadow call stack.

    ``memory`` holds every word written or read so far.  ``regions`` describes
    the initial memory image as ``(base, limit, value_of_index)`` triples: the
    word at ``base + 8 * i`` below ``limit`` starts as ``value_of_index(i)``.
    Regions do not overlap.  A word's initial value is computed on its first
    read (:meth:`initial_value`), so a state costs nothing per word that is
    never touched.
    """

    __slots__ = ("regs", "memory", "call_stack", "regions")

    def __init__(self) -> None:
        self.regs: list[int] = [0] * regs.NUM_ARCH_REGS
        self.memory: dict[int, int] = {}
        self.call_stack: list[int] = []
        self.regions: tuple[tuple[int, int, Callable[[int], int]], ...] = ()

    def initial_value(self, address: int) -> int:
        """Content of ``address`` before any write to it, memoised in ``memory``.

        A word of a region takes the region's value, wrapped to 64 bits; any
        other address (a misaligned one inside a region included) takes
        :func:`_default_memory_value`.
        """
        for base, limit, value_of_index in self.regions:
            if base <= address < limit and not (address - base) & 7:
                value = value_of_index((address - base) >> 3) & MASK64
                break
        else:
            value = _default_memory_value(address)
        self.memory[address] = value
        return value


class Emulator:
    """Architectural emulator writing the committed µ-op trace as columns."""

    def __init__(self, program: Program, state: ArchState | None = None) -> None:
        if not program.resolved:
            program.resolve()
        self.program = program
        self.state = state if state is not None else ArchState()
        self.pc = 0
        self.seq = 0
        self.halted = False
        # Hot-path views of the resolved program (µ-ops and immediates are indexed
        # once per executed µ-op; going through the Program accessors costs a method
        # call plus a resolution check each).
        self._uops = program.uops
        self._imms = program._imm_values
        self._length = len(program.uops)
        # Batched-decode table for run_batch, built on first use: one tuple per
        # PC of the µ-op's loop arm and its static fields, so the capture loop
        # performs a single list index + tuple unpack per µ-op.
        self._decode_table: list[tuple] | None = None
        # Per-pc signature codes and column translation tables for columnar
        # capture, built on first use (see _build_column_tables).
        self._column_tables: tuple[list[int], list[bytes]] | None = None

    # ------------------------------------------------------------------ batched capture
    def _build_decode_table(self) -> list[tuple]:
        """Resolve, once per static µ-op, everything :meth:`run_batch` dispatches on.

        Each slot holds ``(uop, kind, sources, arity, dst, sets_flags,
        imm_or_zero, target, taken_by_flags)``: ``kind`` is the µ-op's arm of the
        batched loop (:data:`_DISPATCH_KIND`) and ``taken_by_flags`` a conditional
        branch's direction for every value of the flag bits (``None`` for any
        other µ-op).  The rest are the µ-op's static fields.
        """
        program = self.program
        kinds = _DISPATCH_KIND
        conditions = _BRANCH_TAKEN
        table: list[tuple] = []
        for pc, uop in enumerate(self._uops):
            imm = self._imms[pc]
            opcode = uop.opcode
            table.append(
                (
                    uop,
                    kinds[opcode],
                    uop.srcs,
                    len(uop.srcs),
                    uop.dst,
                    uop.sets_flags,
                    imm if imm is not None else 0,
                    program.target_of(pc),
                    conditions.get(opcode),
                )
            )
        self._decode_table = table
        return table

    def _build_column_tables(self) -> tuple[list[int], list[bytes]]:
        """Per-pc signature codes and, per presence column, a code → byte translation.

        A µ-op's optional-field presence is static: the distinct presence
        signatures are numbered, each pc maps to its signature's number, and one
        256-byte ``bytes.translate`` table per :data:`OPTIONAL_FIELDS` column
        turns a batch's codes into that column.
        """
        decode = self._decode_table
        if decode is None:
            decode = self._build_decode_table()
        signatures = [
            _present_fields(kind, sets_flags) for _, kind, _, _, _, sets_flags, *_ in decode
        ]
        distinct = sorted(set(signatures))
        number = {signature: code for code, signature in enumerate(distinct)}
        tables = (
            [number[signature] for signature in signatures],
            [
                bytes(signature[column] for signature in distinct).ljust(256, b"\0")
                for column in range(len(OPTIONAL_FIELDS))
            ],
        )
        self._column_tables = tables
        return tables

    def run_batch(self, max_uops: int, columns: tuple) -> None:
        """Execute up to ``max_uops`` µ-ops, appending them to the trace ``columns``.

        The capture fast path: one specialised loop over the batched-decode
        table with the hot machine state (pc, seq, registers, memory) in locals,
        bit-identical to the step-wise reference (``StepEmulator.run`` in
        ``tests/oracles.py``, which the unit suite compares it with).  The arms
        test the pre-resolved integer ``kind`` in the order of the measured
        dynamic mix, so no µ-op pays an enum member load.

        ``columns`` are the ``(pcs, next_pcs, taken, presence, values)`` arrays a
        :class:`~repro.trace.encoding.CapturedTrace` is built from
        (:func:`~repro.trace.encoding.empty_columns`), ``presence`` and
        ``values`` keyed by :data:`~repro.isa.trace.OPTIONAL_FIELDS`.  The loop's
        tail appends each µ-op's pc, taken bit and present optional values.
        After the loop, the next pcs are the pcs shifted by one, and the
        presence bits, static per pc, are expanded from the pcs.
        """
        if self.halted or max_uops <= 0:
            return
        pc = self.pc
        length = self._length
        if not 0 <= pc < length:
            self.halted = True
            return
        decode = self._decode_table
        if decode is None:
            decode = self._build_decode_table()
        pcs, next_pcs, taken_column, presence, values = columns
        start = len(pcs)
        append_pc = pcs.append
        append_taken = taken_column.append
        append_result, append_flags_result, append_addr = [
            values[name].append for name in OPTIONAL_FIELDS
        ]
        state = self.state
        arch_regs = state.regs
        memory = state.memory
        initial_value = state.initial_value
        call_stack = state.call_stack
        flags_index = regs.FLAGS_REG
        flag_bits = ALL_FLAGS
        mask64 = MASK64
        seq = self.seq
        halt_pc = HALT_PC
        for _ in range(max_uops):
            (
                uop,
                kind,
                sources,
                arity,
                dst,
                sets_flags,
                imm_or_zero,
                target,
                taken_by_flags,
            ) = decode[pc]

            result: int | None = None
            flags_result: int | None = None
            addr: int | None = None
            taken = False
            next_pc = pc + 1

            if arity == 0:
                a = 0
                b = imm_or_zero
            elif arity == 1:
                a = arch_regs[sources[0]]
                b = imm_or_zero
            else:
                a = arch_regs[sources[0]]
                b = arch_regs[sources[1]]

            # MicroOp rejects sets_flags on FP µ-ops, so an FP opcode sharing an
            # integer arm never reaches that arm's flags computation.
            if kind == _ADD:
                result = (a + b) & mask64
                if sets_flags:
                    flags_result = add_flags(a, b)
            elif kind == _AND:
                result = a & b
                if sets_flags:
                    flags_result = logic_flags(result)
            elif kind == _LOAD:
                addr = (a + imm_or_zero) & mask64
                result = memory.get(addr)
                if result is None:
                    result = initial_value(addr)
            elif kind == _COND_BRANCH:
                taken = taken_by_flags[arch_regs[flags_index] & flag_bits]
                if target is None:
                    raise EmulationError(f"conditional branch at pc={pc} has no target")
                if taken:
                    next_pc = target
            elif kind == _CMP:
                flags_result = sub_flags(a, b)
            elif kind == _XOR:
                result = (a ^ b) & mask64
                if sets_flags:
                    flags_result = logic_flags(result)
            elif kind == _MOVI:
                result = imm_or_zero & mask64
                if sets_flags:
                    flags_result = flags_from_result(result)
            elif kind == _STORE:
                addr = (a + imm_or_zero) & mask64
                memory[addr] = b & mask64 if arity > 1 else 0
            elif kind == _SHL:
                result = (a << (b & 63)) & mask64
                if sets_flags:
                    flags_result = logic_flags(result)
            elif kind == _CALL:
                if target is None:
                    raise EmulationError(f"call at pc={pc} has no target")
                call_stack.append(pc + 1)
                taken = True
                next_pc = target
            elif kind == _RET:
                taken = True
                if call_stack:
                    next_pc = call_stack.pop()
                else:
                    next_pc = halt_pc
            elif kind == _MUL:
                result = (a * b) & mask64
                if sets_flags:
                    flags_result = flags_from_result(result)
            elif kind == _SHR:
                result = (a & mask64) >> (b & 63)
                if sets_flags:
                    flags_result = logic_flags(result)
            elif kind == _JMP:
                if target is None:
                    raise EmulationError(f"jump at pc={pc} has no target")
                taken = True
                next_pc = target
            elif kind == _JMPI:
                taken = True
                next_pc = a & mask64
                if not 0 <= next_pc < length:
                    raise _invalid_indirect_target(pc, next_pc)
            elif kind == _MOV:
                result = a
                if sets_flags:
                    flags_result = flags_from_result(result)
            elif kind == _SUB:
                result = (a - b) & mask64
                if sets_flags:
                    flags_result = sub_flags(a, b)
            elif kind == _OR:
                result = (a | b) & mask64
                if sets_flags:
                    flags_result = logic_flags(result)
            elif kind == _NOT:
                result = (~a) & mask64
                if sets_flags:
                    flags_result = logic_flags(result)
            elif kind == _NEG:
                result = (-a) & mask64
                if sets_flags:
                    flags_result = sub_flags(0, a)
            elif kind == _MIN:
                result = min(a, b) & mask64
                if sets_flags:
                    flags_result = flags_from_result(result)
            elif kind == _MAX:
                result = max(a, b)
                if sets_flags:
                    flags_result = flags_from_result(result)
            elif kind == _DIV:
                result = (a // b) & mask64 if b else mask64
                if sets_flags:
                    flags_result = flags_from_result(result)
            elif kind == _MOD:
                result = (a % b) & mask64 if b else 0
                if sets_flags:
                    flags_result = flags_from_result(result)
            elif kind == _FMA:
                c = arch_regs[sources[2]] if arity > 2 else 0
                result = (a * b + c) & mask64
            elif kind == _FSQRT:
                result = int((a & mask64) ** 0.5) & mask64
            elif kind == _NOP:
                pass
            else:  # pragma: no cover - defensive, every opcode has a kind
                raise EmulationError(f"unimplemented opcode {uop.opcode}")

            if result is not None and dst is not None:
                arch_regs[dst] = result & mask64
            if flags_result is not None:
                arch_regs[flags_index] = flags_result & mask64

            append_pc(pc)
            append_taken(taken)
            if result is not None:
                append_result(result)
            if flags_result is not None:
                append_flags_result(flags_result)
            if addr is not None:
                append_addr(addr)
            seq += 1
            if not 0 <= next_pc < length:  # HALT_PC is negative
                self.halted = True
                pc = halt_pc
                break
            pc = next_pc
        self.pc = pc
        self.seq = seq
        signature_codes, presence_tables = self._column_tables or self._build_column_tables()
        batch_pcs = pcs[start:]
        next_pcs.extend(batch_pcs[1:])
        next_pcs.append(next_pc)
        codes = bytes(map(signature_codes.__getitem__, batch_pcs))
        for name, table in zip(OPTIONAL_FIELDS, presence_tables):
            presence[name] += codes.translate(table)
