"""Architectural (functional) emulator.

The emulator executes a resolved :class:`~repro.isa.program.Program` at the
architectural level and produces the committed µ-op stream as
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

from collections.abc import Callable, Iterator
from itertools import accumulate, chain, islice

from repro.errors import EmulationError
from repro.isa import registers as regs
from repro.isa.flags import (
    ALL_FLAGS,
    MASK64,
    SIGN_BIT,
    ZF,
    SF,
    PF,
    CF,
    OF,
    add_flags,
    flags_from_result,
    logic_flags,
    sub_flags,
)
from repro.isa.opcode import Opcode
from repro.isa.program import Program
from repro.isa.trace import OPTIONAL_FIELDS, DynInst

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
#: Written independently of :meth:`Emulator._branch_condition`, which ``step``
#: keeps as the reference.
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


#: Loop arm of every opcode.  An FP opcode whose ``step`` semantics equal an
#: integer opcode's (never setting flags) shares that opcode's arm.
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
        kind == _COND_BRANCH,
        kind == _LOAD or kind == _STORE,
        kind == _STORE,
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

    def read_mem(self, address: int) -> int:
        """Word-granular memory read (the written value, else the initial image)."""
        value = self.memory.get(address)
        if value is None:
            return self.initial_value(address)
        return value

    def write_mem(self, address: int, value: int) -> None:
        """Word-granular memory write."""
        self.memory[address] = value & MASK64

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
    """Step-wise architectural emulator producing the committed µ-op trace."""

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
        # PC of the µ-op's loop arm and the static fields step() reads, so the
        # capture loop performs a single list index + tuple unpack per µ-op.
        self._decode_table: list[tuple] | None = None
        # Per-pc signature codes and column translation tables for columnar
        # capture, built on first use (see _build_column_tables).
        self._column_tables: tuple[list[int], list[bytes]] | None = None

    # ------------------------------------------------------------------ helpers
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

    # ------------------------------------------------------------------ stepping
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
        flags_in: int | None = None
        addr: int | None = None
        store_value: int | None = None
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
            result = state.read_mem(addr)
        elif opcode in (Opcode.ST, Opcode.FST):
            addr = (a + (imm if imm is not None else 0)) & MASK64
            store_value = src_values[1] if len(src_values) > 1 else 0
            state.write_mem(addr, store_value)
        elif uop.is_conditional_branch:
            flags_in = arch_regs[regs.FLAGS_REG]
            taken = self._branch_condition(opcode, flags_in)
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

        inst = DynInst(
            self.seq,
            pc,
            uop,
            src_values,
            result,
            flags_result,
            flags_in,
            addr,
            store_value,
            taken,
            next_pc,
        )
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

    # ------------------------------------------------------------------ batched capture
    def _build_decode_table(self) -> list[tuple]:
        """Resolve, once per static µ-op, everything :meth:`run_batch` dispatches on.

        Each slot holds ``(uop, kind, sources, arity, dst, sets_flags,
        imm_or_zero, target, taken_by_flags)``: ``kind`` is the µ-op's arm of the
        batched loop (:data:`_DISPATCH_KIND`) and ``taken_by_flags`` a conditional
        branch's direction for every value of the flag bits (``None`` for any
        other µ-op).  The rest is what ``step`` re-reads through the µ-op.
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
        """Per-pc signature codes and, per column, a code → byte translation.

        A µ-op's source count and optional-field presence are static: the
        distinct ``(arity, *present)`` signatures are numbered, each pc maps to
        its signature's number, and one 256-byte ``bytes.translate`` table per
        column (arity first, then :data:`OPTIONAL_FIELDS`) turns a batch's codes
        into that column.
        """
        decode = self._decode_table
        if decode is None:
            decode = self._build_decode_table()
        signatures = [
            (arity, *_present_fields(kind, sets_flags))
            for _, kind, _, arity, _, sets_flags, *_ in decode
        ]
        distinct = sorted(set(signatures))
        number = {signature: code for code, signature in enumerate(distinct)}
        tables = (
            [number[signature] for signature in signatures],
            [
                bytes(signature[column] for signature in distinct).ljust(256, b"\0")
                for column in range(1 + len(OPTIONAL_FIELDS))
            ],
        )
        self._column_tables = tables
        return tables

    def run_batch(self, max_uops: int, columns: tuple | None = None) -> list[DynInst]:
        """Execute up to ``max_uops`` µ-ops and return their dynamic records.

        The capture fast path: one specialised loop over the batched-decode
        table with the hot machine state (pc, seq, registers, memory) in locals,
        bit-identical to ``list(self.run(max_uops))`` (``step`` remains the
        reference implementation and the unit suite compares the two).  The arms
        test the pre-resolved integer ``kind`` in the order of the measured
        dynamic mix, so no µ-op pays an enum member load.

        ``columns`` asks for the committed stream as columns instead of
        ``DynInst`` records: the ``(pcs, next_pcs, taken, src_offsets,
        src_values, presence, values)`` arrays a
        :class:`~repro.trace.encoding.CapturedTrace` is built from, ``presence``
        and ``values`` keyed by :data:`~repro.isa.trace.OPTIONAL_FIELDS`.  The
        loop's tail then appends each µ-op's pc, taken bit, source values and
        present optional values.  After the loop, the next pcs are the pcs
        shifted by one, and the source offsets and presence bits, static per pc,
        are expanded from the pcs.  The returned list is empty in that mode.
        """
        out: list[DynInst] = []
        if self.halted or max_uops <= 0:
            return out
        pc = self.pc
        length = self._length
        if not 0 <= pc < length:
            self.halted = True
            return out
        decode = self._decode_table
        if decode is None:
            decode = self._build_decode_table()
        if columns is not None:
            pcs, next_pcs, taken_column, src_offsets, src_values_column, presence, values = (
                columns
            )
            start = len(pcs)
            append_pc = pcs.append
            append_taken = taken_column.append
            # Flattened into src_values after the loop: a list append per µ-op
            # costs a sixth of an array extend by a tuple.
            operand_tuples: list[tuple[int, ...]] = []
            append_operands = operand_tuples.append
            (
                append_result,
                append_flags_result,
                append_flags_in,
                append_addr,
                append_store_value,
            ) = [values[name].append for name in OPTIONAL_FIELDS]
        state = self.state
        arch_regs = state.regs
        memory = state.memory
        initial_value = state.initial_value
        call_stack = state.call_stack
        flags_index = regs.FLAGS_REG
        flag_bits = ALL_FLAGS
        mask64 = MASK64
        seq = self.seq
        append = out.append
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
            flags_in: int | None = None
            addr: int | None = None
            store_value: int | None = None
            taken = False
            next_pc = pc + 1

            if arity == 0:
                src_values: tuple[int, ...] = ()
                a = 0
                b = imm_or_zero
            elif arity == 1:
                a = arch_regs[sources[0]]
                src_values = (a,)
                b = imm_or_zero
            elif arity == 2:
                a = arch_regs[sources[0]]
                b = arch_regs[sources[1]]
                src_values = (a, b)
            else:
                src_values = tuple(arch_regs[source] for source in sources)
                a = src_values[0]
                b = src_values[1]

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
                flags_in = arch_regs[flags_index]
                taken = taken_by_flags[flags_in & flag_bits]
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
                store_value = b if arity > 1 else 0
                memory[addr] = store_value & mask64
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
                c = src_values[2] if arity > 2 else 0
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

            if columns is None:
                append(
                    DynInst(
                        seq,
                        pc,
                        uop,
                        src_values,
                        result,
                        flags_result,
                        flags_in,
                        addr,
                        store_value,
                        taken,
                        next_pc,
                    )
                )
            else:
                append_pc(pc)
                append_taken(taken)
                append_operands(src_values)
                if result is not None:
                    append_result(result)
                if flags_result is not None:
                    append_flags_result(flags_result)
                if flags_in is not None:
                    append_flags_in(flags_in)
                if addr is not None:
                    append_addr(addr)
                if store_value is not None:
                    append_store_value(store_value)
            seq += 1
            if not 0 <= next_pc < length:  # HALT_PC is negative
                self.halted = True
                pc = halt_pc
                break
            pc = next_pc
        self.pc = pc
        self.seq = seq
        if columns is not None:
            signature_codes, (arity_table, *presence_tables) = (
                self._column_tables or self._build_column_tables()
            )
            batch_pcs = pcs[start:]
            next_pcs.extend(batch_pcs[1:])
            next_pcs.append(next_pc)
            src_values_column.extend(chain.from_iterable(operand_tuples))
            codes = bytes(map(signature_codes.__getitem__, batch_pcs))
            offsets = accumulate(codes.translate(arity_table), initial=src_offsets[-1])
            src_offsets.extend(islice(offsets, 1, None))
            for name, table in zip(OPTIONAL_FIELDS, presence_tables):
                presence[name] += codes.translate(table)
        return out


def generate_trace(
    program: Program, max_uops: int, state: ArchState | None = None
) -> Iterator[DynInst]:
    """Convenience wrapper: lazily emit the committed trace of ``program``."""
    return Emulator(program, state=state).run(max_uops)


def collect_trace(
    program: Program, max_uops: int, state: ArchState | None = None
) -> list[DynInst]:
    """Materialise the committed trace of ``program`` (at most ``max_uops`` µ-ops)."""
    return list(generate_trace(program, max_uops, state=state))
