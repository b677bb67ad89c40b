"""Static micro-operations (µ-ops).

A :class:`MicroOp` is one element of a :class:`~repro.isa.program.Program`.  It is a
*static* instruction: the architectural emulator turns it into dynamic instances
(:class:`~repro.isa.trace.DynInst`) every time control flow reaches it.

The µ-op model follows the paper's conventions:

* at most one destination register, plus an optional implicit write of the flags
  register (``sets_flags``);
* value-prediction eligibility is "produces a result of 64 bits or less that can be read
  by a subsequent µ-op" (Section 4.2), i.e. every µ-op with a destination register;
* loads and stores compute their address as ``base register + immediate``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import ProgramError
from repro.isa import registers as regs
from repro.isa.opcode import (
    Opcode,
    OpClass,
    is_branch,
    is_conditional_branch,
    is_load,
    is_memory,
    is_single_cycle_alu,
    is_store,
    latency_of,
    opclass_of,
)

#: Bits of :attr:`MicroOp.hot_mask` — the one-read classification bitmask used by
#: the simulator's per-committed-µ-op fast paths.
HOT_BRANCH = 1
HOT_COND_BRANCH = 2
HOT_LOAD = 4
HOT_STORE = 8
HOT_MEMORY = 16
HOT_VP_ELIGIBLE = 32
HOT_DST = 64
HOT_SETS_FLAGS = 128
HOT_NOP = 256

#: Opcodes that take a control-flow target label.
_TARGET_OPCODES = frozenset(
    {
        Opcode.BEQ,
        Opcode.BNE,
        Opcode.BLT,
        Opcode.BGE,
        Opcode.BGT,
        Opcode.BLE,
        Opcode.BCS,
        Opcode.BVS,
        Opcode.JMP,
        Opcode.CALL,
    }
)


@dataclass(frozen=True)
class MicroOp:
    """A static micro-operation.

    Parameters
    ----------
    opcode:
        The operation to perform.
    dst:
        Destination register id, or ``None`` for µ-ops that do not produce a register
        result (stores, branches, ``nop``, ``cmp``).
    srcs:
        Source register ids, in operand order.  Conditional branches implicitly source
        the flags register; loads source their base register; stores source
        ``(base, data)``.
    imm:
        Immediate operand (second ALU operand, address offset, or ``movi`` value).
    target:
        Control-flow target label for direct branches/jumps/calls.  Resolved to a static
        PC by :meth:`repro.isa.program.Program.resolve`.
    sets_flags:
        Whether this µ-op writes the architectural flags register.
    imm_label:
        If set, the immediate is the static PC of this label (used to materialise
        indirect-branch targets); resolved together with ``target``.
    """

    opcode: Opcode
    dst: int | None = None
    srcs: tuple[int, ...] = ()
    imm: int | None = None
    target: str | None = None
    sets_flags: bool = False
    imm_label: str | None = None
    comment: str = field(default="", compare=False)

    # Derived classification (``opclass``, ``latency``, ``is_branch``,
    # ``is_conditional_branch``, ``is_load``, ``is_store``, ``is_memory``,
    # ``is_single_cycle_alu``, ``reads_flags``, ``writes_flags``, ``vp_eligible``) is
    # precomputed once per *static* µ-op in ``__post_init__`` as plain instance
    # attributes — deliberately not dataclass fields nor properties, so they do not
    # participate in equality/hashing yet cost a single attribute load on the
    # simulator's per-dynamic-instance hot paths.

    def __post_init__(self) -> None:
        for reg in self.srcs:
            if not regs.is_valid_reg(reg):
                raise ProgramError(f"{self.opcode.value}: invalid source register id {reg}")
        if self.dst is not None and not regs.is_valid_reg(self.dst):
            raise ProgramError(f"{self.opcode.value}: invalid destination register id {self.dst}")
        if self.opcode in _TARGET_OPCODES and self.target is None:
            raise ProgramError(f"{self.opcode.value}: missing branch target label")
        if self.opcode not in _TARGET_OPCODES and self.target is not None:
            raise ProgramError(f"{self.opcode.value}: unexpected branch target label")
        if self.opcode is Opcode.CMP and not self.sets_flags:
            object.__setattr__(self, "sets_flags", True)
        opclass = opclass_of(self.opcode)
        if self.sets_flags and opclass not in (
            OpClass.INT_ALU,
            OpClass.INT_MUL,
            OpClass.INT_DIV,
        ):
            raise ProgramError(f"{self.opcode.value}: only integer µ-ops may set flags")
        # Precompute the per-static-µ-op classification consumed by the hot loops.
        set_attr = object.__setattr__
        set_attr(self, "opclass", opclass)
        set_attr(self, "latency", latency_of(self.opcode))
        set_attr(self, "is_branch", is_branch(self.opcode))
        set_attr(self, "is_conditional_branch", is_conditional_branch(self.opcode))
        set_attr(self, "is_load", is_load(self.opcode))
        set_attr(self, "is_store", is_store(self.opcode))
        set_attr(self, "is_memory", is_memory(self.opcode))
        set_attr(self, "is_single_cycle_alu", is_single_cycle_alu(self.opcode))
        set_attr(self, "reads_flags", self.is_conditional_branch)
        set_attr(self, "writes_flags", self.sets_flags)
        set_attr(self, "vp_eligible", self.dst is not None)
        # Every architectural register read and written, implicit flags included,
        # precomputed for the simulator's rename loop.
        sources = self.srcs + (regs.FLAGS_REG,) if self.reads_flags else self.srcs
        destinations: tuple[int, ...] = ()
        if self.dst is not None:
            destinations += (self.dst,)
        if self.writes_flags:
            destinations += (regs.FLAGS_REG,)
        set_attr(self, "src_regs", sources)
        set_attr(self, "dst_regs", destinations)
        # One-read classification bitmask for the per-committed-µ-op paths (see
        # HOT_* constants below): the commit loop reads a single attribute and
        # tests integer bits instead of up to eight attribute loads.
        mask = 0
        if self.is_branch:
            mask |= HOT_BRANCH
        if self.is_conditional_branch:
            mask |= HOT_COND_BRANCH
        if self.is_load:
            mask |= HOT_LOAD
        if self.is_store:
            mask |= HOT_STORE
        if self.is_memory:
            mask |= HOT_MEMORY
        if self.vp_eligible:
            mask |= HOT_VP_ELIGIBLE
        if self.dst is not None:
            mask |= HOT_DST
        if self.sets_flags:
            mask |= HOT_SETS_FLAGS
        if opclass is OpClass.NOP:
            mask |= HOT_NOP
        set_attr(self, "hot_mask", mask)

    def __str__(self) -> str:
        parts = [self.opcode.value]
        if self.dst is not None:
            parts.append(regs.reg_name(self.dst))
        parts.extend(regs.reg_name(s) for s in self.srcs)
        if self.imm is not None:
            parts.append(f"#{self.imm}")
        if self.imm_label is not None:
            parts.append(f"#@{self.imm_label}")
        if self.target is not None:
            parts.append(f"->{self.target}")
        if self.sets_flags:
            parts.append("[flags]")
        return " ".join(parts)
