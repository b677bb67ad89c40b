"""Dynamic instruction records and trace helpers.

The architectural emulator (:mod:`repro.isa.emulator`) turns a static
:class:`~repro.isa.program.Program` into a stream of :class:`DynInst` records — the
committed, correct-path µ-op trace.  The timing simulator consumes this stream: it is a
trace-driven model (wrong-path instructions are not simulated; their cost is accounted
through front-end refill penalties, see DESIGN.md §5).
"""

from __future__ import annotations

import gc
from collections.abc import Iterable, Iterator
from contextlib import contextmanager
from dataclasses import dataclass, field

from repro.isa.microop import MicroOp
from repro.isa.opcode import OpClass


#: The ``DynInst`` fields that are ``None`` unless the µ-op's kind produces them,
#: in the column order of a serialised trace (:mod:`repro.trace.encoding`).
OPTIONAL_FIELDS = ("result", "flags_result", "addr")


class DynInst:
    """One dynamic (committed) instance of a static µ-op.

    Attributes
    ----------
    seq:
        Global sequence number in commit order, starting at 0.
    pc:
        Static PC (index into the program) of the µ-op.
    uop:
        The static µ-op.
    result:
        Architectural result value (``None`` for µ-ops without a destination register).
    flags_result:
        Value written to the flags register (``None`` if the µ-op does not set flags).
    addr:
        Effective memory address for loads/stores (``None`` otherwise).
    taken:
        Branch outcome (``False`` for non-branches).
    next_pc:
        Static PC of the next dynamic instruction in the trace.
    """

    __slots__ = (
        "seq",
        "pc",
        "uop",
        "result",
        "flags_result",
        "addr",
        "taken",
        "next_pc",
    )

    def __init__(
        self,
        seq: int,
        pc: int,
        uop: MicroOp,
        result: int | None = None,
        flags_result: int | None = None,
        addr: int | None = None,
        taken: bool = False,
        next_pc: int = 0,
    ) -> None:
        self.seq = seq
        self.pc = pc
        self.uop = uop
        self.result = result
        self.flags_result = flags_result
        self.addr = addr
        self.taken = taken
        self.next_pc = next_pc

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"DynInst(seq={self.seq}, pc={self.pc}, uop={self.uop}, result={self.result}, "
            f"taken={self.taken}, next_pc={self.next_pc})"
        )


@contextmanager
def gc_paused() -> Iterator[None]:
    """Pause the cyclic garbage collector for a block of acyclic bulk allocation.

    Decoding a trace allocates one ``DynInst`` per µ-op, and the simulator's hot
    paths allocate records and predictions; none of them form reference cycles, so
    the generational collector's periodic heap walks are pure overhead there.  The
    caller's prior state is restored on exit, normal or not: a collector the
    caller had disabled stays disabled.
    """
    was_enabled = gc.isenabled()
    if was_enabled:
        gc.disable()
    try:
        yield
    finally:
        if was_enabled:
            gc.enable()


@dataclass
class TraceStatistics:
    """Aggregate statistics over a dynamic trace, used to characterise workloads."""

    total: int = 0
    per_class: dict[OpClass, int] = field(default_factory=dict)
    branches: int = 0
    taken_branches: int = 0
    loads: int = 0
    stores: int = 0
    vp_eligible: int = 0
    distinct_pcs: int = 0
    distinct_load_addresses: int = 0

    @property
    def branch_ratio(self) -> float:
        """Fraction of dynamic µ-ops that are control-flow."""
        return self.branches / self.total if self.total else 0.0

    @property
    def memory_ratio(self) -> float:
        """Fraction of dynamic µ-ops that access memory."""
        return (self.loads + self.stores) / self.total if self.total else 0.0

    @property
    def vp_eligible_ratio(self) -> float:
        """Fraction of dynamic µ-ops eligible for value prediction."""
        return self.vp_eligible / self.total if self.total else 0.0

    def class_ratio(self, opclass: OpClass) -> float:
        """Fraction of dynamic µ-ops belonging to ``opclass``."""
        return self.per_class.get(opclass, 0) / self.total if self.total else 0.0


def characterize(trace: Iterable[DynInst]) -> TraceStatistics:
    """Compute :class:`TraceStatistics` over ``trace``."""
    stats = TraceStatistics()
    pcs: set[int] = set()
    load_addrs: set[int] = set()
    for inst in trace:
        stats.total += 1
        opclass = inst.uop.opclass
        stats.per_class[opclass] = stats.per_class.get(opclass, 0) + 1
        pcs.add(inst.pc)
        if inst.uop.is_branch:
            stats.branches += 1
            if inst.taken:
                stats.taken_branches += 1
        if inst.uop.is_load:
            stats.loads += 1
            if inst.addr is not None:
                load_addrs.add(inst.addr)
        if inst.uop.is_store:
            stats.stores += 1
        if inst.uop.vp_eligible:
            stats.vp_eligible += 1
    stats.distinct_pcs = len(pcs)
    stats.distinct_load_addresses = len(load_addrs)
    return stats

