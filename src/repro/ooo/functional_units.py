"""Functional-unit pool of the out-of-order engine.

Table 1's baseline provides 6 ALUs (1 cycle), 4 Mul/Div units (3/25 cycles, divide not
pipelined), 6 FP units (3 cycles), 4 FPMul/Div units (5/10 cycles, divide not
pipelined) and 4 load/store ports.  The pool enforces per-cycle structural limits and
models the busy time of unpipelined units.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import ConfigurationError
from repro.isa.opcode import OpClass, UNPIPELINED_CLASSES


@dataclass
class FunctionalUnitConfig:
    """Number of functional units of each kind (defaults from Table 1)."""

    alu: int = 6
    mul_div: int = 4
    fp: int = 6
    fp_mul_div: int = 4
    mem_ports: int = 4


#: Which pool an operation class draws from.
_CLASS_GROUP: dict[OpClass, str] = {
    OpClass.INT_ALU: "alu",
    OpClass.BR_COND: "alu",
    OpClass.BR_DIRECT: "alu",
    OpClass.BR_INDIRECT: "alu",
    OpClass.CALL: "alu",
    OpClass.RET: "alu",
    OpClass.NOP: "alu",
    OpClass.INT_MUL: "mul_div",
    OpClass.INT_DIV: "mul_div",
    OpClass.FP_ALU: "fp",
    OpClass.FP_MUL: "fp_mul_div",
    OpClass.FP_DIV: "fp_mul_div",
    OpClass.LOAD: "mem",
    OpClass.STORE: "mem",
}


@dataclass
class _GroupState:
    """Per-cycle usage and unpipelined busy tracking of one unit group."""

    units: int
    used_cycle: int = -1
    used_count: int = 0
    busy_until: list[int] = field(default_factory=list)


class FunctionalUnitPool:
    """Per-cycle structural hazard model for the execution units."""

    def __init__(self, config: FunctionalUnitConfig | None = None) -> None:
        self.config = config if config is not None else FunctionalUnitConfig()
        for name in ("alu", "mul_div", "fp", "fp_mul_div", "mem_ports"):
            if getattr(self.config, name) <= 0:
                raise ConfigurationError(f"functional unit count {name} must be positive")
        self._groups: dict[str, _GroupState] = {
            "alu": _GroupState(self.config.alu),
            "mul_div": _GroupState(self.config.mul_div, busy_until=[0] * self.config.mul_div),
            "fp": _GroupState(self.config.fp),
            "fp_mul_div": _GroupState(
                self.config.fp_mul_div, busy_until=[0] * self.config.fp_mul_div
            ),
            "mem": _GroupState(self.config.mem_ports),
        }
        # One-lookup issue path: opclass -> (group state, models unpipelined busy).
        self._issue_info: dict[OpClass, tuple[_GroupState, bool]] = {
            opclass: (
                self._groups[name],
                opclass in UNPIPELINED_CLASSES and bool(self._groups[name].busy_until),
            )
            for opclass, name in _CLASS_GROUP.items()
        }

    def try_issue(self, opclass: OpClass, cycle: int, latency: int) -> bool:
        """Try to claim a unit of the right kind at ``cycle``; returns success."""
        group, unpipelined = self._issue_info[opclass]
        if group.used_cycle != cycle:
            group.used_cycle = cycle
            group.used_count = 0
        if group.used_count >= group.units:
            return False
        if unpipelined:
            # Find an unpipelined unit that is free; occupy it for the full latency.
            for index, busy_until in enumerate(group.busy_until):
                if busy_until <= cycle:
                    group.busy_until[index] = cycle + latency
                    break
            else:
                return False
        group.used_count += 1
        return True
