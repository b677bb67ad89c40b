"""Programs: ordered collections of static µ-ops plus control-flow labels.

A :class:`Program` is the unit consumed by the architectural emulator and, indirectly,
by the timing simulator.  Static program counters are simply indices into the µ-op
list; labels map names to such indices.  :meth:`Program.resolve` produces the resolved
branch-target table used by the emulator and by the branch-prediction structures.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass, field

from repro.errors import ProgramError
from repro.isa.microop import MicroOp


@dataclass
class Program:
    """An executable program of the reproduction ISA.

    Attributes
    ----------
    uops:
        The static µ-ops, in program order.  Static PC ``i`` names ``uops[i]``.
    labels:
        Mapping from label name to static PC.
    name:
        Human-readable name (used by the workload suite and reports).
    """

    uops: list[MicroOp] = field(default_factory=list)
    labels: dict[str, int] = field(default_factory=dict)
    name: str = "anonymous"

    _targets: list[int | None] = field(default_factory=list, repr=False)
    _imm_values: list[int | None] = field(default_factory=list, repr=False)
    _resolved: bool = field(default=False, repr=False)

    # ------------------------------------------------------------------ container API
    def __len__(self) -> int:
        return len(self.uops)

    def __getitem__(self, pc: int) -> MicroOp:
        return self.uops[pc]

    def __iter__(self) -> Iterator[MicroOp]:
        return iter(self.uops)

    # ------------------------------------------------------------------ resolution
    def resolve(self) -> "Program":
        """Resolve label references into static PCs and validate the program.

        Returns ``self`` to allow chaining.  Raises :class:`ProgramError` on undefined
        labels, labels out of range, or an empty program.
        """
        if not self.uops:
            raise ProgramError(f"program {self.name!r} is empty")
        for label, pc in self.labels.items():
            if not 0 <= pc <= len(self.uops):
                raise ProgramError(f"label {label!r} points outside program: {pc}")

        targets: list[int | None] = []
        imm_values: list[int | None] = []
        for index, uop in enumerate(self.uops):
            if uop.target is not None:
                if uop.target not in self.labels:
                    raise ProgramError(
                        f"µ-op {index} ({uop}) references undefined label {uop.target!r}"
                    )
                targets.append(self.labels[uop.target])
            else:
                targets.append(None)
            if uop.imm_label is not None:
                if uop.imm_label not in self.labels:
                    raise ProgramError(
                        f"µ-op {index} ({uop}) references undefined label {uop.imm_label!r}"
                    )
                imm_values.append(self.labels[uop.imm_label])
            else:
                imm_values.append(uop.imm)
        self._targets = targets
        self._imm_values = imm_values
        self._resolved = True
        return self

    @property
    def resolved(self) -> bool:
        """True once :meth:`resolve` has been called successfully."""
        return self._resolved

    def _require_resolved(self) -> None:
        if not self._resolved:
            raise ProgramError(f"program {self.name!r} has not been resolved yet")

    def target_of(self, pc: int) -> int | None:
        """Resolved branch target of the µ-op at ``pc`` (``None`` for non-branches)."""
        self._require_resolved()
        return self._targets[pc]

    def pc_of(self, label: str) -> int:
        """Static PC of ``label``."""
        if label not in self.labels:
            raise ProgramError(f"undefined label {label!r}")
        return self.labels[label]

