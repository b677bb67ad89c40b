"""Random program generator for the property-based tests.

The generator produces syntactically valid, terminating programs with a random mix of
ALU, memory and control-flow µ-ops.  It is intentionally independent from the curated
suite in :mod:`repro.workloads.suite`: its purpose is to exercise the emulator and the
pipeline simulator on inputs nobody hand-tuned, so invariants (in-order commit, IPC
bounds, no deadlock, architectural equivalence of configurations) can be checked over a
broad input space.
"""

from __future__ import annotations

import random

from repro.isa.builder import ProgramBuilder
from repro.isa.program import Program

#: Memory region used by generated loads/stores (kept small so runs stay cache-friendly).
GENERATOR_MEMORY_BASE = 0x0800_0000
GENERATOR_MEMORY_WORDS = 1 << 10


class RandomProgramGenerator:
    """Generates random loop kernels from a seed."""

    def __init__(self, seed: int = 0) -> None:
        self.seed = seed

    def generate(
        self,
        body_ops: int = 40,
        num_accumulators: int = 6,
        branch_probability: float = 0.15,
        memory_probability: float = 0.2,
        fp_probability: float = 0.1,
        muldiv_probability: float = 0.05,
    ) -> Program:
        """Produce a random, infinite-loop kernel program."""
        rng = random.Random(self.seed)
        builder = ProgramBuilder(f"random_{self.seed}")
        accumulators = [16 + index for index in range(num_accumulators)]
        temporaries = [8 + index for index in range(8)]
        fp_regs = [32 + index for index in range(6)]

        builder.movi(1, 0)  # loop counter
        builder.movi(2, 0)  # memory offset
        for reg in accumulators:
            builder.movi(reg, rng.randrange(1, 1000))
        for index, reg in enumerate(fp_regs):
            builder.movi(temporaries[0], index + 2)
            builder.fcvt(reg, temporaries[0])

        builder.label("loop")
        skip_counter = 0
        for _index in range(body_ops):
            roll = rng.random()
            dst = rng.choice(temporaries)
            a = rng.choice(accumulators)
            b = rng.choice(accumulators)
            if roll < branch_probability:
                skip_counter += 1
                label = f"skip_{skip_counter}"
                builder.and_(dst, rng.choice(accumulators), imm=rng.choice((1, 3, 7)))
                builder.cmp(dst, imm=0)
                rng.choice((builder.beq, builder.bne))(label)
                builder.addi(rng.choice(accumulators), rng.choice(accumulators), 1)
                builder.label(label)
            elif roll < branch_probability + memory_probability:
                offset_mask = GENERATOR_MEMORY_WORDS * 8 - 1
                builder.addi(2, 2, 8)
                builder.and_(2, 2, imm=offset_mask)
                if rng.random() < 0.5:
                    builder.ld(dst, 2, GENERATOR_MEMORY_BASE)
                else:
                    builder.st(2, rng.choice(accumulators), GENERATOR_MEMORY_BASE)
            elif roll < branch_probability + memory_probability + fp_probability:
                builder.fadd(rng.choice(fp_regs), rng.choice(fp_regs), rng.choice(fp_regs))
            elif roll < branch_probability + memory_probability + fp_probability + muldiv_probability:
                if rng.random() < 0.5:
                    builder.mul(dst, a, b)
                else:
                    builder.div(dst, a, b)
            else:
                operation = rng.choice(
                    (builder.add, builder.sub, builder.and_, builder.or_, builder.xor)
                )
                if rng.random() < 0.4:
                    operation(rng.choice(accumulators), rng.choice(accumulators), b)
                else:
                    operation(dst, a, b)
        builder.addi(1, 1, 1)
        builder.cmp(1, imm=1 << 40)
        builder.bne("loop")
        return builder.build()
