"""Forward Probabilistic Counters (FPC) — the confidence mechanism enabling EOLE.

Perais & Seznec (HPCA 2014) show that with probabilistic confidence counters the value
predictor only supplies a prediction when it is almost certainly right, which makes
commit-time validation plus pipeline squashing a viable recovery mechanism — the
property EOLE depends on (Section 3.1 of the EOLE paper).

An FPC is a small saturating counter whose *forward* transitions only happen with a
configurable probability per level; any misprediction resets it.  Predictors keep each
counter's level as an ``int`` in their entries and ask
:meth:`FPCPolicy.allows_increment` whether a correct prediction may move it forward.
The EOLE paper uses 3-bit counters controlled by the probability vector
``{1, 1/32, 1/32, 1/32, 1/32, 1/64, 1/64}`` (Section 4.2).
"""

from __future__ import annotations

from collections.abc import Sequence
from fractions import Fraction

from repro.errors import ConfigurationError

#: Probability vector used in the paper for the VTAGE-2DStride hybrid (Section 4.2).
PAPER_FPC_VECTOR: tuple[Fraction, ...] = (
    Fraction(1),
    Fraction(1, 32),
    Fraction(1, 32),
    Fraction(1, 32),
    Fraction(1, 32),
    Fraction(1, 64),
    Fraction(1, 64),
)

#: A deterministic (non-probabilistic) 3-bit vector, useful for ablations.
DETERMINISTIC_3BIT_VECTOR: tuple[Fraction, ...] = tuple(Fraction(1) for _ in range(7))

#: Scaled-down FPC vector used by default in the pipeline configurations.
#:
#: The paper simulates 50M warm-up + 100M instructions, so a static µ-op is typically
#: observed hundreds of thousands of times and the paper's vector (~257 correct
#: observations to saturate) is easily amortised.  The reproduction runs thousands of
#: µ-ops instead (DESIGN.md §5), so the forward probabilities are scaled up by roughly
#: the same factor as the run length is scaled down (~33 correct observations to
#: saturate).  The paper's exact vector remains available as :data:`PAPER_FPC_VECTOR`
#: and is exercised by the FPC ablation benchmark.
SCALED_FPC_VECTOR: tuple[Fraction, ...] = (
    Fraction(1),
    Fraction(1, 4),
    Fraction(1, 4),
    Fraction(1, 4),
    Fraction(1, 4),
    Fraction(1, 8),
    Fraction(1, 8),
)


class DeterministicRandom:
    """A tiny, fast, deterministic pseudo-random source (xorshift64*).

    Hardware FPC implementations use a shared LFSR; a deterministic software PRNG keeps
    simulation results exactly reproducible across runs.
    """

    __slots__ = ("_state",)

    _MASK = (1 << 64) - 1

    def __init__(self, seed: int = 0x9E3779B97F4A7C15) -> None:
        self._state = (seed or 1) & self._MASK

    def next_u64(self) -> int:
        """Next 64-bit pseudo-random value."""
        x = self._state
        x ^= (x >> 12) & self._MASK
        x = (x ^ (x << 25)) & self._MASK
        x ^= x >> 27
        self._state = x & self._MASK
        return (x * 0x2545F4914F6CDD1D) & self._MASK

    def chance(self, probability: Fraction) -> bool:
        """Return True with the given probability."""
        if probability >= 1:
            return True
        if probability <= 0:
            return False
        threshold = int(probability * (1 << 32))
        return (self.next_u64() >> 32) < threshold

    def chance_half(self) -> bool:
        """Fair coin flip: bit 0 of :meth:`next_u64`, stepped inline."""
        x = self._state
        x ^= x >> 12
        x ^= (x << 25) & 0xFFFFFFFFFFFFFFFF
        x ^= x >> 27
        self._state = x
        return (x * 0x2545F4914F6CDD1D) & 1 == 1


class FPCPolicy:
    """Shared policy (probability vector + PRNG) for a family of FPC counters."""

    __slots__ = ("vector", "saturation", "_random", "_thresholds")

    def __init__(
        self,
        vector: Sequence[Fraction] = PAPER_FPC_VECTOR,
        seed: int = 0xC0FFEE,
    ) -> None:
        if not vector:
            raise ConfigurationError("FPC probability vector must not be empty")
        self.vector = tuple(Fraction(p) for p in vector)
        for probability in self.vector:
            if not 0 <= probability <= 1:
                raise ConfigurationError(f"FPC probability out of range: {probability}")
        self.saturation = len(self.vector)
        self._random = DeterministicRandom(seed)
        # Precomputed per-level 32-bit draw thresholds (the Fraction arithmetic of
        # ``DeterministicRandom.chance`` is loop-invariant): ``None`` means "always"
        # (p >= 1, no PRNG draw — exactly like ``chance``), ``-1`` means "never".
        self._thresholds: list[int | None] = []
        for probability in self.vector:
            if probability >= 1:
                self._thresholds.append(None)
            elif probability <= 0:
                self._thresholds.append(-1)
            else:
                self._thresholds.append(int(probability * (1 << 32)))

    def allows_increment(self, level: int) -> bool:
        """Draw whether a counter currently at ``level`` may move forward."""
        if level >= self.saturation:
            return False
        threshold = self._thresholds[level]
        if threshold is None:
            return True
        if threshold < 0:
            return False
        # One :meth:`DeterministicRandom.next_u64` step, inline on the shared state.
        random = self._random
        x = random._state
        x ^= x >> 12
        x ^= (x << 25) & 0xFFFFFFFFFFFFFFFF
        x ^= x >> 27
        random._state = x
        return ((x * 0x2545F4914F6CDD1D) & 0xFFFFFFFFFFFFFFFF) >> 32 < threshold

