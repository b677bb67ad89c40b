"""Tests for Forward Probabilistic Counter policies and the deterministic PRNG."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigurationError
from repro.vp.confidence import (
    DETERMINISTIC_3BIT_VECTOR,
    DeterministicRandom,
    FPCPolicy,
    PAPER_FPC_VECTOR,
    SCALED_FPC_VECTOR,
)


class TestVectors:
    def test_paper_vector_matches_section_4_2(self):
        assert PAPER_FPC_VECTOR == (
            Fraction(1),
            Fraction(1, 32),
            Fraction(1, 32),
            Fraction(1, 32),
            Fraction(1, 32),
            Fraction(1, 64),
            Fraction(1, 64),
        )

    def test_vectors_describe_3bit_counters(self):
        assert len(PAPER_FPC_VECTOR) == 7
        assert len(DETERMINISTIC_3BIT_VECTOR) == 7
        assert len(SCALED_FPC_VECTOR) == 7

    def test_scaled_vector_is_easier_to_saturate_than_paper(self):
        expected_paper = sum(1 / p for p in PAPER_FPC_VECTOR)
        expected_scaled = sum(1 / p for p in SCALED_FPC_VECTOR)
        assert expected_scaled < expected_paper


class TestPolicy:
    def test_empty_vector_rejected(self):
        with pytest.raises(ConfigurationError):
            FPCPolicy(vector=())

    def test_out_of_range_probability_rejected(self):
        with pytest.raises(ConfigurationError):
            FPCPolicy(vector=(Fraction(2),))

    def test_saturation_equals_vector_length(self):
        assert FPCPolicy(PAPER_FPC_VECTOR).saturation == 7

    def test_probability_one_always_allows(self):
        policy = FPCPolicy(DETERMINISTIC_3BIT_VECTOR)
        assert all(policy.allows_increment(level) for level in range(7))

    def test_saturated_level_never_advances(self):
        policy = FPCPolicy(DETERMINISTIC_3BIT_VECTOR)
        assert not policy.allows_increment(7)


def _draws_to_saturate(policy: FPCPolicy, limit: int = 10_000) -> int:
    """Correct outcomes a counter at level 0 needs to saturate, as predictors step it."""
    level = steps = 0
    while level < policy.saturation and steps < limit:
        if policy.allows_increment(level):
            level += 1
        steps += 1
    return steps


class TestCounter:
    """Predictors keep each FPC's level as an ``int`` and step it through the policy."""

    def test_deterministic_counter_saturates_in_seven_steps(self):
        assert _draws_to_saturate(FPCPolicy(DETERMINISTIC_3BIT_VECTOR)) == 7

    def test_probabilistic_counter_needs_many_correct_outcomes(self):
        steps = _draws_to_saturate(FPCPolicy(PAPER_FPC_VECTOR, seed=0x1234))
        # Expected number of correct outcomes is 1 + 4*32 + 2*64 = 257; allow slack.
        assert 50 < steps < 10_000


class TestDeterministicRandom:
    def test_sequences_are_reproducible(self):
        a = DeterministicRandom(42)
        b = DeterministicRandom(42)
        assert [a.next_u64() for _ in range(10)] == [b.next_u64() for _ in range(10)]

    def test_different_seeds_differ(self):
        assert DeterministicRandom(1).next_u64() != DeterministicRandom(2).next_u64()

    def test_zero_seed_is_valid(self):
        assert DeterministicRandom(0).next_u64() != 0

    @settings(max_examples=20, deadline=None)
    @given(st.integers(min_value=1, max_value=63))
    def test_chance_frequency_tracks_probability(self, denominator):
        rng = DeterministicRandom(99)
        probability = Fraction(1, denominator)
        trials = 4000
        hits = sum(rng.chance(probability) for _ in range(trials))
        expected = trials / denominator
        assert abs(hits - expected) < max(12.0, 5 * (expected**0.5))

    def test_chance_half_is_roughly_fair(self):
        rng = DeterministicRandom(7)
        hits = sum(rng.chance_half() for _ in range(2000))
        assert 800 < hits < 1200

    def test_chance_extremes(self):
        rng = DeterministicRandom(1)
        assert rng.chance(Fraction(1))
        assert not rng.chance(Fraction(0))


class TestInlineDrawsMatchNextU64:
    """The policy and coin flip step the xorshift64* state inline; ``chance`` and
    ``next_u64`` are the references.  Results and the final state must agree draw for draw, so a level that
    must not draw (saturated, p = 1 or p = 0) cannot silently consume one."""

    DRAWS = 10_000

    @pytest.mark.parametrize(
        "vector",
        [
            PAPER_FPC_VECTOR,
            SCALED_FPC_VECTOR,
            (Fraction(1), Fraction(1, 3), Fraction(0), Fraction(1, 2), Fraction(1), Fraction(0)),
        ],
        ids=["paper", "scaled", "with-p1-and-p0"],
    )
    def test_allows_increment_matches_reference(self, vector):
        policy = FPCPolicy(vector, seed=0x5EED)
        reference = DeterministicRandom(0x5EED)

        def expected(level):
            return level < len(vector) and reference.chance(vector[level])

        for level in range(len(vector) + 1):  # the last level is saturated
            got = [policy.allows_increment(level) for _ in range(self.DRAWS)]
            assert got == [expected(level) for _ in range(self.DRAWS)], level
            assert policy._random._state == reference._state, level
        assert reference._state != DeterministicRandom(0x5EED)._state

    def test_chance_half_matches_reference(self):
        rng = DeterministicRandom(0x5EED)
        reference = DeterministicRandom(0x5EED)
        got = [rng.chance_half() for _ in range(self.DRAWS)]
        assert got == [bool(reference.next_u64() & 1) for _ in range(self.DRAWS)]
        assert rng._state == reference._state
