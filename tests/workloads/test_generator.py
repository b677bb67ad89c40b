"""Tests for the random program generator."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.isa.trace import characterize
from tests.oracles import StepEmulator
from tests.random_programs import RandomProgramGenerator


class TestRandomProgramGenerator:
    def test_same_seed_same_program(self):
        a = RandomProgramGenerator(7).generate()
        b = RandomProgramGenerator(7).generate()
        assert [str(u) for u in a.uops] == [str(u) for u in b.uops]

    def test_different_seeds_differ(self):
        a = RandomProgramGenerator(1).generate()
        b = RandomProgramGenerator(2).generate()
        assert [str(u) for u in a.uops] != [str(u) for u in b.uops]

    def test_generated_programs_loop_forever(self):
        program = RandomProgramGenerator(3).generate(body_ops=30)
        assert len(list(StepEmulator(program).run(2000))) == 2000

    @settings(max_examples=15, deadline=None)
    @given(st.integers(min_value=0, max_value=10_000))
    def test_generated_programs_are_well_formed(self, seed):
        program = RandomProgramGenerator(seed).generate(body_ops=25)
        assert program.resolved
        trace = list(StepEmulator(program).run(400))
        stats = characterize(trace)
        assert stats.total == 400
        assert stats.branches >= 1  # at least the loop branch executes

    def test_memory_probability_controls_memory_ops(self):
        heavy = RandomProgramGenerator(5).generate(memory_probability=0.6, body_ops=60)
        light = RandomProgramGenerator(5).generate(memory_probability=0.0, body_ops=60)
        heavy_stats = characterize(StepEmulator(heavy).run(1500))
        light_stats = characterize(StepEmulator(light).run(1500))
        assert heavy_stats.memory_ratio > light_stats.memory_ratio
