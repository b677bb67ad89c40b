"""Tests for the 19-benchmark synthetic suite."""

import pytest

from repro.errors import ConfigurationError
from repro.isa.trace import characterize
from repro.trace.capture import capture_budget, capture_trace
from repro.workloads.suite import (
    FAST_SUBSET,
    SUITE_ORDER,
    all_workloads,
    fast_workloads,
    workload,
)
from tests.oracles import StepEmulator, read_mem, write_mem


class TestSuiteStructure:
    def test_nineteen_workloads_like_table3(self):
        assert len(SUITE_ORDER) == 19
        assert len(all_workloads()) == 19

    def test_twelve_int_and_seven_fp_like_table3(self):
        categories = [wl.spec.category for wl in all_workloads()]
        assert categories.count("INT") == 12
        assert categories.count("FP") == 7

    def test_every_workload_maps_to_a_paper_benchmark(self):
        for wl in all_workloads():
            assert wl.paper_benchmark
            assert wl.spec.paper_ipc is not None

    def test_paper_benchmarks_are_unique(self):
        names = [wl.paper_benchmark for wl in all_workloads()]
        assert len(set(names)) == len(names)

    def test_lookup_by_name(self):
        assert workload("mcf").name == "mcf"
        with pytest.raises(ConfigurationError):
            workload("doom")

    def test_unknown_workload_error_names_the_known_suite(self):
        with pytest.raises(ConfigurationError, match="unknown workload 'doom'"):
            workload("doom")
        with pytest.raises(ConfigurationError, match="mcf"):
            workload("doom")

    def test_fast_subset_is_a_subset(self):
        assert set(FAST_SUBSET) <= set(SUITE_ORDER)
        assert [wl.name for wl in fast_workloads()] == list(FAST_SUBSET)

    def test_bench_subset_is_a_subset_of_the_suite(self):
        from repro.campaign.spec import BENCH_SUBSET

        assert set(BENCH_SUBSET) <= set(SUITE_ORDER)
        assert len(set(BENCH_SUBSET)) == len(BENCH_SUBSET)

    def test_workload_names_order(self):
        assert [wl.name for wl in all_workloads()] == list(SUITE_ORDER)

    def test_programs_are_cached(self):
        wl = workload("gcc")
        assert wl.program is wl.program

    def test_make_state_returns_fresh_states(self):
        wl = workload("mcf")
        assert wl.make_state() is not wl.make_state()

    def test_states_are_independent_across_calls(self):
        wl = workload("mcf")
        first, second = wl.make_state(), wl.make_state()
        address = first.regions[0][0]  # a word of the pointer-chase array
        original = read_mem(second, address)
        write_mem(first, address, original + 12345)
        assert read_mem(first, address) == original + 12345
        assert read_mem(second, address) == original


class TestMemoryImage:
    """The initial memory image costs memory only for the words a run touches."""

    @pytest.mark.parametrize("name", SUITE_ORDER)
    def test_fresh_state_holds_no_words(self, name):
        assert workload(name).make_state().memory == {}

    def test_capture_stores_only_the_words_it_touches(self):
        wl = workload("mcf")
        state = wl.make_state()
        trace = capture_trace(wl.program, capture_budget(2000), state)
        touched = {addr for addr in trace.replay_view().addr if addr is not None}
        assert set(state.memory) == touched


class TestSuiteBehaviouralDiversity:
    def test_all_programs_build_and_execute(self):
        for wl in all_workloads():
            trace = list(StepEmulator(wl.program, state=wl.make_state()).run(300))
            assert len(trace) == 300, wl.name

    def test_memory_bound_workloads_chase_pointers(self):
        wl = workload("mcf")
        stats = characterize(StepEmulator(wl.program, state=wl.make_state()).run(1500))
        assert stats.memory_ratio > 0.05

    def test_branchy_workloads_have_more_branches_than_streaming_ones(self):
        def branch_ratio(name):
            wl = workload(name)
            return characterize(StepEmulator(wl.program, state=wl.make_state()).run(2000)).branch_ratio

        assert branch_ratio("gobmk") > branch_ratio("lbm")

    def test_fp_workloads_execute_fp_operations(self):
        from repro.isa.opcode import OpClass

        wl = workload("wupwise")
        stats = characterize(StepEmulator(wl.program, state=wl.make_state()).run(2000))
        assert stats.class_ratio(OpClass.FP_ALU) > 0.03

    def test_footprints_differ_between_cache_and_dram_bound_workloads(self):
        assert (
            workload("mcf").spec.chase_footprint_words
            > workload("parser").spec.chase_footprint_words
        )
