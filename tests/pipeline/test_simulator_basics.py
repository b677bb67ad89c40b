"""Basic timing-simulator behaviour: termination, determinism, IPC bounds."""

import pytest

from repro.errors import SimulationError
from repro.isa.builder import ProgramBuilder
from repro.pipeline.config import named_config
from repro.pipeline.simulator import Simulator
from repro.trace.capture import capture_trace, required_length
from repro.workloads.suite import workload
from tests.conftest import (
    build_counted_loop,
    predictable_chain_loop,
    replay_trace,
    run_simulation,
    small_config,
)


def _serial_chain_loop(chain_ops: int = 8):
    def body(b: ProgramBuilder) -> None:
        for _ in range(chain_ops):
            b.addi("r10", "r10", 1)

    return build_counted_loop(body, name="serial")


def _independent_ops_loop(ops: int = 12):
    def body(b: ProgramBuilder) -> None:
        for index in range(ops):
            b.movi(f"r{8 + index % 16}", index)

    return build_counted_loop(body, name="independent")


class TestTermination:
    def test_commits_exactly_requested_uops(self, simple_loop):
        result = run_simulation(small_config(), simple_loop, max_uops=500)
        assert result.stats.committed_uops == 500

    def test_short_program_drains_completely(self):
        b = ProgramBuilder("short")
        for index in range(10):
            b.movi(f"r{index + 1}", index)
        result = run_simulation(small_config(), b.build(), max_uops=1000)
        assert result.stats.committed_uops == 10

    def test_warmup_window_excluded_from_stats(self, simple_loop):
        full = run_simulation(small_config(), simple_loop, max_uops=1000, warmup_uops=0)
        windowed = run_simulation(small_config(), simple_loop, max_uops=1000, warmup_uops=400)
        assert windowed.stats.committed_uops == 600
        assert windowed.full_stats.committed_uops == 1000
        assert windowed.stats.cycles < full.stats.cycles

    def test_warmup_must_be_smaller_than_run(self, simple_loop):
        config = small_config()
        with pytest.raises(SimulationError):
            Simulator(config, replay_trace(config, simple_loop, 100), 100, warmup_uops=100)

    def test_a_trace_shorter_than_the_fetch_window_is_rejected(self):
        config, wl = named_config("Baseline_6_64"), workload("gcc")
        needed = required_length(3000, config)
        short = capture_trace(wl.program, needed - 1, wl.make_state())
        with pytest.raises(SimulationError, match=f"needs {needed}"):
            Simulator(config, short, max_uops=3000, warmup_uops=1000)
        exact = capture_trace(wl.program, needed, wl.make_state())
        assert Simulator(config, exact, max_uops=3000, warmup_uops=1000).max_uops == 3000


class TestDeterminism:
    def test_identical_runs_produce_identical_cycle_counts(self, simple_loop):
        first = run_simulation(small_config(), simple_loop, max_uops=800)
        second = run_simulation(small_config(), simple_loop, max_uops=800)
        assert first.stats.cycles == second.stats.cycles
        assert first.stats.early_executed == second.stats.early_executed


class TestIPCBounds:
    def test_ipc_never_exceeds_commit_width(self, simple_loop):
        result = run_simulation(small_config(), simple_loop, max_uops=1000)
        assert 0 < result.ipc <= small_config().commit_width

    def test_serial_chain_is_dependence_bound(self):
        result = run_simulation(small_config(), _serial_chain_loop(8), max_uops=1200)
        # 8 chained adds + 3 loop-control µ-ops per iteration over ~8 serial cycles.
        assert 1.0 < result.ipc < 2.0

    def test_independent_ops_are_issue_width_bound(self):
        narrow = run_simulation(small_config(issue_width=2), _independent_ops_loop(), max_uops=1500)
        wide = run_simulation(small_config(issue_width=6), _independent_ops_loop(), max_uops=1500)
        assert narrow.ipc <= 2.05
        assert wide.ipc > narrow.ipc * 1.5

    def test_smaller_iq_never_helps(self):
        big = run_simulation(small_config(iq_size=64), _independent_ops_loop(), max_uops=1500)
        tiny = run_simulation(small_config(iq_size=4), _independent_ops_loop(), max_uops=1500)
        assert tiny.ipc <= big.ipc + 1e-9

    def test_smaller_rob_never_helps(self):
        big = run_simulation(small_config(rob_size=192), _serial_chain_loop(), max_uops=1200)
        tiny = run_simulation(small_config(rob_size=16), _serial_chain_loop(), max_uops=1200)
        assert tiny.ipc <= big.ipc + 1e-9


class TestAccounting:
    def test_committed_class_counts_are_consistent(self, simple_loop):
        result = run_simulation(small_config(), simple_loop, max_uops=900)
        stats = result.stats
        assert stats.committed_branches > 0
        assert stats.committed_cond_branches <= stats.committed_branches
        assert stats.committed_vp_eligible <= stats.committed_uops
        assert stats.fetched_uops >= stats.committed_uops

    def test_architectural_event_counts_identical_across_configs(self, simple_loop):
        """The simulator is trace-driven: committed instruction mix is config-invariant."""
        narrow = run_simulation(small_config(issue_width=1), simple_loop, max_uops=800)
        wide = run_simulation(small_config(issue_width=8), simple_loop, max_uops=800)
        assert narrow.stats.committed_branches == wide.stats.committed_branches
        assert narrow.stats.committed_loads == wide.stats.committed_loads
        assert narrow.stats.committed_stores == wide.stats.committed_stores

    def test_result_carries_structure_metadata(self, simple_loop):
        result = run_simulation(small_config(), simple_loop, max_uops=500)
        assert result.extra["rob_peak_occupancy"] > 0
        assert result.config_name == "test_config"
        assert result.workload_name == "predictable_chain"

    def test_no_vp_machine_reports_no_predictions(self, simple_loop):
        result = run_simulation(small_config(value_prediction=False), simple_loop, max_uops=500)
        assert result.stats.predictions_used == 0
        assert result.predictor_coverage == 0.0
