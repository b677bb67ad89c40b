"""Shared fixtures and helpers for the test suite.

The pipeline tests deliberately run *small* programs (a few hundred to a few thousand
µ-ops) on scaled-down predictor tables so that the whole suite stays fast while still
exercising every subsystem.
"""

from __future__ import annotations

import pytest

from repro.isa.builder import ProgramBuilder


@pytest.fixture(autouse=True)
def _hermetic_stores(monkeypatch):
    """Isolate unit tests from ambient persistent stores.

    CI (and developers) may export ``REPRO_RESULT_STORE`` / ``REPRO_TRACE_STORE`` so
    the *benchmark* suite reuses results across sessions; the unit tests under
    ``tests/`` must not read or pollute those stores (several tests assert on
    simulate/capture counts or intentionally bypass caching).  Tests that exercise
    the stores set the variables themselves via ``monkeypatch.setenv``.
    """
    monkeypatch.delenv("REPRO_RESULT_STORE", raising=False)
    monkeypatch.delenv("REPRO_TRACE_STORE", raising=False)
    # Fault injection must never leak between tests: the injector is cached per
    # spec string, so two tests arming the *same* spec would share hit counters
    # unless the cache is dropped, which ``active_faults`` does with the variable unset.
    monkeypatch.delenv("REPRO_FAULTS", raising=False)
    from repro.faults.plan import active_faults

    active_faults()
from repro.isa.emulator import ArchState
from repro.isa.program import Program
from repro.pipeline.config import PipelineConfig
from repro.pipeline.simulator import Simulator
from repro.pipeline.stats import SimulationResult
from repro.trace.capture import required_length
from repro.trace.encoding import CapturedTrace
from tests.oracles import reference_trace


def build_counted_loop(
    body_builder=None, name: str = "loop", iterations: int = 1 << 40
) -> Program:
    """A simple counted loop; ``body_builder(b, i)`` emits the per-iteration body."""
    b = ProgramBuilder(name)
    b.movi("r1", 0)
    b.movi("r2", 0)
    b.label("loop")
    if body_builder is not None:
        body_builder(b)
    b.addi("r1", "r1", 1)
    b.cmp("r1", imm=iterations)
    b.bne("loop")
    return b.build()


def predictable_chain_loop(chain_ops: int = 6, fillers: int = 6) -> Program:
    """Loop with one stride-predictable serial chain plus independent filler work."""

    def body(b: ProgramBuilder) -> None:
        for _ in range(chain_ops):
            b.addi("r10", "r10", 3)
        for index in range(fillers):
            b.movi(f"r{16 + index % 8}", index)

    return build_counted_loop(body, name="predictable_chain")


def replay_trace(
    config: PipelineConfig, program: Program, max_uops: int, state: ArchState | None = None
) -> CapturedTrace:
    """The step-wise reference trace of ``program`` from ``state`` (all-zero if
    ``None``), exactly as long as a ``max_uops`` run of ``config`` reads."""
    return reference_trace(program, required_length(max_uops, config), state)


def run_simulation(
    config: PipelineConfig,
    program: Program,
    max_uops: int = 2000,
    warmup_uops: int = 0,
    state: ArchState | None = None,
) -> SimulationResult:
    """Run a small simulation of ``program`` from ``state`` and return its result."""
    trace = replay_trace(config, program, max_uops, state)
    return Simulator(config, trace, max_uops, warmup_uops).run()


def small_config(**overrides) -> PipelineConfig:
    """A pipeline configuration with small predictor tables (fast warm-up) for tests."""
    defaults = dict(name="test_config", predictor_name="hybrid-small")
    defaults.update(overrides)
    return PipelineConfig(**defaults)


@pytest.fixture
def simple_loop() -> Program:
    """A tiny predictable loop program."""
    return predictable_chain_loop()


@pytest.fixture
def fresh_state() -> ArchState:
    """An empty architectural state."""
    return ArchState()
