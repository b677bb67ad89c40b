"""The bounded pipeline-event ring buffer and its simulator integration."""

import pytest

from repro.obs.tracer import (
    DEFAULT_BUFFER_CAPACITY,
    PIPE_TRACE_BUFFER_ENV_VAR,
    PIPE_TRACE_ENV_VAR,
    PipeTracer,
    maybe_tracer,
    pipe_trace_enabled,
    trace_buffer_capacity,
)
from repro.pipeline.config import named_config
from repro.pipeline.simulator import Simulator
from repro.trace.cache import shared_trace_cache
from repro.workloads.suite import workload
from tests.conftest import replay_trace


class _Op:
    def __init__(self, seq, pc=0x40, slot=0):
        self.seq = seq
        self.pc = pc
        self.slot = slot


@pytest.fixture(autouse=True)
def _clean_shared_cache():
    yield
    shared_trace_cache.clear()


class TestRingBuffer:
    def test_bounded_oldest_first_eviction(self):
        tracer = PipeTracer(capacity=4)
        for seq in range(10):
            tracer.emit(seq, "fetch", _Op(seq))
        assert len(tracer) == 4
        assert tracer.emitted == 10
        assert tracer.dropped == 6
        assert [event[2] for event in tracer.events()] == [6, 7, 8, 9]

    def test_event_tuple_shape(self):
        tracer = PipeTracer(capacity=4)
        tracer.emit(12, "dispatch", _Op(3, pc=0x44, slot=7), "iq")
        assert tracer.events() == [(12, "dispatch", 3, 0x44, 7, "iq")]

    def test_capacity_floor_is_one(self):
        assert PipeTracer(capacity=0).capacity == 1


class TestEnvironmentSwitch:
    def test_disabled_by_default(self, monkeypatch):
        monkeypatch.delenv(PIPE_TRACE_ENV_VAR, raising=False)
        assert not pipe_trace_enabled()
        assert maybe_tracer() is None

    def test_enabling_values(self, monkeypatch):
        for value in ("1", "on", "true"):
            monkeypatch.setenv(PIPE_TRACE_ENV_VAR, value)
            assert pipe_trace_enabled()
        monkeypatch.setenv(PIPE_TRACE_ENV_VAR, "0")
        assert not pipe_trace_enabled()

    def test_buffer_capacity_env(self, monkeypatch):
        monkeypatch.delenv(PIPE_TRACE_BUFFER_ENV_VAR, raising=False)
        assert trace_buffer_capacity() == DEFAULT_BUFFER_CAPACITY
        monkeypatch.setenv(PIPE_TRACE_BUFFER_ENV_VAR, "128")
        assert trace_buffer_capacity() == 128
        monkeypatch.setenv(PIPE_TRACE_BUFFER_ENV_VAR, "bogus")
        assert trace_buffer_capacity() == DEFAULT_BUFFER_CAPACITY


def _run_simulator(max_uops=1200):
    config, wl = named_config("EOLE_4_64"), workload("gcc")
    trace = replay_trace(config, wl.program, max_uops, wl.make_state())
    simulator = Simulator(config, trace, max_uops)
    simulator.run()
    return simulator


class TestSimulatorIntegration:
    def test_tracer_absent_by_default(self, monkeypatch):
        monkeypatch.delenv(PIPE_TRACE_ENV_VAR, raising=False)
        assert _run_simulator(max_uops=300).tracer is None

    def test_traced_run_covers_the_lifecycle_stages(self, monkeypatch):
        monkeypatch.setenv(PIPE_TRACE_ENV_VAR, "1")
        tracer = _run_simulator().tracer
        assert tracer is not None and tracer.emitted > 0
        stages = {event[1] for event in tracer.events()}
        assert {"fetch", "dispatch", "issue", "complete", "commit"} <= stages

    def test_ring_bound_applies_to_simulation(self, monkeypatch):
        monkeypatch.setenv(PIPE_TRACE_ENV_VAR, "1")
        monkeypatch.setenv(PIPE_TRACE_BUFFER_ENV_VAR, "64")
        tracer = _run_simulator().tracer
        assert len(tracer) == 64
        assert tracer.dropped == tracer.emitted - 64
