"""One trace source: the step-wise reference trace is really the step-wise one.

With the trace oracle of ``tests/oracles.py`` in place, the trace cache hands out
the step-wise reference (``reference_trace``): ``StepEmulator.step`` records,
never the batched capture that reference is the oracle for.  The test makes
``Emulator.run_batch`` raise once its expected stream is captured, so a reference
path that slipped onto the batched loop fails here.
"""

import pytest

from repro.isa.emulator import Emulator
from repro.pipeline.config import named_config
from repro.trace.cache import shared_trace_cache
from repro.trace.capture import capture_trace, required_length
from repro.trace.store import TRACE_STORE_ENV_VAR
from repro.workloads.suite import workload
from tests.oracles import use_oracles

MAX_UOPS = 1500


def _no_run_batch(self, *args, **kwargs):
    raise AssertionError("the step-wise reference ran the batched capture")


@pytest.fixture(autouse=True)
def _clean_shared_cache():
    shared_trace_cache.clear()
    yield
    shared_trace_cache.clear()


def test_the_disabled_cache_hands_out_the_step_wise_reference(monkeypatch, tmp_path):
    config = named_config("EOLE_4_64")
    wl = workload("mcf")
    store_dir = tmp_path / "traces"
    monkeypatch.setenv(TRACE_STORE_ENV_VAR, str(store_dir))
    use_oracles(monkeypatch, trace=True)
    replay_length = required_length(MAX_UOPS, config)
    # A blob holds every column, so equal blobs are equal streams.
    expected_replay = capture_trace(wl.program, replay_length, wl.make_state()).to_bytes()
    expected_study = capture_trace(wl.program, MAX_UOPS, wl.make_state()).to_bytes()
    monkeypatch.setattr(Emulator, "run_batch", _no_run_batch)

    def counters():
        cache = shared_trace_cache
        return cache.captures, cache.hits, cache.store_hits, len(cache)

    before = counters()
    replay = shared_trace_cache.trace_for(wl, MAX_UOPS, config)
    study = shared_trace_cache.trace_for_length(wl, MAX_UOPS)
    assert replay.to_bytes() == expected_replay
    assert study.to_bytes() == expected_study
    # Nothing is cached or stored: a second request emulates afresh.
    assert shared_trace_cache.trace_for(wl, MAX_UOPS, config) is not replay
    assert counters() == before
    assert not store_dir.exists() or not any(store_dir.iterdir())
