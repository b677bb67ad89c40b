"""Trace cache and on-disk trace store behaviour."""

import pytest

from repro.pipeline.config import baseline_6_64
from repro.trace.cache import TraceCache
from repro.trace.capture import capture_workload_trace
from repro.trace.store import TRACE_STORE_ENV_VAR, TraceStore, default_trace_store
from repro.workloads.spec import WorkloadSpec
from repro.workloads.suite import Workload, workload


class _NoStore:
    """Sentinel disabling the disk-store fallback regardless of the environment."""

    def load(self, program):
        return None

    def save(self, trace):
        return None


_NO_STORE = _NoStore()


class TestTraceCache:
    def test_capture_happens_once_per_workload(self):
        cache = TraceCache(store=_NO_STORE)
        config = baseline_6_64()
        first = cache.trace_for(workload("gcc"), 1000, config)
        second = cache.trace_for(workload("gcc"), 1000, config)
        assert first is second
        assert cache.captures == 1
        assert cache.hits == 1

    def test_release_drops_only_the_named_workload(self):
        cache = TraceCache(store=_NO_STORE)
        config = baseline_6_64()
        cache.trace_for(workload("gcc"), 500, config)
        kept = cache.trace_for(workload("mcf"), 500, config)
        cache.release("gcc")
        assert len(cache) == 1
        assert cache.trace_for(workload("mcf"), 500, config) is kept
        cache.trace_for(workload("gcc"), 500, config)
        assert cache.captures == 3 and cache.hits == 1

    def test_longer_requirement_triggers_recapture(self):
        cache = TraceCache(store=_NO_STORE)
        config = baseline_6_64()
        short = cache.trace_for(workload("gcc"), 500, config)
        longer = cache.trace_for(workload("gcc"), 20_000, config)
        assert longer.length > short.length
        assert cache.captures == 2
        # The longer capture replaces the entry and serves smaller requests too.
        assert cache.trace_for(workload("gcc"), 500, config) is longer

    def test_trace_for_many_captures_once_for_the_deepest_plane(self):
        """A mixed batch costs ONE capture sized for its deepest fetch-ahead
        window — the serial path would capture for the shallow config first and
        re-capture when the deeper one arrived."""
        from repro.pipeline.config import baseline_8_64
        from repro.trace.capture import required_length

        cache = TraceCache(store=_NO_STORE)
        shallow, deep = baseline_6_64(), baseline_8_64()
        requests = [(1000, shallow), (9000, deep)]
        trace = cache.trace_for_many(workload("gcc"), requests)
        assert cache.captures == 1
        assert trace.covers(max(required_length(m, c) for m, c in requests))
        # Per-plane trace_for calls now all hit the shared capture.
        assert cache.trace_for(workload("gcc"), 1000, shallow) is trace
        assert cache.trace_for(workload("gcc"), 9000, deep) is trace
        assert cache.captures == 1

    def test_trace_for_many_rejects_an_empty_batch(self):
        cache = TraceCache(store=_NO_STORE)
        with pytest.raises(ValueError):
            cache.trace_for_many(workload("gcc"), [])

    def test_impostor_workload_does_not_reuse_registry_trace(self):
        cache = TraceCache(store=_NO_STORE)
        config = baseline_6_64()
        registry = cache.trace_for(workload("gcc"), 500, config)
        impostor = Workload(WorkloadSpec(name="gcc", paper_benchmark="403.gcc"))
        other = cache.trace_for(impostor, 500, config)
        assert other is not registry
        assert other.program is impostor.program


class TestTraceStore:
    def test_save_and_load_roundtrip(self, tmp_path):
        store = TraceStore(tmp_path / "traces")
        wl = workload("mcf")
        trace = capture_workload_trace(wl, 800)
        store.save(trace)
        assert len(store) == 1
        loaded = store.load(wl.program)
        assert loaded is not None
        assert loaded.length == trace.length
        assert [d.result for d in loaded.replay()] == [d.result for d in trace.replay()]

    def test_missing_and_corrupt_files_return_none(self, tmp_path):
        store = TraceStore(tmp_path / "traces")
        wl = workload("mcf")
        assert store.load(wl.program) is None
        store.save(capture_workload_trace(wl, 100))
        path = next((tmp_path / "traces").glob("*.trace"))
        path.write_bytes(b"garbage, no header")
        assert store.load(wl.program) is None

    def test_stale_trace_for_other_program_is_ignored(self, tmp_path):
        store = TraceStore(tmp_path / "traces")
        store.save(capture_workload_trace(workload("gcc"), 100))
        assert store.load(workload("mcf").program) is None

    def test_cache_pulls_from_store_instead_of_recapturing(self, tmp_path):
        store = TraceStore(tmp_path / "traces")
        config = baseline_6_64()
        warm = TraceCache(store=store)
        warm.trace_for(workload("gcc"), 700, config)
        assert warm.captures == 1
        cold = TraceCache(store=store)
        cold.trace_for(workload("gcc"), 700, config)
        assert cold.captures == 0
        assert cold.store_hits == 1

    def test_acquiring_a_workload_drops_the_entries_the_store_holds(self, tmp_path):
        cache = TraceCache(store=TraceStore(tmp_path / "traces"))
        first = cache.trace_for_length(workload("gcc"), 600)
        for name in ("mcf", "namd"):
            cache.trace_for_length(workload(name), 600)
        assert len(cache) == 1
        assert cache.captures == 3 and cache.store_hits == 0
        again = cache.trace_for_length(workload("gcc"), 600)
        assert again is not first
        assert cache.captures == 3 and cache.store_hits == 1
        assert again.to_bytes() == first.to_bytes()
        assert cache.trace_for_length(workload("gcc"), 600) is again
        assert len(cache) == 1 and cache.hits == 1

    def test_entries_a_store_does_not_hold_stay(self):
        cache = TraceCache(store=_NO_STORE)
        traces = [cache.trace_for_length(workload(name), 600) for name in ("gcc", "mcf", "namd")]
        assert len(cache) == 3 and cache.captures == 3
        assert cache.trace_for_length(workload("gcc"), 600) is traces[0]
        assert cache.hits == 1 and cache.store_hits == 0

    def test_default_store_follows_environment(self, monkeypatch, tmp_path):
        monkeypatch.delenv(TRACE_STORE_ENV_VAR, raising=False)
        assert default_trace_store() is None
        monkeypatch.setenv(TRACE_STORE_ENV_VAR, str(tmp_path / "traces"))
        store = default_trace_store()
        assert store is not None
        assert store.directory == tmp_path / "traces"
        assert default_trace_store() is store  # cached per path
