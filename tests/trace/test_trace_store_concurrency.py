"""Concurrency and crash-durability tests for the on-disk trace store.

Regression tests for the shared-temp-path race in :meth:`TraceStore.save`: every
save used to stage through the *same* ``<fingerprint>.trace.tmp`` name, so two
workers capturing one workload (exactly what the distributed coordinator's
one-trace-per-fleet sync produces) could interleave writes and publish a torn
blob.  Saves now go through :func:`repro.durable.publish`, which stages each
writer's bytes in its own ``.<target name>-*.tmp`` file and publishes with an
atomic rename, so a reader observes a complete file or nothing.
"""

import multiprocessing

import pytest

from repro.trace.capture import capture_workload_trace
from repro.trace.store import TraceStore
from repro.workloads.suite import workload

#: Captured once in the parent; fork-children inherit it (traces pickle poorly).
_TRACE = None


def _save_repeatedly(directory: str, saves: int, barrier) -> None:
    store = TraceStore(directory)
    barrier.wait()
    for _ in range(saves):
        store.save(_TRACE)


def _tmp_orphans(directory):
    """Temp-staging leftovers (named ``.<target name>-*.tmp``, hidden from globs)."""
    return [path for path in directory.iterdir() if path.suffix == ".tmp"]


class TestConcurrentSave:
    def test_racing_saves_of_one_fingerprint_stay_loadable(self, tmp_path):
        global _TRACE
        wl = workload("gcc")
        _TRACE = capture_workload_trace(wl, 600)
        procs = 4
        ctx = multiprocessing.get_context("fork")
        barrier = ctx.Barrier(procs)
        workers = [
            ctx.Process(target=_save_repeatedly, args=(str(tmp_path), 10, barrier))
            for _ in range(procs)
        ]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join(timeout=120)
        assert all(worker.exitcode == 0 for worker in workers)

        store = TraceStore(tmp_path)
        assert len(store) == 1  # one file per fingerprint, despite 40 racing saves
        loaded = store.load(wl.program)
        assert loaded is not None, "racing saves published a torn trace"
        assert loaded.to_bytes() == _TRACE.to_bytes()
        assert not _tmp_orphans(tmp_path)  # every temp was renamed or unlinked


class TestCrashDurability:
    def test_crash_orphan_never_shadows_a_live_trace(self, tmp_path):
        wl = workload("gcc")
        trace = capture_workload_trace(wl, 600)
        store = TraceStore(tmp_path)
        store.save(trace)
        # A SIGKILL mid-save leaves a partial temp behind; it must be invisible.
        orphan = tmp_path / f".{trace.fingerprint[:32]}.trace-crashed.tmp"
        orphan.write_bytes(trace.to_bytes()[:16])
        assert len(store) == 1
        assert store.load(wl.program).to_bytes() == trace.to_bytes()
        # And a later save still publishes cleanly alongside the orphan.
        store.save(trace)
        assert store.load(wl.program) is not None

    def test_failed_save_unlinks_its_temp(self, tmp_path):
        class _ExplodingTrace:
            fingerprint = "f" * 64

            def to_bytes(self):
                raise RuntimeError("serialisation boom")

        store = TraceStore(tmp_path)
        with pytest.raises(RuntimeError):
            store.save(_ExplodingTrace())
        assert list(tmp_path.iterdir()) == []  # no temp left, nothing published

    def test_corrupt_trace_file_reads_as_missing(self, tmp_path):
        wl = workload("gcc")
        trace = capture_workload_trace(wl, 600)
        store = TraceStore(tmp_path)
        path = store.save(trace)
        path.write_bytes(b"garbage, not a trace")
        assert store.load(wl.program) is None
