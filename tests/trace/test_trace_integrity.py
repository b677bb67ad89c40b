"""Trace-blob integrity: payload checksums, structural validation, fault sites."""

import json
import zlib

import pytest

from repro.faults.plan import FAULTS_ENV_VAR, InjectedFault
from repro.faults.sites import (
    TRACE_SAVE_CORRUPT,
    TRACE_SAVE_CRASH,
    TRACE_SAVE_TRUNCATED,
)
from repro.trace.cache import TraceCache
from repro.trace.capture import capture_workload_trace
from repro.trace.encoding import (
    CapturedTrace,
    TraceEncodingError,
    validate_blob,
)
from repro.trace.store import TraceStore
from repro.workloads.suite import workload


@pytest.fixture(scope="module")
def gcc_trace() -> CapturedTrace:
    return capture_workload_trace(workload("gcc"), 600)


class TestPayloadChecksum:
    def test_header_carries_payload_crc(self, gcc_trace):
        blob = gcc_trace.to_bytes()
        header, payload = validate_blob(blob)
        assert header["payload_crc32"] == zlib.crc32(bytes(payload))

    def test_payload_bit_flip_is_detected(self, gcc_trace):
        blob = bytearray(gcc_trace.to_bytes())
        flip_at = (blob.find(b"\n") + 1 + len(blob)) // 2  # deep inside the payload
        blob[flip_at] ^= 0xFF
        with pytest.raises(TraceEncodingError, match="checksum"):
            validate_blob(bytes(blob))
        with pytest.raises(TraceEncodingError):
            CapturedTrace.from_bytes(bytes(blob), workload("gcc").program)

    def test_truncated_blob_is_detected(self, gcc_trace):
        blob = gcc_trace.to_bytes()
        with pytest.raises(TraceEncodingError, match="truncated"):
            validate_blob(blob[: len(blob) // 2])

    def test_legacy_blob_without_crc_still_loads(self, gcc_trace):
        blob = gcc_trace.to_bytes()
        newline = blob.find(b"\n")
        header = json.loads(blob[:newline])
        header.pop("payload_crc32")
        legacy = json.dumps(header, sort_keys=True).encode() + blob[newline:]
        validated, _ = validate_blob(legacy)
        assert "payload_crc32" not in validated
        restored = CapturedTrace.from_bytes(legacy, workload("gcc").program)
        assert restored.length == gcc_trace.length

    def test_garbage_is_rejected_with_a_reason(self):
        with pytest.raises(TraceEncodingError):
            validate_blob(b"no header newline here")


class TestInjectedTraceFaults:
    def test_corrupt_save_is_silent_but_load_rejects(
        self, tmp_path, monkeypatch, gcc_trace
    ):
        monkeypatch.setenv(FAULTS_ENV_VAR, TRACE_SAVE_CORRUPT)
        store = TraceStore(tmp_path)
        store.save(gcc_trace)  # the writer believes the save succeeded
        monkeypatch.delenv(FAULTS_ENV_VAR)
        assert store.load(workload("gcc").program) is None  # checksum catches it

    def test_truncated_save_is_rejected_on_load(self, tmp_path, monkeypatch, gcc_trace):
        monkeypatch.setenv(FAULTS_ENV_VAR, TRACE_SAVE_TRUNCATED)
        store = TraceStore(tmp_path)
        store.save(gcc_trace)
        monkeypatch.delenv(FAULTS_ENV_VAR)
        assert store.load(workload("gcc").program) is None

    def test_save_crash_leaves_tmp_orphan_and_no_blob(
        self, tmp_path, monkeypatch, gcc_trace
    ):
        monkeypatch.setenv(FAULTS_ENV_VAR, TRACE_SAVE_CRASH)
        store = TraceStore(tmp_path)
        with pytest.raises(InjectedFault):
            store.save(gcc_trace)
        monkeypatch.delenv(FAULTS_ENV_VAR)
        assert len(store) == 0  # nothing was published
        assert list(tmp_path.glob(".*.tmp"))  # the SIGKILL-faithful orphan
        # A clean retry publishes normally over the residue.
        store.save(gcc_trace)
        assert store.load(workload("gcc").program) is not None


def _with_header(blob: bytes, **changes) -> bytes:
    """``blob`` with header keys replaced and its payload untouched."""
    newline = blob.find(b"\n")
    header = json.loads(blob[:newline])
    header.update(changes)
    return json.dumps(header, sort_keys=True).encode() + blob[newline:]


def _column_bytes(blob: bytes) -> list[int]:
    return list(json.loads(blob[: blob.find(b"\n")])["column_bytes"])


def _one_column(blob: bytes) -> bytes:
    """A header listing one column of the whole payload's size."""
    return _with_header(blob, column_bytes=[sum(_column_bytes(blob))])


def _split_item(blob: bytes) -> bytes:
    """A header moving one byte of the pcs column into the taken column."""
    sizes = _column_bytes(blob)
    sizes[0] -= 1
    sizes[2] += 1
    return _with_header(blob, column_bytes=sizes)


def _shifted_pc(blob: bytes) -> bytes:
    """A header moving the last pc into the next-pc column."""
    sizes = _column_bytes(blob)
    sizes[0] -= 4
    sizes[1] += 4
    return _with_header(blob, column_bytes=sizes)


def _short_values(blob: bytes) -> bytes:
    """A header moving the last result value into the flags presence column."""
    sizes = _column_bytes(blob)
    sizes[4] -= 8
    sizes[5] += 8
    return _with_header(blob, column_bytes=sizes)


def _format_1(blob: bytes) -> bytes:
    """A blob stamped with the format before this one."""
    return _with_header(blob, format=1)


#: Blobs the current format must reject, each with the reason it names.
BAD_BLOBS = {
    "one-column": (_one_column, "lists 1 columns"),
    "split-item": (_split_item, "whole number of items"),
    "shifted-pc": (_shifted_pc, "disagree with its length"),
    "short-values": (_short_values, "presence bytes"),
    "format-1": (_format_1, "unsupported trace format 1"),
}


@pytest.mark.parametrize("case", sorted(BAD_BLOBS))
class TestBlobsOfAnotherLayout:
    def test_from_bytes_rejects_it(self, gcc_trace, case):
        forge, reason = BAD_BLOBS[case]
        blob = forge(gcc_trace.to_bytes())
        with pytest.raises(TraceEncodingError, match=reason):
            validate_blob(blob)
        with pytest.raises(TraceEncodingError, match=reason):
            CapturedTrace.from_bytes(blob, workload("gcc").program)

    def test_store_load_returns_none_and_the_next_capture_replaces_it(
        self, tmp_path, gcc_trace, case
    ):
        forge, _ = BAD_BLOBS[case]
        store = TraceStore(tmp_path)
        path = store.save(gcc_trace)
        path.write_bytes(forge(path.read_bytes()))
        assert store.load(workload("gcc").program) is None
        cache = TraceCache(store=store)
        recaptured = cache.trace_for_length(workload("gcc"), gcc_trace.length)
        assert (cache.store_hits, cache.captures) == (0, 1)
        assert path.read_bytes() == recaptured.to_bytes()
        assert store.load(workload("gcc").program).to_bytes() == recaptured.to_bytes()
