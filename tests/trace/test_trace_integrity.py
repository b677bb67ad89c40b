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
