"""Optional on-disk trace store (one binary file per captured trace).

Lives alongside the campaign result store: point ``REPRO_TRACE_STORE`` at a directory
and every trace capture lands on disk, so later processes (e.g. repeated benchmark
sessions, CI runs restoring a cache) skip the emulation entirely.  Files are
content-addressed by the program fingerprint — a workload whose kernel changes gets a
new file automatically, and a stored trace is only reused when its blob round-trips
against the *current* program (see :meth:`CapturedTrace.from_bytes`).  The fingerprint
does not cover a workload's initial memory image or the emulator's semantics: a change
to either needs an empty store.

A trace file is rewritten when a longer capture of the same program supersedes it (a
configuration with a larger fetch-ahead window asked for more slack); the store keeps
exactly one file per program.
"""

from __future__ import annotations

import os
from pathlib import Path

from repro.durable import publish
from repro.faults.plan import active_faults
from repro.faults.sites import (
    TRACE_SAVE_CORRUPT,
    TRACE_SAVE_CRASH,
    TRACE_SAVE_TRUNCATED,
)
from repro.isa.program import Program
from repro.trace.encoding import CapturedTrace, TraceEncodingError, program_fingerprint

#: Environment variable naming the default on-disk trace store directory (opt-in).
TRACE_STORE_ENV_VAR = "REPRO_TRACE_STORE"


class TraceStore:
    """A directory of captured traces, keyed by program fingerprint."""

    def __init__(self, directory: str | os.PathLike) -> None:
        self.directory = Path(directory)

    def _path_for(self, fingerprint: str) -> Path:
        return self.directory / f"{fingerprint[:32]}.trace"

    def load(self, program: Program) -> CapturedTrace | None:
        """The stored trace for ``program``, or ``None`` (missing, corrupt or stale)."""
        path = self._path_for(program_fingerprint(program))
        if not path.exists():
            return None
        try:
            return CapturedTrace.from_bytes(path.read_bytes(), program)
        except (TraceEncodingError, OSError):
            return None

    def save(self, trace: CapturedTrace) -> Path:
        """Persist ``trace`` (atomically) and return its path.

        Concurrent writers of the same fingerprint (two campaign workers capturing
        one workload) each stage through their own file and publish with
        :func:`repro.durable.publish`, so readers observe either the old complete
        file or the new complete file — never interleaved bytes.  A crash mid-save
        leaves only a ``*.tmp`` orphan, which :meth:`load`/:meth:`__len__` never
        look at (they match ``*.trace`` only).
        """
        path = self._path_for(trace.fingerprint)
        blob = trace.to_bytes()
        faults = active_faults()
        if faults is not None:
            if faults.fires(TRACE_SAVE_TRUNCATED) is not None:
                # A torn blob published whole (no atomic-rename semantics): the
                # column table no longer matches the payload length, so loads
                # reject it and the next writer recaptures.
                blob = blob[: max(1, len(blob) // 2)]
            if faults.fires(TRACE_SAVE_CORRUPT) is not None:
                # Silent bit rot with the length intact: only the payload
                # checksum catches it.
                flip_at = (blob.find(b"\n") + 1 + len(blob)) // 2
                mutable = bytearray(blob)
                mutable[flip_at] ^= 0xFF
                blob = bytes(mutable)
        publish(path, [blob], crash_site=TRACE_SAVE_CRASH)
        return path

    def __len__(self) -> int:
        if not self.directory.exists():
            return 0
        return sum(1 for _ in self.directory.glob("*.trace"))


# ---------------------------------------------------------------- default store (env)
_default_store: TraceStore | None = None
_default_store_path: str | None = None


def default_trace_store() -> TraceStore | None:
    """The process-wide trace store named by ``REPRO_TRACE_STORE``, or ``None``."""
    global _default_store, _default_store_path
    path = os.environ.get(TRACE_STORE_ENV_VAR)
    if not path:
        _default_store = None
        _default_store_path = None
        return None
    if _default_store is None or _default_store_path != path:
        _default_store = TraceStore(path)
        _default_store_path = path
    return _default_store
