"""Persistent on-disk result store (JSON-lines, append-only with compaction).

Each line is one completed :class:`~repro.campaign.spec.CampaignCell`::

    {"fingerprint": "…", "config": "EOLE_4_64", "workload": "mcf",
     "max_uops": 12000, "warmup_uops": 3000, "saved_unix": 1706…,
     "result": {…SimulationResult.to_dict()…}}

Appending one line per finished simulation makes every record a checkpoint: an
interrupted campaign loses at most the in-flight cells, and a half-written trailing
line (the typical kill artefact) is skipped on load.  The newest record wins when a
fingerprint appears more than once (e.g. after :meth:`ResultStore.merge`), and
:meth:`ResultStore.compact` rewrites the file with the duplicates dropped.

The store is *content-addressed*: the fingerprint hashes the full configuration
dataclass, so results are invalidated implicitly whenever the simulated machine
changes, and :meth:`ResultStore.invalidate` handles the explicit cases (a simulator
bug-fix, a retired workload).

**Multi-process sharing.** One store file may be appended to by many processes at
once (the worker fleets of :mod:`repro.campaign.coordinator`).  Two
mechanisms keep that safe:

* every mutation — append, compaction, invalidate, merge — runs under the advisory
  lock of :func:`repro.durable.locked` (a ``<store>.lock`` sidecar), so a compaction
  can never interleave with another writer's append;
* any rewrite first *reloads* the on-disk rows, so lines appended by other
  processes since this instance's last load are folded in rather than silently
  discarded (the pre-fix behaviour lost finished cells whenever the
  ``REPRO_RESULT_STORE_MAX_MB`` auto-compaction fired on a shared store).

Besides result rows, the store accepts *failure rows* — ``{"error": {...}}`` instead
of ``"result"`` — recording cells whose simulation raised.  Failure rows never
satisfy :meth:`ResultStore.get`/``in`` (a resumed campaign retries them); they are
reported via :meth:`ResultStore.failures` and a newer success row supersedes them.

**Integrity.** Every row carries ``"v"`` (the row schema version) and ``"crc"``
(CRC32 of the canonical sorted-JSON row with the ``crc`` key removed), so silent
corruption — bit rot, a torn write that happens to stay valid JSON — is detected on
load, not just syntax errors.  A row the load cannot verify is never served, and
that includes a row without the two stamps.
Rows that fail to parse or verify are *quarantined*, never a hard failure: the load
skips them, keeps their raw bytes for inspection (:meth:`ResultStore.quarantined`),
and compaction moves them to a ``<store>.quarantine`` sidecar before dropping them
from the data file.  Appends heal a torn trailing line (a crash mid-append) by
prefixing a newline, so one torn row never corrupts the rows appended after it.
``repro-campaign fsck`` audits all of this (see :mod:`repro.campaign.fsck`).
"""

from __future__ import annotations

import json
import os
import time
import zlib
from contextlib import contextmanager, nullcontext
from pathlib import Path

from repro.campaign.spec import CampaignCell
from repro.durable import locked, publish
from repro.faults.plan import InjectedFault, active_faults
from repro.faults.sites import (
    STORE_APPEND_CORRUPT,
    STORE_APPEND_TORN,
    STORE_REWRITE_CRASH,
)
from repro.pipeline.stats import SimulationResult

#: Environment variable naming the default persistent store (opt-in).
STORE_ENV_VAR = "REPRO_RESULT_STORE"

#: Row schema version stamped into every written row (``"v"``).  Version 2 added
#: the per-row CRC; a row of any other version is quarantined.
ROW_VERSION = 2


def row_crc(record: dict) -> int:
    """CRC32 of the canonical sorted-JSON encoding of ``record`` minus its ``crc``.

    The canonicalisation is exactly the line encoding (``json.dumps(...,
    sort_keys=True)``), so a row round-trips: the CRC computed from the parsed dict
    equals the CRC computed when the line was written.
    """
    sans_crc = {key: value for key, value in record.items() if key != "crc"}
    return zlib.crc32(json.dumps(sans_crc, sort_keys=True).encode("utf-8"))


def stamp_row(record: dict) -> dict:
    """Stamp ``record`` (in place) with the schema version and its CRC."""
    record["v"] = ROW_VERSION
    record.pop("crc", None)
    record["crc"] = row_crc(record)
    return record

#: Environment variable: size cap, in megabytes, above which the backing file is
#: automatically compacted after an append (superseded/corrupt rows dropped; oldest
#: rows evicted if the live records alone still exceed the cap).
MAX_MB_ENV_VAR = "REPRO_RESULT_STORE_MAX_MB"


def default_max_bytes() -> int | None:
    """The ``REPRO_RESULT_STORE_MAX_MB`` cap in bytes, or ``None`` when unset."""
    raw = os.environ.get(MAX_MB_ENV_VAR)
    if not raw:
        return None
    try:
        megabytes = float(raw)
    except ValueError:
        return None
    if megabytes <= 0:
        return None
    return int(megabytes * 1024 * 1024)


class ResultStore:
    """A map from cell fingerprint to :class:`SimulationResult`, persisted to ``path``.

    ``ResultStore(None)`` has no file: the same rows live in memory only, which
    makes it the process-local memo of :mod:`repro.analysis.runner`.  Only
    loading and appending skip the file; the maintenance methods (``compact``,
    ``merge``, ``invalidate``) need one.
    """

    def __init__(self, path: str | os.PathLike | None, max_bytes: int | None = None) -> None:
        self.path = Path(path) if path is not None else None
        self.max_bytes = max_bytes if max_bytes is not None else default_max_bytes()
        self._records: dict[str, dict] = {}
        self._failures: dict[str, dict] = {}
        self._skipped_lines = 0
        self._superseded_lines = 0
        self._quarantined: list[dict] = []
        self._lock_depth = 0
        self._load()

    # ------------------------------------------------------------------ locking
    @contextmanager
    def _locked(self):
        """Hold the store's inter-process lock (reentrant within this instance)."""
        with nullcontext() if self._lock_depth else locked(self.path):
            self._lock_depth += 1
            try:
                yield
            finally:
                self._lock_depth -= 1

    # ------------------------------------------------------------------ loading
    def _ingest_row(self, record: dict) -> None:
        fingerprint = record["fingerprint"]
        if fingerprint in self._records or fingerprint in self._failures:
            # The newer row wins; the older one is dead weight on disk
            # until the next compaction.
            self._superseded_lines += 1
        self._records.pop(fingerprint, None)
        self._failures.pop(fingerprint, None)
        if "result" in record:
            self._records[fingerprint] = record
        else:
            self._failures[fingerprint] = record

    def _quarantine_line(self, line_no: int, raw: str, reason: str) -> None:
        """Set a bad line aside in memory (never a hard parse failure).

        The raw bytes are kept so :meth:`compact` (and ``fsck --repair``) can move
        them to the ``<store>.quarantine`` sidecar instead of silently destroying
        whatever data survives in them.
        """
        self._skipped_lines += 1
        self._quarantined.append({"line": line_no, "reason": reason, "raw": raw})

    def _load(self) -> None:
        self._records.clear()
        self._failures.clear()
        self._skipped_lines = 0
        self._superseded_lines = 0
        self._quarantined = []
        if self.path is None or not self.path.exists():
            return
        with self.path.open("r", encoding="utf-8") as handle:
            for line_no, line in enumerate(handle, start=1):
                line = line.strip()
                if not line:
                    continue
                try:
                    record = json.loads(line)
                    record["fingerprint"]  # noqa: B018 — validate presence
                    if "error" not in record:
                        record["result"]  # noqa: B018 — validate presence
                except (json.JSONDecodeError, KeyError, TypeError):
                    self._quarantine_line(line_no, line, "parse")
                    continue
                if record.get("v") != ROW_VERSION:
                    self._quarantine_line(line_no, line, "version")
                    continue
                if record.get("crc") != row_crc(record):
                    self._quarantine_line(line_no, line, "crc")
                    continue
                self._ingest_row(record)

    def reload(self) -> None:
        """Re-read the backing file (e.g. after another process appended to it)."""
        self._load()

    # ------------------------------------------------------------------ querying
    def __len__(self) -> int:
        return len(self._records)

    def __contains__(self, fingerprint: str) -> bool:
        """True for *result* rows only — failure rows must not mask a retry."""
        return fingerprint in self._records

    @property
    def skipped_lines(self) -> int:
        """Corrupt/truncated lines ignored (quarantined) by the last load."""
        return self._skipped_lines

    @property
    def superseded_lines(self) -> int:
        """Duplicate-fingerprint rows shadowed by newer ones since the last load."""
        return self._superseded_lines

    def quarantined(self) -> list[dict]:
        """The bad lines set aside by the last load: ``{"line", "reason", "raw"}``.

        Reasons: ``parse`` (not JSON / missing fields — the torn-append artefact),
        ``crc`` (a checksum that does not match — silent corruption),
        ``version`` (a row without the current schema stamp, which this reader
        cannot verify).
        """
        return list(self._quarantined)

    def size_bytes(self) -> int:
        """Current size of the backing file in bytes (0 when it does not exist)."""
        try:
            return self.path.stat().st_size
        except OSError:
            return 0

    def get(self, fingerprint: str) -> SimulationResult | None:
        """The stored result for ``fingerprint``, or ``None``."""
        record = self._records.get(fingerprint)
        if record is None:
            return None
        return SimulationResult.from_dict(record["result"])

    def get_record(self, fingerprint: str) -> dict | None:
        """The raw stored record (metadata + result dict), or ``None``."""
        return self._records.get(fingerprint)

    def records(self) -> list[dict]:
        """All result records, in insertion order (failure rows excluded)."""
        return list(self._records.values())

    def failures(self) -> list[dict]:
        """All failure rows, in insertion order (see :meth:`put_failure`)."""
        return list(self._failures.values())

    def get_failure(self, fingerprint: str) -> dict | None:
        """The failure row for ``fingerprint``, or ``None``."""
        return self._failures.get(fingerprint)

    # ------------------------------------------------------------------ writing
    def put(
        self,
        cell: CampaignCell,
        result: SimulationResult,
        telemetry: dict | None = None,
    ) -> dict:
        """Persist ``result`` for ``cell`` (append + flush: an atomic-enough checkpoint).

        ``telemetry`` is the optional per-cell execution row (wall-clock,
        µops/s, trace-cache deltas — see :func:`repro.obs.telemetry.cell_telemetry`);
        it is stored alongside, never inside, the result dict.
        """
        outcome = {"result": result.to_dict()}
        if telemetry is not None:
            outcome["telemetry"] = telemetry
        return self._put(cell, outcome)

    def put_failure(self, cell: CampaignCell, error: dict) -> dict:
        """Persist a structured *failure* row for ``cell`` (simulation raised).

        ``error`` is a JSON-serialisable dict — by convention ``{"type", "message",
        "worker", "attempts", ...}`` (see
        :func:`repro.campaign.executor.failure_payload`).  Failure rows are visible
        via :meth:`failures`/:meth:`get_failure` but never via :meth:`get`/``in``,
        so a resumed campaign retries the cell; a later success row supersedes the
        failure automatically.
        """
        return self._put(cell, {"error": error})

    def _put(self, cell: CampaignCell, outcome: dict) -> dict:
        """Stamp, index and append the row recording ``outcome`` for ``cell``."""
        record = {
            "fingerprint": cell.fingerprint,
            "config": cell.config.name,
            "workload": cell.workload_name,
            "max_uops": cell.max_uops,
            "warmup_uops": cell.warmup_uops,
            "saved_unix": time.time(),
            **outcome,
        }
        stamp_row(record)
        self._ingest_row(record)
        self._append(record)
        return record

    def _torn_tail(self) -> bool:
        """True when the backing file ends mid-line (a crash tore the last append)."""
        try:
            with self.path.open("rb") as handle:
                handle.seek(0, os.SEEK_END)
                if handle.tell() == 0:
                    return False
                handle.seek(-1, os.SEEK_END)
                return handle.read(1) != b"\n"
        except OSError:
            return False

    def _append(self, record: dict) -> None:
        if self.path is None:
            return
        with self._locked():
            self.path.parent.mkdir(parents=True, exist_ok=True)
            # Heal a torn trailing line (crash mid-append) by starting this row on
            # a fresh line: the torn fragment stays quarantinable on its own line
            # instead of swallowing (and corrupting) the row written after it.
            prefix = "\n" if self._torn_tail() else ""
            line = json.dumps(record, sort_keys=True)
            faults = active_faults()
            with self.path.open("a", encoding="utf-8") as handle:
                if faults is not None and faults.fires(STORE_APPEND_TORN) is not None:
                    handle.write(prefix + line[: max(1, len(line) // 2)])
                    handle.flush()
                    raise InjectedFault(f"injected fault at {STORE_APPEND_TORN}")
                if faults is not None and faults.fires(STORE_APPEND_CORRUPT) is not None:
                    # Silent bit rot: garble the middle of the row but keep it one
                    # line — only the CRC (or a JSON error) catches it on load.
                    middle = len(line) // 2
                    line = line[:middle] + "#CORRUPT#" + line[middle + 9 :]
                handle.write(prefix + line + "\n")
                handle.flush()
            if self.max_bytes is not None and self.size_bytes() > self.max_bytes:
                # Size-cap policy: compacting drops superseded/invalidated rows
                # first; only if the live records alone exceed the cap are oldest
                # rows evicted.  The eviction target is 80% of the cap, so a store
                # sitting at its limit does not rewrite the whole file on every
                # append.  The lock is already held, so no other process can
                # append between this append and the compaction rewrite.
                self.compact(max(1, self.max_bytes * 4 // 5))

    def _all_rows(self):
        """Result rows then failure rows (rewrite order; load order-independent)."""
        yield from self._records.values()
        yield from self._failures.values()

    def _rewrite(self) -> None:
        """Atomically replace the backing file with the in-memory rows.

        Callers must hold the lock *and* have reloaded the on-disk state first
        (:meth:`_load`): a rewrite from a stale snapshot silently discards rows
        appended by other processes since this instance last read the file.
        """
        rows = (
            (json.dumps(record, sort_keys=True) + "\n").encode("utf-8")
            for record in self._all_rows()
        )
        publish(self.path, rows, crash_site=STORE_REWRITE_CRASH)
        self._skipped_lines = 0
        self._superseded_lines = 0
        self._quarantined = []

    def compact(self, max_bytes: int | None = None) -> dict:
        """Rewrite the file dropping superseded/corrupt rows; optionally cap its size.

        With ``max_bytes`` (or the store's own cap), oldest records — by their
        ``saved_unix`` stamp — are evicted until the live rows fit the budget.
        Returns a summary dict: rows dropped by kind and the before/after sizes.

        Runs under the inter-process lock and re-reads the backing file first, so
        rows appended by other processes since this instance's last load survive
        the rewrite.
        """
        with self._locked():
            self._load()
            before = self.size_bytes()
            superseded = self._superseded_lines
            corrupt = self._skipped_lines
            self._spill_quarantine()
            budget = max_bytes if max_bytes is not None else self.max_bytes
            evicted = 0
            if budget is not None:
                lines = {
                    record["fingerprint"]: len(json.dumps(record, sort_keys=True)) + 1
                    for record in self._all_rows()
                }
                total = sum(lines.values())
                if total > budget:
                    oldest_first = sorted(
                        self._records.values(),
                        key=lambda record: record.get("saved_unix", 0.0),
                    )
                    for record in oldest_first:
                        if total <= budget:
                            break
                        fingerprint = record["fingerprint"]
                        total -= lines[fingerprint]
                        del self._records[fingerprint]
                        evicted += 1
            self._rewrite()
            return {
                "superseded_dropped": superseded,
                "corrupt_dropped": corrupt,
                "evicted": evicted,
                "bytes_before": before,
                "bytes_after": self.size_bytes(),
                "records": len(self._records),
            }

    @property
    def quarantine_path(self) -> Path:
        """The sidecar file holding rows dropped from the data file by compaction."""
        return self.path.with_suffix(self.path.suffix + ".quarantine")

    def _spill_quarantine(self) -> None:
        """Append the currently quarantined raw lines to the sidecar (best effort).

        Called with the lock held, right before a rewrite drops the bad lines from
        the data file: whatever data survives in them is preserved for post-mortem
        instead of silently destroyed.
        """
        if not self._quarantined:
            return
        try:
            with self.quarantine_path.open("a", encoding="utf-8") as handle:
                for entry in self._quarantined:
                    handle.write(
                        json.dumps(
                            {
                                "quarantined_unix": time.time(),
                                "line": entry["line"],
                                "reason": entry["reason"],
                                "raw": entry["raw"],
                            },
                            sort_keys=True,
                        )
                        + "\n"
                    )
        except OSError:
            pass  # quarantine is forensic, never worth failing a compaction over

    # ------------------------------------------------------------------ maintenance
    def merge(self, other: "ResultStore | str | os.PathLike") -> int:
        """Fold another store's records into this one; returns the number adopted.

        Records whose fingerprint is already present locally are kept (ours wins —
        merge is for adopting *missing* cells, e.g. from a co-worker's store file).
        """
        if not isinstance(other, ResultStore):
            other = ResultStore(other)
        adopted = 0
        with self._locked():
            self._load()
            for record in other.records():
                if record["fingerprint"] not in self._records:
                    self._records[record["fingerprint"]] = record
                    self._append(record)
                    adopted += 1
        return adopted

    def invalidate(
        self,
        config: str | None = None,
        workload: str | None = None,
        fingerprints: set[str] | None = None,
    ) -> int:
        """Drop records matching any given filter; returns the number removed.

        With no filters, every record is dropped (a full reset).  The backing file is
        rewritten in place (under the inter-process lock, after a reload — rows
        appended by other processes survive unless they too match a filter).
        """
        def doomed(record: dict) -> bool:
            if fingerprints is not None and record["fingerprint"] in fingerprints:
                return True
            if config is not None and record["config"] == config:
                return True
            if workload is not None and record["workload"] == workload:
                return True
            return config is None and workload is None and fingerprints is None

        with self._locked():
            self._load()
            self._spill_quarantine()
            removed = [fp for fp, record in self._records.items() if doomed(record)]
            for fingerprint in removed:
                del self._records[fingerprint]
            dropped_failures = [
                fp for fp, record in self._failures.items() if doomed(record)
            ]
            for fingerprint in dropped_failures:
                del self._failures[fingerprint]
            self._rewrite()
        return len(removed)

    # ------------------------------------------------------------------ reporting
    def summary(self) -> dict:
        """Aggregate view used by ``repro.campaign status``: counts by config/workload."""
        by_config: dict[str, int] = {}
        by_workload: dict[str, int] = {}
        for record in self._records.values():
            by_config[record["config"]] = by_config.get(record["config"], 0) + 1
            by_workload[record["workload"]] = by_workload.get(record["workload"], 0) + 1
        return {
            "path": str(self.path),
            "records": len(self._records),
            "failures": len(self._failures),
            "skipped_lines": self._skipped_lines,
            "superseded_lines": self._superseded_lines,
            "size_bytes": self.size_bytes(),
            "configs": by_config,
            "workloads": by_workload,
        }


# ---------------------------------------------------------------- default store (env)
_default_store: ResultStore | None = None
_default_store_path: str | None = None


def default_store() -> ResultStore | None:
    """The process-wide store named by ``REPRO_RESULT_STORE``, or ``None`` if unset.

    The instance is cached per path, so the library layers
    (:func:`repro.analysis.runner.run_workload` and friends) share one in-memory index
    per process; re-pointing the environment variable swaps the store.
    """
    global _default_store, _default_store_path
    path = os.environ.get(STORE_ENV_VAR)
    if not path:
        _default_store = None
        _default_store_path = None
        return None
    if _default_store is None or _default_store_path != path:
        _default_store = ResultStore(path)
        _default_store_path = path
    return _default_store
