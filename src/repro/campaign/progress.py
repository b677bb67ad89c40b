"""The campaign's one event stream: progress lines and the JSONL event log.

:meth:`ProgressReporter.emit` builds one row per event — the fixed keys of
:data:`ROW_KEYS` plus the event's own fields — and hands that same row to two
sinks: the JSONL *event log* named by ``heartbeat_path`` or
``REPRO_HEARTBEAT_LOG`` (written whatever ``enabled`` says; I/O errors are
swallowed but counted in ``heartbeat_errors`` and carried by ``finish``, since
telemetry must never take a campaign down), and, when ``enabled``, a human line
on stderr rendered by the per-event template table :data:`LINES`.  The process
running the grid emits the cell events and ``finish``; fleet workers emit lease
events through a reporter labelled with the worker id, whose counters stay zero.

The ETA extrapolates from the mean wall-clock of *simulated* cells only, so a
resumed campaign that fast-forwards through reused (cache/store) cells does not
report an absurdly optimistic finish time for the remaining real work.
"""

from __future__ import annotations

import json
import os
import sys
import time
from pathlib import Path
from typing import TextIO

from repro.campaign.spec import CampaignCell

#: Environment variable: path of the structured JSONL event log (optional).
HEARTBEAT_ENV_VAR = "REPRO_HEARTBEAT_LOG"

#: The keys every event row carries; an event adds its own fields after them.
ROW_KEYS = (
    "unix_time", "event", "label", "worker", "lease", "cell", "done", "total",
    "simulated", "reused", "failed", "elapsed_seconds", "eta_seconds", "workers",
)


def format_duration(seconds: float) -> str:
    """Compact human duration: ``3.2s``, ``4m12s``, ``1h03m``."""
    if seconds < 0:
        seconds = 0.0
    if seconds < 60:
        return f"{seconds:.1f}s"
    minutes, secs = divmod(int(round(seconds)), 60)
    if minutes < 60:
        return f"{minutes}m{secs:02d}s"
    hours, minutes = divmod(minutes, 60)
    return f"{hours}h{minutes:02d}m"


#: The human line of each event, filled in by :func:`render_line` (which adds
#: the ``[label]`` prefix and the derived ``{head}``/``{elapsed}``/… fields).
LINES = {
    "cell_started": "{head} running — elapsed {elapsed}, ETA {eta_or_unknown}",
    "cell_done": "{head} {outcome} — elapsed {elapsed}, ETA {eta}",
    "cell_failed": "{head} FAILED{reason} — elapsed {elapsed}",
    "finish": "done: {simulated} simulated, {reused} reused{failed_note}, "
    "{total} cells in {elapsed}{pool_note}{lost_note}",
    "lease_claimed": "claimed {lease} ({cells} cells, attempt {attempt})",
    "lease_requeued": "{lease} -> {state}: {error_type}: {error_message}",
    "worker_interrupted": "interrupted by {signal}{released_note}",
}


def render_line(row: dict) -> str:
    """The human line of one event row."""
    percent = 100.0 * row["done"] / row["total"] if row["total"] else 100.0
    eta = format_duration(row["eta_seconds"])
    error = row.get("error_type") or row.get("error_message")
    lost = row.get("heartbeat_write_errors")
    return f"[{row['label']}] " + LINES[row["event"]].format_map(dict(
        row,
        head=f"{row['done']}/{row['total']} ({percent:3.0f}%) {row['cell']}",
        elapsed=format_duration(row["elapsed_seconds"]),
        eta=eta,
        eta_or_unknown=eta if row["simulated"] else "unknown",
        outcome=f"simulated in {format_duration(row['seconds'])}"
        if row.get("source") == "simulated" else "reused",
        reason=f": {row['error_type']}: {row['error_message']}" if error else "",
        failed_note=f", {row['failed']} FAILED" if row["failed"] else "",
        pool_note=f" ({row['workers']} workers, {row.get('utilization', 0.0):.0%} "
        "utilisation)" if row["workers"] > 1 else "",
        lost_note=f", {lost} heartbeat-log writes failed" if lost else "",
        released_note=" (lease released)" if row.get("released") else "",
    ))


class ProgressReporter:
    """Counts a campaign's cells and emits each event to the log and the stream."""

    def __init__(
        self,
        total: int,
        enabled: bool = True,
        stream: TextIO | None = None,
        label: str = "campaign",
        workers: int = 1,
        heartbeat_path: str | None = None,
    ) -> None:
        self.total = total
        self.enabled = enabled
        self.workers = max(1, workers)
        self.stream = stream if stream is not None else sys.stderr
        self.label = label
        self.done = 0
        self.simulated = 0
        self.reused = 0
        self.failed = 0
        self._started = time.monotonic()
        self._simulated_seconds = 0.0
        #: Swallowed event-log write failures, surfaced by ``finish``.
        self.heartbeat_errors = 0
        if heartbeat_path is None:
            heartbeat_path = os.environ.get(HEARTBEAT_ENV_VAR) or None
        self._heartbeat_path = Path(heartbeat_path) if heartbeat_path else None

    # ------------------------------------------------------------------ events
    def cell_started(self, cell: CampaignCell) -> None:
        """Announce one cell entering simulation (serial path / single-cell runs)."""
        self.emit("cell_started", cell=cell.describe())

    def cell_done(self, cell: CampaignCell, seconds: float, reused: bool) -> None:
        """Record one finished cell (``reused`` = served from cache/store)."""
        self.done += 1
        if reused:
            self.reused += 1
        else:
            self.simulated += 1
            self._simulated_seconds += seconds
        source = "reused" if reused else "simulated"
        self.emit("cell_done", cell=cell.describe(), seconds=seconds, source=source)

    def cell_failed(self, cell: CampaignCell, error: dict | None = None) -> None:
        """Record one cell whose simulation raised (the campaign continues)."""
        self.done += 1
        self.failed += 1
        error = error or {}
        self.emit("cell_failed", cell=cell.describe(), error_type=error.get("type"),
                  error_message=error.get("message"))

    def finish(self) -> None:
        """Emit the closing summary."""
        # The finish row carries the swallowed-error count: a reader tailing
        # the log can tell how many events a sick disk silently dropped (the
        # finish write itself may add one more, uncountable by definition).
        self.emit("finish", utilization=self.utilization,
                  heartbeat_write_errors=self.heartbeat_errors)

    def emit(self, event: str, **fields) -> None:
        """Build one row for ``event`` and hand it to the event log and the stream."""
        row = dict.fromkeys(ROW_KEYS)  # worker, lease and cell stay None unless given
        row.update(
            unix_time=time.time(), event=event, label=self.label, done=self.done,
            total=self.total, simulated=self.simulated, reused=self.reused,
            failed=self.failed, elapsed_seconds=self.elapsed, eta_seconds=self.eta,
            workers=self.workers, **fields,
        )
        if self._heartbeat_path is not None:
            try:
                self._heartbeat_path.parent.mkdir(parents=True, exist_ok=True)
                with self._heartbeat_path.open("a", encoding="utf-8") as handle:
                    handle.write(json.dumps(row, sort_keys=True) + "\n")
            except OSError:
                # Telemetry must never take a campaign down (full disk, bad path, …)
                # — but a swallowed write is still a lost event, so count it.
                self.heartbeat_errors += 1
        if self.enabled:
            print(render_line(row), file=self.stream, flush=True)

    # ------------------------------------------------------------------ derived
    @property
    def elapsed(self) -> float:
        """Seconds since the reporter was created."""
        return time.monotonic() - self._started

    @property
    def eta(self) -> float:
        """Projected seconds to completion from the mean simulated-cell cost.

        The mean is divided across the worker pool (capped at the remaining cell
        count) — per-cell durations accumulate concurrently under sharding, so a
        serial projection would overestimate by roughly the worker count.
        """
        remaining = self.total - self.done
        if remaining <= 0 or self.simulated == 0:
            return 0.0
        mean = self._simulated_seconds / self.simulated
        return remaining * mean / min(self.workers, remaining)

    @property
    def utilization(self) -> float:
        """Fraction of the worker pool's wall-clock spent simulating (≤ 1.0).

        Per-cell durations accumulate concurrently under sharding, so the pool's
        available time is ``elapsed × workers``; reused cells contribute nothing.
        """
        available = self.elapsed * self.workers
        if available <= 0:
            return 0.0
        return min(1.0, self._simulated_seconds / available)
