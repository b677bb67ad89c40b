"""Pipeline event tracer: per-µ-op lifecycle events in a bounded ring buffer.

``REPRO_PIPE_TRACE=1`` makes :class:`repro.pipeline.simulator.Simulator` emit one
event per pipeline stage a µ-op passes through — fetch, VP lookup, early execution,
dispatch, wake-up, issue, completion, commit and squash — each stamped with the
cycle, the µ-op's sequence number, its PC, its pool slot (the arena index of the
pooled ``InflightOp`` record) and an optional cause string.  The hook sites in the
simulator, the issue queue and the emulator are plain ``if tracer is not None``
checks, so the disabled path (the default) stays byte-identical and free.

Events land in a bounded ring buffer (:class:`PipeTracer`), oldest-first eviction;
``REPRO_PIPE_TRACE_BUFFER`` sizes it (default 65 536 events).  Two exporters turn
the buffer into timeline files:

* :func:`to_trace_events` — Chrome/Perfetto trace-event JSON (load in
  https://ui.perfetto.dev or ``chrome://tracing``); each pool slot becomes a
  timeline lane, each µ-op lifecycle a chain of complete ("X") spans.
* :func:`to_konata` — gem5 O3PipeView-style text, loadable in the Konata
  pipeline viewer.

The schema is documented in ``docs/observability.md``.
"""

from __future__ import annotations

import json
import os
from collections import deque

#: Environment variable enabling the pipeline event tracer (default off).
PIPE_TRACE_ENV_VAR = "REPRO_PIPE_TRACE"

#: Environment variable sizing the event ring buffer (default 65 536 events).
PIPE_TRACE_BUFFER_ENV_VAR = "REPRO_PIPE_TRACE_BUFFER"

DEFAULT_BUFFER_CAPACITY = 65536

#: Every stage string the simulator emits, in canonical lifecycle order.  The
#: ``span`` stages bound the Perfetto spans; the ``instant`` stages annotate them.
SPAN_STAGES = ("fetch", "dispatch", "issue", "complete", "commit")
INSTANT_STAGES = ("vp_lookup", "early_exec", "wakeup")
ALL_STAGES = SPAN_STAGES + INSTANT_STAGES + ("squash",)

#: O3PipeView timestamps are ticks; gem5 uses 500/1000 ticks per cycle.  Konata
#: only needs the ratio to be constant.
TICKS_PER_CYCLE = 1000


def pipe_trace_enabled() -> bool:
    """True when ``REPRO_PIPE_TRACE`` explicitly enables event tracing."""
    return os.environ.get(PIPE_TRACE_ENV_VAR, "0").lower() in ("1", "on", "true")


def trace_buffer_capacity() -> int:
    """Ring-buffer capacity from ``REPRO_PIPE_TRACE_BUFFER`` (default 65 536)."""
    raw = os.environ.get(PIPE_TRACE_BUFFER_ENV_VAR)
    if not raw:
        return DEFAULT_BUFFER_CAPACITY
    try:
        capacity = int(raw)
    except ValueError:
        return DEFAULT_BUFFER_CAPACITY
    return max(1, capacity)


def maybe_tracer() -> "PipeTracer | None":
    """A :class:`PipeTracer` when tracing is enabled, else None (the hot default)."""
    if not pipe_trace_enabled():
        return None
    return PipeTracer(capacity=trace_buffer_capacity())


class PipeTracer:
    """Bounded ring buffer of ``(cycle, stage, seq, pc, slot, cause)`` events.

    When the buffer is full the *oldest* events are evicted — the tail of a run is
    usually what a timeline investigation needs.  ``emitted`` counts every event
    ever offered, so ``dropped`` reports how much history the ring lost.
    """

    __slots__ = ("capacity", "_events", "emitted")

    def __init__(self, capacity: int = DEFAULT_BUFFER_CAPACITY) -> None:
        self.capacity = max(1, int(capacity))
        self._events: deque = deque(maxlen=self.capacity)
        self.emitted = 0

    def emit(self, cycle: int, stage: str, op, cause: str | None = None) -> None:
        """Record one lifecycle event for pooled record ``op`` (seq/pc/slot)."""
        self.emitted += 1
        self._events.append((cycle, stage, op.seq, op.pc, op.slot, cause))

    def __len__(self) -> int:
        return len(self._events)

    @property
    def dropped(self) -> int:
        """Events evicted by the ring bound (emitted − retained)."""
        return self.emitted - len(self._events)

    def events(self) -> list:
        """The retained events, oldest first."""
        return list(self._events)

    def clear(self) -> None:
        self._events.clear()
        self.emitted = 0


# --------------------------------------------------------------------- lifecycles
def _lifecycles(events) -> list[dict]:
    """Fold the flat event stream into per-µ-op lifecycle records.

    Sequence numbers are *reused* after a squash re-fetch, so a lifecycle is keyed
    by seq but restarted whenever a new "fetch" event for that seq arrives.  Stale
    "complete" events from already-squashed wheel entries carry cause
    ``"squashed"`` and are excluded — they belong to the dead incarnation.
    """
    open_by_seq: dict[int, dict] = {}
    finished: list[dict] = []

    def close(rec: dict) -> None:
        finished.append(rec)

    for cycle, stage, seq, pc, slot, cause in events:
        if stage == "fetch":
            prior = open_by_seq.pop(seq, None)
            if prior is not None:
                close(prior)
            open_by_seq[seq] = {
                "seq": seq,
                "pc": pc,
                "slot": slot,
                "stages": {"fetch": cycle},
                "instants": [],
                "squashed": False,
                "disasm": cause or "uop",
            }
            continue
        rec = open_by_seq.get(seq)
        if rec is None:
            continue  # ring overflow ate the fetch event; skip the partial tail
        if stage == "squash":
            rec["squashed"] = True
            rec["stages"]["squash"] = cycle
            close(open_by_seq.pop(seq))
        elif stage == "complete" and cause == "squashed":
            continue
        elif stage in ("dispatch", "issue", "complete", "commit"):
            rec["stages"][stage] = cycle
            if stage == "commit":
                close(open_by_seq.pop(seq))
        else:  # vp_lookup / early_exec / wakeup
            rec["instants"].append((cycle, stage, cause))
    finished.extend(open_by_seq.values())
    finished.sort(key=lambda rec: (rec["stages"].get("fetch", 0), rec["seq"]))
    return finished


# ----------------------------------------------------------------- Perfetto export
def to_trace_events(tracer: PipeTracer, metadata: dict | None = None) -> dict:
    """Chrome/Perfetto trace-event JSON for the tracer's retained events.

    Each pool slot becomes a named thread lane (``tid``); each µ-op lifecycle
    becomes a chain of complete ("X") spans between consecutive stages, with
    instant ("i") markers for VP lookups, early execution and wake-ups.
    """
    events = tracer.events()
    lifecycles = _lifecycles(events)
    trace_events: list[dict] = []
    slots = sorted({rec["slot"] for rec in lifecycles})
    for slot in slots:
        trace_events.append(
            {
                "name": "thread_name",
                "ph": "M",
                "pid": 0,
                "tid": slot,
                "args": {"name": f"pool slot {slot}"},
            }
        )
    for rec in lifecycles:
        stages = rec["stages"]
        present = [s for s in SPAN_STAGES if s in stages]
        base_args = {"seq": rec["seq"], "pc": f"0x{rec['pc']:x}", "uop": rec["disasm"]}
        for start_stage, end_stage in zip(present, present[1:]):
            start, end = stages[start_stage], stages[end_stage]
            trace_events.append(
                {
                    "name": start_stage,
                    "ph": "X",
                    "pid": 0,
                    "tid": rec["slot"],
                    "ts": start,
                    "dur": max(end - start, 0),
                    "args": base_args,
                }
            )
        terminal = "squash" if rec["squashed"] else ("commit" if "commit" in stages else None)
        if terminal is not None and terminal in stages:
            trace_events.append(
                {
                    "name": terminal,
                    "ph": "i",
                    "pid": 0,
                    "tid": rec["slot"],
                    "ts": stages[terminal],
                    "s": "t",
                    "args": base_args,
                }
            )
        for cycle, stage, cause in rec["instants"]:
            args = dict(base_args)
            if cause is not None:
                args["cause"] = cause
            trace_events.append(
                {
                    "name": stage,
                    "ph": "i",
                    "pid": 0,
                    "tid": rec["slot"],
                    "ts": cycle,
                    "s": "t",
                    "args": args,
                }
            )
    payload = {"traceEvents": trace_events, "displayTimeUnit": "ns"}
    other = {"emitted": tracer.emitted, "dropped": tracer.dropped}
    if metadata:
        other.update(metadata)
    payload["otherData"] = other
    return payload


def write_trace_events(tracer: PipeTracer, path, metadata: dict | None = None) -> dict:
    """Export + write the Perfetto JSON to ``path``; returns the payload."""
    payload = to_trace_events(tracer, metadata)
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=None, separators=(",", ":"))
    return payload


# ------------------------------------------------------------------- Konata export
def to_konata(tracer: PipeTracer) -> str:
    """gem5 O3PipeView-style text dump (Konata pipeline viewer compatible).

    One record per µ-op lifecycle::

        O3PipeView:fetch:<tick>:0x<pc>:0:<seq>:<disasm>
        O3PipeView:decode:<tick>
        O3PipeView:rename:<tick>
        O3PipeView:dispatch:<tick>
        O3PipeView:issue:<tick>
        O3PipeView:complete:<tick>
        O3PipeView:retire:<tick>:store:0

    Squashed µ-ops get ``retire:0`` (gem5's convention for never-retired).
    Lifecycles whose fetch event was evicted by the ring bound are skipped.
    """
    lines: list[str] = []
    for rec in _lifecycles(tracer.events()):
        stages = rec["stages"]
        fetch = stages.get("fetch")
        if fetch is None:
            continue
        tick = lambda cycle: cycle * TICKS_PER_CYCLE  # noqa: E731
        dispatch = stages.get("dispatch", fetch)
        issue = stages.get("issue", dispatch)
        complete = stages.get("complete", issue)
        lines.append(
            f"O3PipeView:fetch:{tick(fetch)}:0x{rec['pc']:08x}:0:{rec['seq']}:{rec['disasm']}"
        )
        lines.append(f"O3PipeView:decode:{tick(fetch)}")
        lines.append(f"O3PipeView:rename:{tick(dispatch)}")
        lines.append(f"O3PipeView:dispatch:{tick(dispatch)}")
        lines.append(f"O3PipeView:issue:{tick(issue)}")
        lines.append(f"O3PipeView:complete:{tick(complete)}")
        if rec["squashed"] or "commit" not in stages:
            lines.append("O3PipeView:retire:0:store:0")
        else:
            lines.append(f"O3PipeView:retire:{tick(stages['commit'])}:store:0")
    return "\n".join(lines) + ("\n" if lines else "")


def write_konata(tracer: PipeTracer, path) -> str:
    """Export + write the Konata text to ``path``; returns the text."""
    text = to_konata(tracer)
    with open(path, "w") as fh:
        fh.write(text)
    return text


# ---------------------------------------------------------------------- validation
def validate_trace_events(payload) -> None:
    """Validate a trace-event payload against the (minimal) Chrome schema.

    Pure-python on purpose — CI runs it without any jsonschema dependency.
    Raises :class:`ValueError` on the first violation.
    """
    if not isinstance(payload, dict):
        raise ValueError("trace payload must be a JSON object")
    events = payload.get("traceEvents")
    if not isinstance(events, list):
        raise ValueError("trace payload must contain a 'traceEvents' list")
    for index, event in enumerate(events):
        where = f"traceEvents[{index}]"
        if not isinstance(event, dict):
            raise ValueError(f"{where}: not an object")
        name = event.get("name")
        if not isinstance(name, str) or not name:
            raise ValueError(f"{where}: missing or empty 'name'")
        phase = event.get("ph")
        if phase not in ("X", "i", "M"):
            raise ValueError(f"{where}: unsupported phase {phase!r}")
        for key in ("pid", "tid"):
            if not isinstance(event.get(key), int):
                raise ValueError(f"{where}: '{key}' must be an integer")
        if phase != "M":
            ts = event.get("ts")
            if not isinstance(ts, (int, float)) or ts < 0:
                raise ValueError(f"{where}: 'ts' must be a non-negative number")
        if phase == "X":
            dur = event.get("dur")
            if not isinstance(dur, (int, float)) or dur < 0:
                raise ValueError(f"{where}: 'dur' must be a non-negative number")
        if "args" in event and not isinstance(event["args"], dict):
            raise ValueError(f"{where}: 'args' must be an object")
