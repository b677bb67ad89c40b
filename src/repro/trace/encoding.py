"""Compact columnar encoding of a committed µ-op trace.

A :class:`CapturedTrace` stores the dynamic fields of a committed µ-op stream as
parallel typed arrays (one column per field) instead of one Python object per µ-op.
Static fields are *interned*: a position stores only its static PC, and the µ-op itself
is recovered from the owning :class:`~repro.isa.program.Program`.  Optional columns
(result, flags, address) are stored sparsely — a one-byte presence flag
per µ-op plus a dense value array holding only the present entries.

Every trace holds this one form, whatever made it: the emulator's batched capture
writes the columns directly (:meth:`Emulator.run_batch
<repro.isa.emulator.Emulator.run_batch>` with :func:`empty_columns`), and a store
load reads them from a blob.

Neither consumer decodes a record:

- the timing model replays :meth:`CapturedTrace.replay_view` — the pc, taken and
  next-pc columns plus dense per-position result, flags and address lists, expanded
  once per trace and cached on it;
- the trace-level predictor study walks :meth:`CapturedTrace.study_events`.

:meth:`CapturedTrace.instructions` and :meth:`CapturedTrace.replay` decode
``DynInst`` records on demand, for tools that want whole records (workload
characterisation, profiling, tests).

The same columns serialise to a flat binary blob (:meth:`CapturedTrace.to_bytes` /
:meth:`CapturedTrace.from_bytes`) for the on-disk trace store
(:mod:`repro.trace.store`): one JSON header line, then the columns back to back.
The header names the format, byte order and program, lists each column's size and
carries the payload's CRC32, which every load verifies.  It holds nothing the
columns determine: a trace's length and whether it halted are read from them.
"""

from __future__ import annotations

import hashlib
import json
import sys
import zlib
from array import array
from collections.abc import Iterator
from itertools import accumulate, islice
from typing import NamedTuple

from repro.errors import ReproError
from repro.isa.program import Program
from repro.isa.trace import OPTIONAL_FIELDS, DynInst, gc_paused

#: Bump whenever the binary layout (or the semantics of a column) changes; stored
#: traces with a different version are ignored by the store.
TRACE_FORMAT_VERSION = 3

#: Item size in bytes of each column of a blob, in order: pcs, next pcs, taken,
#: then a presence and a value column per optional field.
COLUMN_ITEM_BYTES = (4, 4, 1) + (1, 8) * len(OPTIONAL_FIELDS)

#: Bits of the per-program static flag table behind :meth:`CapturedTrace.study_events`.
_CONDITIONAL_BRANCH = 1
_VP_ELIGIBLE = 2

#: One trace-level study item: the conditional-branch outcomes to push into the
#: global history, then the pc and architectural result of an eligible µ-op.
StudyEvent = tuple[tuple[int, ...], int, int]


def _expand(presence: bytearray, values: array) -> list[int | None]:
    """A sparse column, one entry per µ-op: the next dense value where present, else None."""
    next_value = iter(values).__next__
    return [next_value() if present else None for present in presence]


class ReplayView(NamedTuple):
    """What the timing model reads of a trace, each column indexed by trace position.

    A position is also the µ-op's sequence number.  ``pcs``, ``taken`` and
    ``next_pcs`` are the trace's own columns; ``result``, ``flags_result`` and
    ``addr`` are their sparse columns expanded to one entry per position (``None``
    where the µ-op produces no such value).
    """

    pcs: array
    taken: bytearray
    next_pcs: array
    result: list[int | None]
    flags_result: list[int | None]
    addr: list[int | None]


def empty_columns() -> tuple[array, array, bytearray, dict, dict]:
    """Empty ``(pcs, next_pcs, taken, presence, values)``.

    The columns in :class:`CapturedTrace`'s constructor order, ready to be
    appended to µ-op by µ-op.
    """
    return (
        array("i"),
        array("i"),
        bytearray(),
        {name: bytearray() for name in OPTIONAL_FIELDS},
        {name: array("Q") for name in OPTIONAL_FIELDS},
    )


class TraceEncodingError(ReproError):
    """A trace blob could not be decoded (corrupt, wrong version, wrong program)."""


def program_fingerprint(program: Program) -> str:
    """Content hash identifying a program's static µ-op stream (the intern table).

    Two programs share a fingerprint iff replaying a trace captured from one against
    the other reconstitutes identical ``DynInst`` records, so the fingerprint is the
    key of the on-disk trace store.
    """
    hasher = hashlib.sha256()
    hasher.update(program.name.encode())
    for pc, uop in enumerate(program.uops):
        hasher.update(f"{pc}:{uop}\n".encode())
    for label in sorted(program.labels):
        hasher.update(f"@{label}={program.labels[label]}\n".encode())
    return hasher.hexdigest()


def validate_blob(blob: bytes) -> tuple[dict, memoryview]:
    """Structurally validate a trace blob without a program: header + payload.

    Checks everything that can be checked from the bytes alone — header syntax,
    format version, byte order, the column table (the format's column count, each
    column a whole number of items, the sizes summing to the payload length), the
    payload checksum, and the item counts (one per µ-op in the pc, next-pc, taken
    and presence columns, one per present byte in each value column).  Raises
    :class:`TraceEncodingError` on any violation; the program fingerprint is
    *not* checked (that needs the program — see :meth:`CapturedTrace.from_bytes`).
    This is the audit primitive behind ``repro-campaign fsck``.
    """
    newline = blob.find(b"\n")
    if newline < 0:
        raise TraceEncodingError("trace blob has no header")
    try:
        header = json.loads(blob[:newline])
    except (ValueError, RecursionError) as error:
        raise TraceEncodingError(f"corrupt trace header: {error}") from error
    if not isinstance(header, dict):
        raise TraceEncodingError("trace header is not an object")
    if header.get("format") != TRACE_FORMAT_VERSION:
        raise TraceEncodingError(f"unsupported trace format {header.get('format')}")
    if header.get("byteorder") != sys.byteorder:
        raise TraceEncodingError("trace captured on a different byte order")
    payload = memoryview(blob)[newline + 1 :]
    column_bytes = header.get("column_bytes")
    if not isinstance(column_bytes, list) or not all(
        isinstance(size, int) and size >= 0 for size in column_bytes
    ):
        raise TraceEncodingError("trace header has no valid column table")
    if len(column_bytes) != len(COLUMN_ITEM_BYTES):
        raise TraceEncodingError(
            f"trace header lists {len(column_bytes)} columns, "
            f"the format has {len(COLUMN_ITEM_BYTES)}"
        )
    if any(size % item for size, item in zip(column_bytes, COLUMN_ITEM_BYTES)):
        raise TraceEncodingError("trace column is not a whole number of items")
    if sum(column_bytes) != len(payload):
        raise TraceEncodingError("trace blob is truncated")
    if "payload_crc32" not in header:
        raise TraceEncodingError("trace header has no payload checksum")
    if zlib.crc32(payload) != header["payload_crc32"]:
        raise TraceEncodingError("trace payload checksum mismatch (corrupt blob)")
    items = [size // item for size, item in zip(column_bytes, COLUMN_ITEM_BYTES)]
    ends = list(accumulate(column_bytes))
    present = [
        items[i] - payload[ends[i - 1] : ends[i]].tobytes().count(0)
        for i in range(3, len(items), 2)
    ]
    if len(set(items[:3] + items[3::2])) != 1 or present != items[4::2]:
        raise TraceEncodingError("trace columns disagree with its length or presence bytes")
    return header, payload


class CapturedTrace:
    """One workload's committed µ-op stream in columnar form.

    Attributes
    ----------
    program:
        The program the trace was captured from (owns the interned static µ-ops).
    length:
        Number of dynamic µ-ops captured.
    halted:
        True when the program ran to completion within the capture budget — the trace
        is the *entire* committed stream and satisfies any replay length requirement.
        It holds exactly when the pc after the last µ-op (the entry pc, 0, for an
        empty trace) lies outside the program.
    """

    __slots__ = (
        "program",
        "length",
        "halted",
        "fingerprint",
        "_pcs",
        "_next_pcs",
        "_taken",
        "_presence",
        "_values",
        "_view",
    )

    def __init__(
        self,
        program: Program,
        pcs: array,
        next_pcs: array,
        taken: bytearray,
        presence: dict[str, bytearray],
        values: dict[str, array],
        fingerprint: str | None = None,
    ) -> None:
        self.program = program
        self.length = len(pcs)
        self.halted = not 0 <= (next_pcs[-1] if next_pcs else 0) < len(program.uops)
        self.fingerprint = (
            fingerprint if fingerprint is not None else program_fingerprint(program)
        )
        self._pcs = pcs
        self._next_pcs = next_pcs
        self._taken = taken
        self._presence = presence
        self._values = values
        self._view: ReplayView | None = None

    # ------------------------------------------------------------------ replay
    def replay_view(self) -> ReplayView:
        """The columns the timing model replays, built on the first call and cached.

        Expanding a sparse column costs tens of nanoseconds per µ-op, once per
        trace; every simulation replaying the trace shares the view.
        """
        view = self._view
        if view is None:
            presence = self._presence
            values = self._values
            view = self._view = ReplayView(
                self._pcs,
                self._taken,
                self._next_pcs,
                *(
                    _expand(presence[name], values[name])
                    for name in ("result", "flags_result", "addr")
                ),
            )
        return view

    def instructions(self) -> tuple[DynInst, ...]:
        """The committed stream decoded into ``DynInst`` records, afresh on each call."""
        with gc_paused():
            return tuple(self._decode())

    def replay(self) -> Iterator[DynInst]:
        """The committed stream as ``DynInst`` records, each built as it is read."""
        return self._decode()

    def _decode(self) -> Iterator[DynInst]:
        """The ``DynInst`` stream, built column by column by one ``map``."""
        pcs = self._pcs
        return map(
            DynInst,
            range(self.length),
            pcs,
            map(self.program.uops.__getitem__, pcs),
            *(_expand(self._presence[name], self._values[name]) for name in OPTIONAL_FIELDS),
            map(bool, self._taken),
            self._next_pcs,
        )

    def study_events(self, max_uops: int) -> list[StudyEvent]:
        """The first ``max_uops`` µ-ops as the trace-level predictor study sees them.

        One ``(outcomes, pc, result)`` item per value-prediction-eligible µ-op that
        produced a result, in trace order.  ``outcomes`` holds the taken flags of the
        conditional branches since the previous item (the µ-op's own included), which
        the study pushes into the global history before the lookup.  Branches after
        the last eligible µ-op are dropped: no lookup observes them.

        Built from the columns without decoding a single ``DynInst``, on every
        call: the trace keeps no copy, so a cached trace costs only its columns.  The caller that sweeps predictor
        families over one trace keeps the list
        (:func:`~repro.analysis.predictor_eval.evaluate_predictor`).
        """
        flags = bytes(
            (_CONDITIONAL_BRANCH if uop.is_conditional_branch else 0)
            | (_VP_ELIGIBLE if uop.vp_eligible else 0)
            for uop in self.program.uops
        )
        next_result = iter(self._values["result"]).__next__
        events: list[StudyEvent] = []
        append = events.append
        outcomes: list[int] = []
        for pc, taken, present in zip(
            islice(self._pcs, max_uops), self._taken, self._presence["result"]
        ):
            kind = flags[pc]
            if kind & _CONDITIONAL_BRANCH:
                outcomes.append(taken)
            if present:
                result = next_result()
                if kind & _VP_ELIGIBLE:
                    append((tuple(outcomes), pc, result))
                    outcomes.clear()
        return events

    def covers(self, required_length: int) -> bool:
        """True if replaying this trace is equivalent to emulating ``required_length``.

        A complete (halted) trace covers any requirement; a budget-truncated one only
        covers requirements within its capture budget.
        """
        return self.halted or self.length >= required_length

    def __len__(self) -> int:
        return self.length

    # ------------------------------------------------------------------ serialisation
    def to_bytes(self) -> bytes:
        """Serialise header + columns into one binary blob (for the on-disk store)."""
        columns: list[bytes] = [
            self._pcs.tobytes(),
            self._next_pcs.tobytes(),
            bytes(self._taken),
        ]
        for name in OPTIONAL_FIELDS:
            columns.append(bytes(self._presence[name]))
            columns.append(self._values[name].tobytes())
        payload = b"".join(columns)
        header = json.dumps(
            {
                "format": TRACE_FORMAT_VERSION,
                "byteorder": sys.byteorder,
                "program": self.fingerprint,
                "program_name": self.program.name,
                "column_bytes": [len(column) for column in columns],
                "payload_crc32": zlib.crc32(payload),
            },
            sort_keys=True,
        ).encode()
        return header + b"\n" + payload

    @classmethod
    def from_bytes(cls, blob: bytes, program: Program) -> "CapturedTrace":
        """Decode a blob produced by :meth:`to_bytes` against ``program``.

        Raises :class:`TraceEncodingError` on format/version/byte-order mismatch,
        truncation, a payload-checksum mismatch, or if the blob was captured from a
        different program.
        """
        header, payload = validate_blob(blob)
        fingerprint = program_fingerprint(program)
        if header.get("program") != fingerprint:
            raise TraceEncodingError(
                f"trace was captured from a different program "
                f"({header.get('program_name')!r})"
            )
        column_bytes = header["column_bytes"]
        offsets = [0]
        for size in column_bytes:
            offsets.append(offsets[-1] + size)
        chunks = [payload[offsets[i] : offsets[i + 1]] for i in range(len(column_bytes))]

        def as_array(typecode: str, chunk: memoryview) -> array:
            out = array(typecode)
            out.frombytes(chunk)
            return out

        pcs = as_array("i", chunks[0])
        next_pcs = as_array("i", chunks[1])
        taken = bytearray(chunks[2])
        presence: dict[str, bytearray] = {}
        values: dict[str, array] = {}
        for index, name in enumerate(OPTIONAL_FIELDS):
            presence[name] = bytearray(chunks[3 + 2 * index])
            values[name] = as_array("Q", chunks[4 + 2 * index])
        return cls(program, pcs, next_pcs, taken, presence, values, fingerprint)
