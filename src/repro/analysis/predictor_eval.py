"""Offline (trace-level) value-predictor evaluation.

For predictor-centric studies — comparing predictor families, ablating the FPC
confidence vector, sizing tables — the full pipeline model is unnecessary: coverage and
accuracy only depend on the committed value stream and the global branch history.  This
harness walks a workload's architectural trace, performs a fetch-time lookup and a
commit-time training call per eligible µ-op (keeping branch history up to date), and
reports the predictor's own statistics.  The same methodology underlies Table 2 and the
confidence discussion of Section 4.2.

The walk reads the trace's columns, never decoded ``DynInst`` objects: each trace
yields one list of ``(branch outcomes, pc, result)`` items
(:meth:`~repro.trace.encoding.CapturedTrace.study_events`).  This module keeps the
last list it built, keyed by the trace object and ``max_uops``, so a sweep that
evaluates every predictor family on one workload before moving to the next builds
each workload's list once, and only one list is alive at a time.  The trace comes
from the shared trace cache (:mod:`repro.trace.cache`), so a predictor sweep emulates
each workload once.  With ``REPRO_TRACE_STORE`` set, repeated study sessions skip
emulation entirely, and the sweep holds one trace at a time as well: acquiring the
next workload drops the previous one's trace, which the store holds.  Without a
store every trace the sweep captured stays cached until the cache is cleared.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

from repro.bpu.history import GlobalHistory
from repro.trace.cache import shared_trace_cache
from repro.trace.encoding import CapturedTrace, StudyEvent
from repro.vp.base import ValuePredictor
from repro.workloads.suite import Workload


#: ``(trace, max_uops, events)`` of the last :func:`evaluate_predictor` call: holding
#: the trace object keeps its identity from being reused while the entry stands.
_last_events: tuple[CapturedTrace, int, list[StudyEvent]] | None = None


def _study_events(trace: CapturedTrace, max_uops: int) -> list[StudyEvent]:
    """``trace.study_events(max_uops)``, rebuilt only when the trace or length changes."""
    global _last_events
    if _last_events is None or _last_events[0] is not trace or _last_events[1] != max_uops:
        _last_events = (trace, max_uops, trace.study_events(max_uops))
    return _last_events[2]


@dataclass
class PredictorEvaluation:
    """Outcome of an offline predictor evaluation on one workload."""

    predictor_name: str
    workload_name: str
    eligible_uops: int
    coverage: float
    accuracy: float
    mispredictions: int
    storage_kilobytes: float

    def to_dict(self) -> dict:
        """JSON-safe dict form (mirrors ``SimulationResult.to_dict``)."""
        return asdict(self)


def evaluate_predictor(
    predictor: ValuePredictor,
    workload: Workload,
    max_uops: int = 20_000,
    trace: CapturedTrace | None = None,
) -> PredictorEvaluation:
    """Run ``predictor`` over the first ``max_uops`` committed µ-ops of ``workload``.

    The predictor is looked up at "fetch" (trace order) and trained immediately with the
    architectural result, which is equivalent to commit-time training on a machine with
    no in-flight aliasing — an optimistic but standard trace-level approximation.

    The committed stream comes from the shared trace cache, or from ``trace`` when
    given, which must cover ``max_uops`` (:meth:`CapturedTrace.covers`) or a
    :class:`ValueError` is raised.
    """
    if trace is not None:
        if not trace.covers(max_uops):
            raise ValueError(
                f"trace of {workload.name!r} holds {len(trace)} µ-ops and did not "
                f"halt; evaluating {max_uops} needs a longer capture"
            )
    else:
        trace = shared_trace_cache.trace_for_length(workload, max_uops)
    events = _study_events(trace, max_uops)
    history = GlobalHistory()
    push = history.push
    lookup = predictor.lookup
    validate_and_train = predictor.validate_and_train
    # Each lookup follows the previous training and precedes its own, so the
    # FPC draw order is the per-µ-op order of the pipeline.
    for outcomes, pc, result in events:
        for taken in outcomes:
            push(taken)
        validate_and_train(pc, result, lookup(pc, history))
    stats = predictor.stats
    return PredictorEvaluation(
        predictor_name=predictor.name,
        workload_name=workload.name,
        eligible_uops=len(events),
        coverage=stats.coverage,
        accuracy=stats.accuracy,
        mispredictions=stats.incorrect_used,
        storage_kilobytes=predictor.storage_kilobytes(),
    )
