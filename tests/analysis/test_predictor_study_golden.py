"""The trace-level predictor study pinned to the committed golden.

``evaluate_predictor`` walks the trace's columns, so a bug in that walk or in the
shared predictor code would move every trace source at once.  These evaluations
are checked against the benchmark's committed ``predictor_study`` digests instead:
the first 16 hex digits of the SHA-256 of the sorted-JSON
``PredictorEvaluation.to_dict()``.  An intentional model change regenerates the
goldens (see perfbench/README.md).

Each trace source the study can walk is covered: a trace loaded from the on-disk
store, an in-process capture passed in explicitly, the shared trace cache's own
capture (columns written by the emulator, no ``DynInst`` at all), the step-wise
reference trace of ``tests/oracles.py`` (the emulator's records, encoded as
columns), and a trace store backing a whole family sweep, where each workload
drops the previous one's trace from the cache.
"""

import hashlib
import json
from pathlib import Path
from types import SimpleNamespace

import pytest

from repro.analysis.predictor_eval import PredictorEvaluation, evaluate_predictor
from repro.bpu.history import GlobalHistory
from repro.campaign.spec import derive_seed
from repro.isa.builder import ProgramBuilder
from repro.pipeline.config import PREDICTOR_FACTORIES
from repro.trace import encoding as encoding_module
from repro.trace.cache import shared_trace_cache
from repro.trace.capture import capture_budget, capture_trace, capture_workload_trace
from repro.trace.store import TRACE_STORE_ENV_VAR, TraceStore
from repro.vp.confidence import SCALED_FPC_VECTOR
from repro.workloads.suite import workload
from tests.oracles import use_oracles

GOLDEN = Path(__file__).resolve().parents[2] / "perfbench" / "golden" / "seed-0.json"

#: The benchmark's study families (perfbench/harness.py, ``PREDICTOR_FAMILIES``).
FAMILIES = ("vtage-2dstride", "vtage", "2dstride", "stride", "lvp", "fcm")
WORKLOADS = ("gcc", "mcf", "bzip2")
MAX_UOPS = 20000


def _digest(evaluation: PredictorEvaluation) -> str:
    text = json.dumps(evaluation.to_dict(), sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _predictor(family: str, name: str):
    return PREDICTOR_FACTORIES[family](derive_seed(0, family, name), SCALED_FPC_VECTOR)


def _trace(source: str, tmp_path, wl):
    """The explicit trace for ``source``; ``None`` lets the study capture or emulate."""
    if source in ("emulated", "column-captured"):
        return None
    trace = capture_workload_trace(wl, capture_budget(MAX_UOPS))
    if source == "stored":
        store = TraceStore(tmp_path)
        store.save(trace)
        trace = store.load(wl.program)
    return trace


@pytest.fixture(scope="module")
def golden():
    expected = json.loads(GOLDEN.read_text())["predictor_study"]
    assert {cell_id.split("/")[0] for cell_id in expected} == set(FAMILIES)
    return expected


def _no_dyninst(*args):
    raise AssertionError("the capture or the study built a DynInst")


@pytest.mark.parametrize("source", ["stored", "captured", "emulated", "column-captured"])
@pytest.mark.parametrize("name", WORKLOADS)
def test_study_matches_the_committed_golden(golden, tmp_path, monkeypatch, source, name):
    wl = workload(name)
    trace = _trace(source, tmp_path, wl)
    if source == "emulated":
        use_oracles(monkeypatch, trace=True)
    if source == "column-captured":
        # The cache's own capture.
        shared_trace_cache.clear()
    if source in ("stored", "column-captured"):
        monkeypatch.setattr(encoding_module, "DynInst", _no_dyninst)
    digests = {
        f"{family}/{name}": _digest(
            evaluate_predictor(_predictor(family, name), wl, MAX_UOPS, trace=trace)
        )
        for family in FAMILIES
    }
    assert digests == {cell_id: golden[cell_id] for cell_id in digests}
    if source == "column-captured":
        captures = shared_trace_cache.captures
        shared_trace_cache.trace_for_length(wl, MAX_UOPS)
        shared_trace_cache.clear()
        assert shared_trace_cache.captures == captures, "every family re-used one capture"


def test_a_family_sweep_builds_each_workloads_events_once(golden, monkeypatch):
    """Every family on one workload before the next: one events list per workload."""
    real = encoding_module.CapturedTrace.study_events
    built = []

    def counting(trace, max_uops):
        built.append(trace.program.name)
        return real(trace, max_uops)

    monkeypatch.setattr(encoding_module.CapturedTrace, "study_events", counting)
    shared_trace_cache.clear()
    try:
        digests = {
            f"{family}/{name}": _digest(
                evaluate_predictor(_predictor(family, name), workload(name), MAX_UOPS)
            )
            for name in WORKLOADS
            for family in FAMILIES
        }
    finally:
        shared_trace_cache.clear()
    assert built == list(WORKLOADS)
    assert digests == {cell_id: golden[cell_id] for cell_id in digests}


def test_a_store_backed_sweep_holds_one_trace_and_matches_the_golden(
    golden, tmp_path, monkeypatch
):
    """A fresh store backs two sweeps: the first captures and saves every workload,
    the second loads each one; either way the next workload evicts the previous."""
    monkeypatch.setenv(TRACE_STORE_ENV_VAR, str(tmp_path))
    shared_trace_cache.clear()
    before = (shared_trace_cache.captures, shared_trace_cache.store_hits)
    held = []
    try:
        for _ in range(2):
            digests = {}
            for name in WORKLOADS:
                for family in FAMILIES:
                    evaluation = evaluate_predictor(
                        _predictor(family, name), workload(name), MAX_UOPS
                    )
                    digests[f"{family}/{name}"] = _digest(evaluation)
                    held.append(len(shared_trace_cache))
            assert digests == {cell_id: golden[cell_id] for cell_id in digests}
        after = (shared_trace_cache.captures, shared_trace_cache.store_hits)
    finally:
        shared_trace_cache.clear()
    assert set(held) == {1}
    assert (after[0] - before[0], after[1] - before[1]) == (3, 3)


def _reference_walk(predictor, wl, max_uops, trace) -> PredictorEvaluation:
    """The study's definition, over decoded ``DynInst`` objects."""
    history = GlobalHistory()
    eligible = 0
    for inst in trace.instructions()[:max_uops]:
        if inst.uop.is_conditional_branch:
            history.push(inst.taken)
        if inst.uop.vp_eligible and inst.result is not None:
            eligible += 1
            prediction = predictor.lookup(inst.pc, history)
            predictor.validate_and_train(inst.pc, inst.result, prediction)
    return PredictorEvaluation(
        predictor.name, wl.name, eligible, predictor.stats.coverage,
        predictor.stats.accuracy, predictor.stats.incorrect_used,
        predictor.storage_kilobytes(),
    )


def _halting_loop():
    """A loop that halts after 9603 µ-ops; its one conditional branch is random.

    The µ-op right after the branch produces the value that decided it, so only a
    predictor that sees that outcome in its history can predict it.
    """
    b = ProgramBuilder("halting-loop")
    b.movi("r1", 0)
    b.movi("r2", 0x1000)
    b.movi("r7", 1)
    b.label("loop")
    b.addi("r1", "r1", 1)
    b.mul("r7", "r7", imm=6364136223846793005)
    b.addi("r7", "r7", 1442695040888963407)
    b.shr("r8", "r7", imm=33)
    b.and_("r8", "r8", imm=1)
    b.cmp("r8", imm=0)
    b.beq("join")
    b.label("join")
    b.addi("r9", "r8", 10)
    b.ld("r4", "r2", 0)
    b.st("r2", "r1", 0)
    b.cmp("r1", imm=800)
    b.bne("loop")
    return b.build()


@pytest.mark.parametrize("family", FAMILIES)
def test_study_matches_a_reference_walk_on_a_halted_trace(family):
    program = _halting_loop()
    trace = capture_trace(program, budget=10**5)
    assert trace.halted and trace.length < 10**4
    wl = SimpleNamespace(name="halting-loop", program=program)
    for max_uops in (trace.length, trace.length - 7, 10**6):
        got = evaluate_predictor(_predictor(family, wl.name), wl, max_uops, trace=trace)
        want = _reference_walk(_predictor(family, wl.name), wl, max_uops, trace)
        assert got == want
        assert got.eligible_uops > 0
