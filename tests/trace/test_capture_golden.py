"""Capture golden: every suite workload's trace blob, pinned by its sha256.

The step-vs-batch tests compare two emulator loops with each other, so a change
to what both share (the flags helpers, the workload programs, the arch-state
set-up, the blob encoding) moves them together and passes.  These digests are of
the format-3 layout (pcs, next pcs, taken and the sparse result, flags and
address columns; a header without ``length`` or ``halted``).  They were
re-recorded from format 2 after checking that all 19 payloads, the bytes after
the header line, are unchanged; format 2 in turn was derived from the format-1
capture, before its source, flags-in and store-value columns were dropped, by
re-serialising each format-1 trace with only the kept columns; the format-1
digests themselves were recorded before the batched loop dispatched on
pre-resolved arms and before memory arrays were written in bulk or computed on
read.  A change to them is a change to every trace.  A columnar capture (the emulator writing the columns, no
``DynInst``) and the step-wise reference (``StepEmulator.run`` of
``tests/oracles.py``, whose loads go through ``ArchState.read_mem``) must give the
same digests.
"""

import hashlib
from array import array

import pytest

import repro.isa.emulator as emulator_module
import repro.trace.capture as capture_module
import repro.trace.encoding as encoding_module
from repro.trace.capture import capture_budget, capture_workload_trace
from repro.trace.encoding import ReplayView
from repro.workloads.suite import SUITE_ORDER, workload
from tests.oracles import StepEmulator, reference_trace

#: ``capture_budget(2000)`` µ-ops of each workload from a fresh arch state.
GOLDEN_SHA256 = {
    "gzip": "6e6f28c5930086f8c524020f1e39122978a3328dcc115b265598651e269758a9",
    "wupwise": "f0222c22fbfe15be74c46d4fc448efbc9ce89aec6857dd9355d23aa1c8b252d9",
    "applu": "77545e8ed3754e7a13f2e7dc57de6fdc0c4076aa532f5863b7dcbd43b9025bcd",
    "vpr": "87755b20decf92432faf78b56467395b7690b6ed3f8cc9f9614555c140659b26",
    "art": "96f7bf1572e64f4c16a7738007481a782530d103d1c41f23fd2974065ac6db7a",
    "crafty": "24fa09d48c21a09baf1d634fd2e349bc225dfa678f2f1aa3e3bd86b25b51dd17",
    "parser": "5cb3565b5ea9e602aea6daa66ee00500463bd35c29a7809ef5c2c0b9915402e6",
    "vortex": "f01fb22a00ce6c8ae683ee452d071e17a8a649b915bf2c11760d4b67d7afbfa2",
    "bzip2": "80319094d8981c9b6743ee29c81a3a4da86876fb70322b3ea19eac7eb97d6e2b",
    "gcc": "988a952180cdd7c8338215d4862b0765d31aef084a2620c0bbb8e5450447d7ef",
    "gamess": "5ede99638dd0e4d65f4f350145128c2b5bc8116d4c2b619fee454eaa4378db8a",
    "mcf": "d9581190c496e8d37b23a3198a79012a75f82777b273d3425ade9ba5d765e305",
    "milc": "1152f41b88de907fe6c41f1ecf8d6f91ac0e3771ce2cb723e2a31dedf876b6e1",
    "namd": "791e7c96ab203ffd517b34f2addc678bd4880c48fdf32fd7503be34440caf22c",
    "gobmk": "238ed1a145ce91a7ce8e1f5f54c3b25c6ee4af23091cf119d2837ce2595a4d9c",
    "hmmer": "32b4f44dbfcb0af692f1c13f643d9769d675fa1daba072677727c3662f49d223",
    "sjeng": "1da1512c414188b4c7c7c28b967d028f567628163f7c2f34e216969529ac5018",
    "h264ref": "5ca1f7e1acc9f8ae81e7782d8b54f794beef943efbb9c3a32aeea2670d35c384",
    "lbm": "f39d24339621b9ef6e3be6cc918fb0df52868c73a81673f3a75136f84531924d",
}


def test_golden_covers_the_suite():
    assert tuple(GOLDEN_SHA256) == SUITE_ORDER


@pytest.mark.parametrize("name", SUITE_ORDER)
def test_trace_blob_matches_golden(name):
    blob = capture_workload_trace(workload(name), capture_budget(2000)).to_bytes()
    assert hashlib.sha256(blob).hexdigest() == GOLDEN_SHA256[name]


def _no_dyninst(*args, **kwargs):
    raise AssertionError("the capture built a DynInst")


@pytest.mark.parametrize("name", SUITE_ORDER)
def test_columnar_blob_matches_golden_and_replay_capture(name, monkeypatch):
    """The capture builds no ``DynInst``, and the replay view built on it holds
    the step-wise stream's fields, position by position."""
    wl = workload(name)
    budget = capture_budget(2000)
    with monkeypatch.context() as patched:
        for module in (emulator_module, encoding_module, capture_module):
            patched.setattr(module, "DynInst", _no_dyninst, raising=False)
        trace = capture_workload_trace(wl, budget)
        blob = trace.to_bytes()
        view = trace.replay_view()
    assert hashlib.sha256(blob).hexdigest() == GOLDEN_SHA256[name]
    expected = list(StepEmulator(wl.program, state=wl.make_state()).run(budget))
    assert view == ReplayView(
        array("i", [inst.pc for inst in expected]),
        bytearray(inst.taken for inst in expected),
        array("i", [inst.next_pc for inst in expected]),
        [inst.result for inst in expected],
        [inst.flags_result for inst in expected],
        [inst.addr for inst in expected],
    )


@pytest.mark.parametrize("name", SUITE_ORDER)
def test_step_wise_reference_blob_matches_golden(name):
    wl = workload(name)
    blob = reference_trace(wl.program, capture_budget(2000), wl.make_state()).to_bytes()
    assert hashlib.sha256(blob).hexdigest() == GOLDEN_SHA256[name]
