"""Capture golden: every suite workload's trace blob, pinned by its sha256.

The step-vs-batch tests compare two emulator loops with each other, so a change
to what both share (the flags helpers, the workload programs, the arch-state
set-up, the blob encoding) moves them together and passes.  These digests were
recorded before the batched loop dispatched on pre-resolved arms and before
memory arrays were written in bulk or computed on read; a change to them is a
change to every trace.  A columnar capture (the emulator writing the columns, no
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
    "gzip": "8cfb037c64476092e16f393fac7ad1a707008a83046e12729dae8e2cd6f8a908",
    "wupwise": "ad07abd9c7ceaec3728b72aa8e80814c19362b05280e7a56433cad573f843f2b",
    "applu": "48d227394401941f310198ad9b21c7e9e738dbab29eeeed05dda13e2a3d122de",
    "vpr": "7d6f26d0f417566e99d8611888ad99938d4519bb174b48f2b0abe54cfe3468bb",
    "art": "1dc3c4e1052e0344be2b8934f61cb03f9c0f30b1d89ca0f636ac24b95a440f9a",
    "crafty": "558df125d779dff55e7e5c408c2a31b6f0f2cc541eaa0335359975abf9073d28",
    "parser": "31cd87f4c57103b696d8cf7a7c1b94c1cbd6fff1a4794cf2d74dce00f9f7e575",
    "vortex": "1db6cc163edfa079b1083cce8f99c6222938aa65f0013f4bda63f41932f3babe",
    "bzip2": "b4621204400c5fab5d156b70acf3588986b3ffcc7bb8a144218f5c25b57810d4",
    "gcc": "999790866949b3b08029e344b2c50647ba8ad78aaccb9c2dd13911dddd33fce2",
    "gamess": "e2ab9736aa306b0570527cfe7a43cd41979ac0c39052d2816941c4faf70aff0c",
    "mcf": "36118721f9f23a8164805e04dd1883ab7796386d908c2814e03d7f354ff96767",
    "milc": "d472d05509c7592492b55bfcd511f2afd747fc366e74768d9f7ef76146fe977c",
    "namd": "dac405940142aa229dcff9eb3a5cfa90799b71796309e532485348248c0673a9",
    "gobmk": "0bff1f4552ea13e7e0bda74c8da75e9d62381ae7742b301ccfbc7f1b1366c0d0",
    "hmmer": "968d5fe520da9d848cb3ea2340774826dba075ed6edad5f6928736a1aafe9f27",
    "sjeng": "c26615aeb86289402534a7ca190085ab2c03ba706430a89e6c0707786c5c4575",
    "h264ref": "06c27afaafd1478d9a3e00ade726a868293c70bf4a90348f992279a618551fab",
    "lbm": "e37dbce5dacffff28551becabfc4c8559bd59bd5a17a472badcddcdefaa020ed",
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
