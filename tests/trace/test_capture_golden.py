"""Capture golden: every suite workload's trace blob, pinned by its sha256.

The step-vs-batch tests compare two emulator loops with each other, so a change
to what both share (the flags helpers, the workload programs, the arch-state
set-up, the blob encoding) moves them together and passes.  These digests are of
the format-2 layout (pcs, next pcs, taken and the sparse result, flags and
address columns).  They were derived from the format-1 capture, before its
source, flags-in and store-value columns were dropped, by re-serialising each
format-1 trace with only the kept columns; the format-1 digests themselves were
recorded before the batched loop dispatched on pre-resolved arms and before
memory arrays were written in bulk or computed on read.  A change to them is a
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
    "gzip": "301a8bb5ca55e1b0bd56a85ac3eb8255edda1edb25ab909b3a9db9bf2fd05db6",
    "wupwise": "151e6c9cf67a1753575494b59bdc5109a8e907f8bb27dccf12cc0f7358314c2a",
    "applu": "66b052d54d341fbe99aa1231d9d1b24001a8fa482f0f745d84f56f06f50b82d0",
    "vpr": "3bd5c4387e819adedd718d96c20b2d9272a235c345e00c972d41be4da945b2ed",
    "art": "cead4282d00d3346cd0dfc93a341dc2049b1ecd5e49f955f4d181e9073991d65",
    "crafty": "2574f0ebbb84e1ea545f42bf84aae3e7e890da0d156e8da98239b60284927721",
    "parser": "7eedba244124b0a976eb1e5fe4db32b63d80f5c9e4536bfe0aafab1158141dae",
    "vortex": "3b4e490ea654d269c7d2fa96e5119d91c7288ac61a0c60fee38790ec2398a6ba",
    "bzip2": "33eef64d380690427a7636c3c0aed04990b2b64ba2e62eb0fff28431088b7ab5",
    "gcc": "e89b2f809457529127cda995ef8b6755a90aee9dc9cc2aafcc249909fc33e5b3",
    "gamess": "0f1c1125b431a5f6a4d21e4e30278b9ac94935f2a6ef9353ac4fb1f6ebba7bf0",
    "mcf": "df88a90ffc776b8f441f3022aa168a12839b76f96a12d9fb3c383b581d8f2dc6",
    "milc": "59b5836865665d7bd7474bb0984b65e0712c79e8fe1befbfe4210bb3125ee144",
    "namd": "8dd2d3ea577fff090b28cddd31d981b3f7279dbf72643e62fcafb2011fe9507a",
    "gobmk": "18abb897e50db365805210ec1775f3495684dd282b2128ef7a257d8e3b58292e",
    "hmmer": "3e795571568ead4e7f93523672714b508e8c8ea0d299bdadd2251b6e3eb67c46",
    "sjeng": "6d311d8ef293f4e845d5ae18e3e130fd4786fb33065a3d933205a97e189a8282",
    "h264ref": "ec1b684010ef987c45395322ce3e30689a9d9415f32fb71f874d902a308c8ecc",
    "lbm": "844837fa5e03730652dc15dffec9fbd4c6dc18e6b2963d6bc198e9da09893406",
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
