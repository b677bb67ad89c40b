"""The pipeline trace *stream* is pinned, not only the results traced runs produce.

``test_obs_determinism`` checks that tracing does not perturb a simulation, but
nothing else compares the emitted events: a dropped, extra or reordered
``wakeup``/``issue`` event would pass it.  These digests are the exact
``repro-obs trace`` exports (Perfetto JSON and Konata text, as CI writes them)
of two cells.  The references of ``tests/oracles.py`` must emit the same stream:
the step-wise reference trace exactly, and the scan issue queue up to its
``wakeup`` events, whose causes (``scan`` against ``wheel``/``store_release``)
and cycles differ — its Konata export, which carries no wake-ups, equals the
recorded digest, and its Perfetto events other than ``wakeup`` equal the
wake-up queue's.  A change that moves any event must say why and re-record the
digests::

    PYTHONPATH=src python -m repro.obs trace --config EOLE_4_64 --workload gcc \\
        --max-uops 4000 --warmup-uops 1000 --perfetto p.json --konata k.txt
    sha256sum p.json k.txt
"""

import hashlib
import json

import pytest

from repro.obs.cli import main
from repro.trace.cache import shared_trace_cache
from tests.oracles import use_oracles

MAX_UOPS, WARMUP_UOPS = 4000, 1000

#: (config, workload) -> (Perfetto sha256, Konata sha256).
GOLDEN = {
    ("EOLE_4_64", "gcc"): (
        "9f51833faf9c285f2b2847d3564b95b3fdf2304fb207394a4b214e68a50f1424",
        "1ba48ca140c64b8430b3f99e6a3c3fcdba9dff61895236f678f8c3155cbc4a67",
    ),
    ("Baseline_6_64", "mcf"): (
        "4caa83adda24e68f0ac7310a8bde9d1bbcd965883b83130554d7f1b005762716",
        "4aa20442f0ee9956ecb882b785dc05facee1733f873282c37c587c9ffca9eb5b",
    ),
}


@pytest.fixture(autouse=True)
def _clean_shared_cache():
    yield
    shared_trace_cache.clear()


def _sha256(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _events_but_wakeups(perfetto) -> list[dict]:
    events = json.loads(perfetto.read_text())["traceEvents"]
    return [event for event in events if event["name"] != "wakeup"]


@pytest.mark.parametrize("queue", ["wakeup", "scan"])
@pytest.mark.parametrize("config_name,workload_name", list(GOLDEN))
def test_trace_exports_match_the_recorded_stream(
    config_name, workload_name, queue, tmp_path, monkeypatch, capsys
):
    perfetto_sha, konata_sha = GOLDEN[(config_name, workload_name)]
    wakeup = _export(config_name, workload_name, tmp_path / "wakeup", capsys)
    assert (_sha256(wakeup[0]), _sha256(wakeup[1])) == (perfetto_sha, konata_sha)
    if queue == "scan":
        use_oracles(monkeypatch, queue=True)
        scan = _export(config_name, workload_name, tmp_path / "scan", capsys)
        assert _sha256(scan[1]) == konata_sha
        assert _events_but_wakeups(scan[0]) == _events_but_wakeups(wakeup[0])


def test_the_step_wise_reference_trace_exports_the_recorded_stream(
    tmp_path, monkeypatch, capsys
):
    """The cell replays the step-wise emulator's reference trace."""
    use_oracles(monkeypatch, trace=True)
    perfetto, konata = _export("EOLE_4_64", "gcc", tmp_path, capsys)
    assert (_sha256(perfetto), _sha256(konata)) == GOLDEN[("EOLE_4_64", "gcc")]


def _export(config_name, workload_name, directory, capsys):
    """Run ``repro-obs trace`` on one cell; return its Perfetto and Konata paths."""
    directory.mkdir(exist_ok=True)
    perfetto = directory / "trace.json"
    konata = directory / "trace.konata.txt"
    code = main(
        [
            "trace", "--config", config_name, "--workload", workload_name,
            "--max-uops", str(MAX_UOPS), "--warmup-uops", str(WARMUP_UOPS),
            "--perfetto", str(perfetto), "--konata", str(konata),
        ]
    )
    assert code == 0
    capsys.readouterr()
    return perfetto, konata
