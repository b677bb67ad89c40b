"""The pipeline trace *stream* is pinned, not only the results traced runs produce.

``test_obs_determinism`` checks that tracing does not perturb a simulation, but
nothing else compares the emitted events: a dropped, extra or reordered
``wakeup``/``issue`` event would pass it.  These digests are the exact
``repro-obs trace`` exports (Perfetto JSON and Konata text, as CI writes them)
of two cells under both issue-queue flavours, and of one cell replaying the
step-wise reference trace (``REPRO_TRACE_CACHE=0``), which must emit the same
stream as the batched capture.  The flavours emit different
``wakeup`` causes (``scan`` against ``wheel``/``store_release``), so each has
its own pair.  A change that moves any event must say why and re-record them::

    PYTHONPATH=src python -m repro.obs trace --config EOLE_4_64 --workload gcc \\
        --max-uops 4000 --warmup-uops 1000 --perfetto p.json --konata k.txt
    sha256sum p.json k.txt    # again with REPRO_WAKEUP_LISTS=0
"""

import hashlib

import pytest

from repro.obs.cli import main
from repro.ooo.issue_queue import WAKEUP_ENV_VAR
from repro.trace.cache import TRACE_CACHE_ENV_VAR, shared_trace_cache

MAX_UOPS, WARMUP_UOPS = 4000, 1000

#: (config, workload, REPRO_WAKEUP_LISTS) -> (Perfetto sha256, Konata sha256).
GOLDEN = {
    ("EOLE_4_64", "gcc", "1"): (
        "9f51833faf9c285f2b2847d3564b95b3fdf2304fb207394a4b214e68a50f1424",
        "1ba48ca140c64b8430b3f99e6a3c3fcdba9dff61895236f678f8c3155cbc4a67",
    ),
    ("EOLE_4_64", "gcc", "0"): (
        "bd15a8f6ce45d040503153447e30b9b2975127b585dcdc63a781a3e9d545c0eb",
        "695c1564284580e41bc5ca9d56712b61535c15841085da9b3c9ef435823387d1",
    ),
    ("Baseline_6_64", "mcf", "1"): (
        "4caa83adda24e68f0ac7310a8bde9d1bbcd965883b83130554d7f1b005762716",
        "4aa20442f0ee9956ecb882b785dc05facee1733f873282c37c587c9ffca9eb5b",
    ),
    ("Baseline_6_64", "mcf", "0"): (
        "d610415622ff29f95105e88884f67497a51b6fbe686dc82f7f68a1011ed4c126",
        "6b0c6fb3f3c54c1a338e58b28d2fd69840d99c1874e0a7777b9f9749e383a732",
    ),
}


@pytest.fixture(autouse=True)
def _clean_shared_cache():
    yield
    shared_trace_cache.clear()


def _sha256(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.mark.parametrize(
    "config_name,workload_name,wakeup",
    list(GOLDEN),
    ids=[f"{c}-{w}-{'wakeup' if f == '1' else 'scan'}" for c, w, f in GOLDEN],
)
def test_trace_exports_match_the_recorded_stream(
    config_name, workload_name, wakeup, tmp_path, monkeypatch, capsys
):
    monkeypatch.setenv(WAKEUP_ENV_VAR, wakeup)
    assert _export_digests(config_name, workload_name, tmp_path, capsys) == GOLDEN[
        (config_name, workload_name, wakeup)
    ]


def test_the_step_wise_reference_trace_exports_the_recorded_stream(
    tmp_path, monkeypatch, capsys
):
    """``REPRO_TRACE_CACHE=0`` replays the step-wise emulator's reference trace."""
    monkeypatch.setenv(WAKEUP_ENV_VAR, "1")
    monkeypatch.setenv(TRACE_CACHE_ENV_VAR, "0")
    assert _export_digests("EOLE_4_64", "gcc", tmp_path, capsys) == GOLDEN[
        ("EOLE_4_64", "gcc", "1")
    ]


def _export_digests(config_name, workload_name, tmp_path, capsys) -> tuple[str, str]:
    perfetto = tmp_path / "trace.json"
    konata = tmp_path / "trace.konata.txt"
    code = main(
        [
            "trace", "--config", config_name, "--workload", workload_name,
            "--max-uops", str(MAX_UOPS), "--warmup-uops", str(WARMUP_UOPS),
            "--perfetto", str(perfetto), "--konata", str(konata),
        ]
    )
    assert code == 0
    capsys.readouterr()
    return _sha256(perfetto), _sha256(konata)
