"""The quickstart in the package docstring runs as written."""

import textwrap

import repro
from repro.trace.cache import shared_trace_cache


def test_the_package_quickstart_runs(capsys):
    code = textwrap.dedent(repro.__doc__.split("Quickstart::\n", 1)[1])
    try:
        exec(compile(code, "repro quickstart", "exec"), {})
    finally:
        shared_trace_cache.clear()
    base_ipc, eole_ipc, speedup = map(float, capsys.readouterr().out.split())
    assert base_ipc > 0 and eole_ipc > 0
    assert speedup == eole_ipc / base_ipc
