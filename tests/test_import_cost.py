"""What an import loads: the default execution path never imports numpy, and a
module pulls in only the layers it uses.

Every campaign worker and benchmark child pays its imports once per process,
and numpy alone costs about a tenth of a second and a dozen MB of RSS.  The
entry points below are what a campaign, a fleet worker and a predictor study
load; none of them needs numpy.  Package ``__init__`` files re-export nothing,
so importing one module loads its own imports and not its whole package tree.
"""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

ENTRY_POINTS = (
    "repro.campaign.executor",
    "repro.campaign.coordinator",
    "repro.analysis.predictor_eval",
    "repro.pipeline.simulator",
)


def _loaded_after(*modules: str) -> set[str]:
    """Names in ``sys.modules`` after a fresh interpreter imports ``modules``."""
    script = "\n".join(
        [f"import {module}" for module in modules]
        + ["import sys", "print('\\n'.join(sys.modules))"]
    )
    completed = subprocess.run(
        [sys.executable, "-c", script],
        cwd=SRC,
        env=dict(os.environ, PYTHONPATH=str(SRC)),
        capture_output=True,
        text=True,
        check=True,
    )
    return set(completed.stdout.split())


def _within(module: str, packages: tuple[str, ...]) -> bool:
    return any(module == package or module.startswith(package + ".") for package in packages)


def test_default_entry_points_do_not_import_numpy():
    assert "numpy" not in _loaded_after(*ENTRY_POINTS)


def test_the_program_layer_loads_only_the_isa():
    loaded = {m for m in _loaded_after("repro.isa.program") if _within(m, ("repro",))}
    assert {m for m in loaded if not _within(m, ("repro.isa", "repro.errors"))} == {"repro"}


def test_the_predictor_study_loads_no_timing_model_or_campaign_layer():
    timing_and_campaign = (
        "repro.pipeline",
        "repro.ooo",
        "repro.mem",
        "repro.core",
        "repro.campaign",
        "repro.obs",
    )
    loaded = _loaded_after("repro.analysis.predictor_eval")
    assert "repro.analysis.predictor_eval" in loaded
    assert sorted(m for m in loaded if _within(m, timing_and_campaign)) == []
