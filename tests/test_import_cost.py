"""The default execution path never imports numpy.

Every campaign worker and benchmark child pays its imports once per process,
and numpy alone costs about a tenth of a second and a dozen MB of RSS.  The
entry points below are what a campaign, a fleet worker and a predictor study
load; none of them needs numpy.
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


def test_default_entry_points_do_not_import_numpy():
    script = "\n".join(
        [f"import {module}" for module in ENTRY_POINTS]
        + ["import sys", "print('numpy' in sys.modules)"]
    )
    completed = subprocess.run(
        [sys.executable, "-c", script],
        cwd=SRC,
        env=dict(os.environ, PYTHONPATH=str(SRC)),
        capture_output=True,
        text=True,
        check=True,
    )
    assert completed.stdout.strip() == "False"
