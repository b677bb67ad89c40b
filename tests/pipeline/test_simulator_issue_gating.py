"""The event-gated issue scan must be invisible: results identical to scanning
every cycle, for any dispatch-to-issue latency.

Regression guard for the wake-loss bug where a no-op scan discarded the known
maturity deadline of entries still inside ``dispatch_to_issue_latency`` (>= 2),
delaying their issue to the next unrelated pipeline event.
"""

import pytest

from repro.pipeline.config import named_config
from repro.pipeline.simulator import Simulator
from repro.workloads.suite import workload
from tests.conftest import replay_trace

MAX_UOPS, WARMUP = 1500, 300


class _UngatedSimulator(Simulator):
    """Reference: force the IQ scan on every cycle (the pre-gating behaviour)."""

    def _issue(self):
        self._iq_scan_from = self.cycle
        super()._issue()


def _run(simulator_cls, config, wl):
    trace = replay_trace(config, wl.program, MAX_UOPS, wl.make_state())
    return simulator_cls(config, trace, MAX_UOPS, WARMUP).run()


@pytest.mark.parametrize("dispatch_to_issue_latency", [1, 2, 3, 5])
@pytest.mark.parametrize("workload_name", ["gcc", "mcf", "hmmer"])
def test_gated_scan_matches_every_cycle_scan(dispatch_to_issue_latency, workload_name):
    config = named_config("Baseline_VP_6_64").derive(
        dispatch_to_issue_latency=dispatch_to_issue_latency
    )
    wl = workload(workload_name)
    gated = _run(Simulator, config, wl)
    ungated = _run(_UngatedSimulator, config, wl)
    assert gated.to_dict() == ungated.to_dict()


@pytest.mark.parametrize("config_name", ["Baseline_6_64", "EOLE_4_64"])
def test_gated_scan_matches_on_named_configs(config_name):
    wl = workload("gcc")
    config = named_config(config_name)
    assert _run(Simulator, config, wl).to_dict() == _run(
        _UngatedSimulator, config, wl
    ).to_dict()
