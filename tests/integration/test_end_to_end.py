"""End-to-end checks of the paper's headline claims on a small workload subset.

These are the "does the reproduction tell the paper's story" tests: value prediction
helps and never badly hurts, EOLE offloads a large µ-op share, and EOLE_4_64 stays close
to Baseline_VP_6_64 while Baseline_VP_4_64 does not always do so.
"""

import pytest

from repro.analysis.metrics import geometric_mean
from repro.analysis.runner import run_suite
from repro.pipeline.config import (
    baseline_6_64,
    baseline_vp_4_64,
    baseline_vp_6_64,
    eole_4_64,
    eole_4_64_4ports_4banks,
)
from repro.workloads.suite import workload

UOPS = 12000
WARMUP = 4000


@pytest.fixture(scope="module")
def results():
    """Simulate a contrasting subset on the main configurations once for all tests."""
    subset = [workload(name) for name in ("wupwise", "bzip2", "crafty", "hmmer", "gcc")]
    configs = {
        "base": baseline_6_64(),
        "vp6": baseline_vp_6_64(),
        "vp4": baseline_vp_4_64(),
        "eole4": eole_4_64(),
        "eole4_banked": eole_4_64_4ports_4banks(),
    }
    return {
        key: run_suite(config, subset, UOPS, WARMUP) for key, config in configs.items()
    }


def _speedups(results, over, under):
    return {
        name: results[over][name].ipc / results[under][name].ipc for name in results[over]
    }


class TestPaperHeadlines:
    def test_value_prediction_never_hurts_and_helps_predictable_codes(self, results):
        speedups = _speedups(results, "vp6", "base")
        assert all(value > 0.95 for value in speedups.values())
        assert speedups["wupwise"] > 1.1
        assert speedups["bzip2"] > 1.1

    def test_eole_4_stays_close_to_vp_6(self, results):
        ratios = _speedups(results, "eole4", "vp6")
        assert geometric_mean(ratios.values()) > 0.95
        assert all(value > 0.9 for value in ratios.values())

    def test_eole_4_beats_or_matches_vp_4(self, results):
        eole = _speedups(results, "eole4", "vp6")
        vp4 = _speedups(results, "vp4", "vp6")
        assert geometric_mean(eole.values()) >= geometric_mean(vp4.values()) - 1e-9

    def test_offload_share_in_paper_band(self, results):
        """Section 3.4: 10% to 60% of retired instructions bypass the OoO engine."""
        offloads = [run.stats.offload_ratio for run in results["eole4"].values()]
        assert all(0.05 < value < 0.8 for value in offloads)
        assert max(offloads) > 0.3

    def test_banked_port_limited_eole_close_to_ideal_eole(self, results):
        ratios = {
            name: results["eole4_banked"][name].ipc / results["eole4"][name].ipc
            for name in results["eole4"]
        }
        assert geometric_mean(ratios.values()) > 0.95

    def test_value_misprediction_rate_is_negligible(self, results):
        for run in results["vp6"].values():
            used = run.full_stats.predictions_used
            if used:
                assert run.full_stats.value_mispredictions / used < 0.02

    def test_memory_bound_workload_is_insensitive_to_everything(self):
        from repro.analysis.runner import run_workload
        from repro.campaign.store import ResultStore

        mcf = workload("mcf")
        base = run_workload(baseline_6_64(), mcf, 2500, 500, store=ResultStore(None))
        eole = run_workload(eole_4_64(), mcf, 2500, 500, store=ResultStore(None))
        assert base.ipc < 0.6
        assert abs(eole.ipc - base.ipc) / base.ipc < 0.1
