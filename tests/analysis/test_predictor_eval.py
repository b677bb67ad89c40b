"""Tests for the offline (trace-level) predictor evaluation harness."""

import pytest

from repro.analysis.predictor_eval import evaluate_predictor
from repro.trace.capture import capture_workload_trace
from repro.vp.confidence import DETERMINISTIC_3BIT_VECTOR
from repro.vp.hybrid import VTAGE2DStrideHybrid
from repro.vp.last_value import LastValuePredictor
from repro.vp.stride import TwoDeltaStridePredictor
from repro.vp.vtage import VTAGEPredictor
from repro.workloads.suite import workload


def _small_hybrid():
    return VTAGE2DStrideHybrid(
        vtage=VTAGEPredictor(base_entries=1024, tagged_entries=128, num_components=4,
                             fpc_vector=DETERMINISTIC_3BIT_VECTOR),
        stride=TwoDeltaStridePredictor(entries=1024, fpc_vector=DETERMINISTIC_3BIT_VECTOR),
    )


class TestPredictorEvaluation:
    def test_evaluation_reports_counts_and_rates(self):
        evaluation = evaluate_predictor(_small_hybrid(), workload("bzip2"), max_uops=3000)
        assert evaluation.workload_name == "bzip2"
        assert evaluation.eligible_uops > 1000
        assert 0.0 < evaluation.coverage <= 1.0
        assert 0.9 < evaluation.accuracy <= 1.0
        assert evaluation.storage_kilobytes > 0

    def test_predictable_workload_has_higher_coverage_than_memory_bound_one(self):
        predictable = evaluate_predictor(_small_hybrid(), workload("bzip2"), max_uops=3000)
        hostile = evaluate_predictor(_small_hybrid(), workload("milc"), max_uops=3000)
        assert predictable.coverage > hostile.coverage

    def test_hybrid_beats_last_value_predictor_on_strided_code(self):
        hybrid = evaluate_predictor(_small_hybrid(), workload("bzip2"), max_uops=3000)
        lvp = evaluate_predictor(
            LastValuePredictor(entries=1024, fpc_vector=DETERMINISTIC_3BIT_VECTOR),
            workload("bzip2"),
            max_uops=3000,
        )
        assert hybrid.coverage > lvp.coverage

    def test_an_explicit_trace_too_short_for_the_budget_raises(self):
        wl = workload("bzip2")
        trace = capture_workload_trace(wl, 1000)
        assert not trace.halted
        with pytest.raises(ValueError, match="longer capture"):
            evaluate_predictor(_small_hybrid(), wl, max_uops=1001, trace=trace)
        evaluation = evaluate_predictor(_small_hybrid(), wl, max_uops=1000, trace=trace)
        assert evaluation.eligible_uops > 0
