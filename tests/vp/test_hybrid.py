"""Tests for the VTAGE-2DStride hybrid predictor."""

from repro.bpu.history import GlobalHistory
from repro.vp.base import PredictorStatistics
from repro.vp.confidence import DETERMINISTIC_3BIT_VECTOR
from repro.vp.hybrid import VTAGE2DStrideHybrid, default_paper_predictor
from repro.vp.stride import TwoDeltaStridePredictor
from repro.vp.vtage import VTAGEPredictor

PC = 0x321


def _make() -> VTAGE2DStrideHybrid:
    return VTAGE2DStrideHybrid(
        vtage=VTAGEPredictor(
            base_entries=512,
            tagged_entries=128,
            num_components=4,
            fpc_vector=DETERMINISTIC_3BIT_VECTOR,
        ),
        stride=TwoDeltaStridePredictor(entries=256, fpc_vector=DETERMINISTIC_3BIT_VECTOR),
    )


class TestArbitration:
    def test_strided_values_fall_back_to_stride_component(self):
        predictor = _make()
        history = GlobalHistory()
        value = 0
        for _ in range(40):
            record = predictor.lookup(PC, history)
            predictor.train(PC, value, record)
            value += 9
        record = predictor.lookup(PC, history)
        assert record[1]
        assert record[0] == value
        # The arbitration winner is the 2D-Stride component: VTAGE is not confident.
        _, _, vtage_record, stride_record = record
        assert stride_record == (value, True) and not vtage_record[1]

    def test_constant_values_predicted_confidently(self):
        predictor = _make()
        history = GlobalHistory()
        for _ in range(20):
            predictor.train(PC, 1234, predictor.lookup(PC, history))
        record = predictor.lookup(PC, history)
        assert record[1] and record[0] == 1234

    def test_history_correlated_values_use_vtage(self):
        predictor = _make()
        history = GlobalHistory()
        patterns = [(True, 10), (False, 20)]
        for index in range(200):
            taken, value = patterns[index % 2]
            history.push(taken)
            predictor.train(PC, value, predictor.lookup(PC, history))
        taken, value = patterns[0]
        history.push(taken)
        record = predictor.lookup(PC, history)
        assert record[0] == value
        # The arbitration winner is a VTAGE tagged component.
        vtage_record = record[2]
        assert vtage_record[2] >= 0 and vtage_record[0] == value

    def test_cold_prediction_is_not_confident(self):
        record = _make().lookup(PC, GlobalHistory())
        assert record is not None
        assert not record[1]


class TestTrainingAndRecovery:
    def test_train_without_prediction_still_learns(self):
        predictor = _make()
        history = GlobalHistory()
        for _ in range(20):
            predictor.train(PC, 5, None)
        assert predictor.lookup(PC, history)[0] == 5

    def test_recover_delegates_to_stride_component(self):
        predictor = _make()
        history = GlobalHistory()
        for value in range(0, 200, 4):
            predictor.train(PC, value, predictor.lookup(PC, history))
        predictor.lookup(PC, history)
        predictor.lookup(PC, history)
        predictor.recover()
        assert predictor.lookup(PC, history)[0] == 200

    def test_storage_is_sum_of_components(self):
        predictor = _make()
        expected = predictor.vtage.storage_bits() + predictor.stride.storage_bits()
        assert predictor.storage_bits() == expected

    def test_validate_and_train_reports_correctness(self):
        predictor = _make()
        history = GlobalHistory()
        for _ in range(20):
            predictor.validate_and_train(PC, 42, predictor.lookup(PC, history))
        good = predictor.lookup(PC, history)
        assert predictor.validate_and_train(PC, 42, good) is True
        bad = predictor.lookup(PC, history)
        assert predictor.validate_and_train(PC, 43, bad) is False


class TestDefaults:
    def test_default_paper_predictor_uses_table2_sizing(self):
        predictor = default_paper_predictor()
        assert predictor.vtage.base_entries == 8192
        assert predictor.vtage.tagged_entries == 1024
        assert predictor.vtage.num_components == 6
        assert predictor.stride.entries == 8192
        assert predictor.stride.tag_bits == 51

    def test_statistics_object_present(self):
        assert isinstance(_make().stats, PredictorStatistics)

    def test_each_uop_is_accounted_once(self):
        predictor = _make()
        history = GlobalHistory()
        for _ in range(20):
            predictor.validate_and_train(PC, 7, predictor.lookup(PC, history))
        assert predictor.stats.lookups == 20
        assert predictor.stats.correct_used + predictor.stats.unused_correct == 19
        # The components' walks count nothing: the hybrid accounts for them.
        assert predictor.vtage.stats is None and predictor.stride.stats is None

    def test_prediction_statistics_accounting(self):
        stats = PredictorStatistics()
        confident = (5, True)
        unused = (7, False)
        stats.record_lookup(confident)
        stats.record_lookup(unused)
        stats.record_lookup(None)
        stats.record_outcome(confident, 5)
        stats.record_outcome(unused, 7)
        assert stats.lookups == 3
        assert stats.confident_predictions == 1
        assert stats.correct_used == 1
        assert stats.unused_correct == 1
        assert stats.coverage == 1 / 3
        assert stats.accuracy == 1.0
