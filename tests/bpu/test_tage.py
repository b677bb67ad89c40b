"""Tests for the TAGE conditional-branch predictor and its confidence estimation."""

import pytest

from repro.bpu.history import GlobalHistory, fold_bits
from repro.bpu.tage import TAGEBranchPredictor
from repro.errors import ConfigurationError


def _make(**kwargs):
    kwargs.setdefault("bimodal_entries", 1024)
    kwargs.setdefault("tagged_entries", 256)
    kwargs.setdefault("num_components", 6)
    return TAGEBranchPredictor(**kwargs)


def _run_pattern(predictor, pattern, pc=0x400, rounds=400, history=None):
    """Feed a repeating taken/not-taken pattern; returns late-phase accuracy."""
    history = history if history is not None else GlobalHistory()
    correct_late = 0
    total_late = 0
    for index in range(rounds):
        outcome = pattern[index % len(pattern)]
        prediction = predictor.predict(pc, history)
        if index >= rounds - 100:
            total_late += 1
            if prediction.taken == outcome:
                correct_late += 1
        predictor.update(pc, outcome, prediction)
        history.push(outcome)
    return correct_late / total_late


class TestPrediction:
    def test_invalid_sizes_rejected(self):
        with pytest.raises(ConfigurationError):
            TAGEBranchPredictor(bimodal_entries=1000)

    def test_always_taken_branch_learned(self):
        assert _run_pattern(_make(), [True]) == 1.0

    def test_always_not_taken_branch_learned(self):
        assert _run_pattern(_make(), [False]) == 1.0

    def test_short_periodic_pattern_learned_via_history(self):
        accuracy = _run_pattern(_make(), [True, True, False])
        assert accuracy > 0.95

    def test_longer_pattern_learned(self):
        pattern = [True] * 5 + [False] * 3
        assert _run_pattern(_make(), pattern, rounds=800) > 0.9

    def test_distinct_branches_tracked_independently(self):
        predictor = _make()
        history = GlobalHistory()
        for _ in range(200):
            p1 = predictor.predict(0x10, history)
            predictor.update(0x10, True, p1)
            history.push(True)
            p2 = predictor.predict(0x20, history)
            predictor.update(0x20, False, p2)
            history.push(False)
        assert predictor.predict(0x10, history).taken
        assert not predictor.predict(0x20, history).taken


class TestConfidence:
    def test_stable_branch_becomes_high_confidence(self):
        predictor = _make()
        history = GlobalHistory()
        for _ in range(200):
            prediction = predictor.predict(0x30, history)
            predictor.update(0x30, True, prediction)
            history.push(True)
        assert predictor.predict(0x30, history).high_confidence

    def test_high_confidence_mispredictions_are_rare(self):
        """Section 3.3: very-high-confidence branches mispredict well below 0.5%-ish."""
        predictor = _make()
        history = GlobalHistory()
        patterns = {0x10: [True], 0x20: [False], 0x30: [True, True, False, True]}
        for round_index in range(600):
            for pc, pattern in patterns.items():
                outcome = pattern[round_index % len(pattern)]
                prediction = predictor.predict(pc, history)
                predictor.update(pc, outcome, prediction)
                history.push(outcome)
        assert predictor.high_confidence_lookups > 0
        assert predictor.high_confidence_misprediction_rate < 0.02

    def test_random_branch_has_low_overall_accuracy_but_few_confident_predictions(self):
        from repro.vp.confidence import DeterministicRandom

        predictor = _make()
        history = GlobalHistory()
        rng = DeterministicRandom(0xDEAD)
        high_confidence = 0
        for _ in range(600):
            outcome = bool(rng.next_u64() & 1)
            prediction = predictor.predict(0x99, history)
            if prediction.high_confidence:
                high_confidence += 1
            predictor.update(0x99, outcome, prediction)
            history.push(outcome)
        assert high_confidence < 300

    def test_statistics_track_lookups_and_mispredictions(self):
        predictor = _make()
        _run_pattern(predictor, [True, False], rounds=200)
        assert predictor.lookups == 200
        assert 0 <= predictor.misprediction_rate <= 1

    def test_storage_accounting(self):
        assert _make().storage_bits() > 0


class TestHashReferences:
    def test_prediction_folds_rederive_the_reference_hashes(self):
        """Lookup and allocation hash from incremental fold registers (or, for a
        dormant register, from the snapshot's raw bits); ``_tagged_index`` and
        ``_tagged_tag`` fold the whole history at once and are their reference."""
        predictor = _make()
        history = GlobalHistory()
        pattern = [True, True, False, True, False, False, True]
        _run_pattern(predictor, pattern, rounds=300, history=history)
        folds_seen = set()
        for pc in (0x400, 0x404, 0x1234):
            prediction = predictor.predict(pc, history)
            index_mixes, _, _ = predictor._pc_mixes(pc)
            for rank in range(predictor.num_components):
                fold = prediction.folds[rank]
                folds_seen.add(fold is None)
                if fold is None:
                    fold = fold_bits(
                        prediction.bits, predictor.history_lengths[rank], predictor._index_width
                    )
                index = (index_mixes[rank] ^ fold) & predictor._tagged_mask
                assert index == predictor._tagged_index(pc, history, rank)
                tag = predictor._prediction_tag(prediction, rank)
                assert tag == predictor._tagged_tag(pc, history, rank)
            if prediction.provider >= 0:
                assert prediction.provider_index == predictor._tagged_index(
                    pc, history, prediction.provider
                )
        assert folds_seen == {True, False}  # live and dormant registers both checked
