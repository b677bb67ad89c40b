"""Tests for the TAGE conditional-branch predictor and its confidence estimation."""

import pytest

from repro.bpu.history import GlobalHistory, fold_bits
from repro.bpu.tage import TAGEBranchPredictor, _TageEntry
from repro.errors import ConfigurationError
from repro.vp.confidence import DeterministicRandom


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


def _rederive(predictor, prediction, rank):
    """Component ``rank``'s index and tag from a prediction's fold snapshot.

    A dormant register snapshots as ``None``; its fold comes from the raw bits.
    """
    index_mixes, tag_mixes, _ = predictor._pc_mixes(prediction.pc)
    length = predictor.history_lengths[rank]
    index_fold = prediction.folds[rank]
    if index_fold is None:
        index_fold = fold_bits(prediction.bits, length, predictor._index_width)
    tag_fold = prediction.folds[predictor.num_components + rank]
    if tag_fold is None:
        tag_fold = fold_bits(prediction.bits, length, predictor.tag_bits)
    return index_mixes[rank] ^ index_fold, tag_mixes[rank] ^ tag_fold


class TestHashReferences:
    def test_prediction_folds_rederive_the_reference_hashes(self):
        """Lookup and allocation hash pre-masked PC mixes with incremental fold
        registers (or, for a dormant register, the snapshot's raw bits);
        ``_tagged_index`` and ``_tagged_tag`` fold the whole history at once and
        are their reference."""
        predictor = _make()
        history = GlobalHistory()
        pattern = [True, True, False, True, False, False, True]
        _run_pattern(predictor, pattern, rounds=300, history=history)
        folds_seen = set()
        for pc in (0x400, 0x404, 0x1234):
            prediction = predictor.predict(pc, history)
            for rank in range(predictor.num_components):
                folds_seen.add(prediction.folds[rank] is None)
                index, tag = _rederive(predictor, prediction, rank)
                assert index == predictor._tagged_index(pc, history, rank)
                assert tag == predictor._tagged_tag(pc, history, rank)
            if prediction.provider >= 0:
                assert prediction.provider_index == predictor._tagged_index(
                    pc, history, prediction.provider
                )
        assert folds_seen == {True, False}  # live and dormant registers both checked


class _FullProbeTAGE(TAGEBranchPredictor):
    """Reference allocation: probes every longer-history component.

    Hashes with the reference ``_tagged_index``/``_tagged_tag`` over the
    lookup-time history, collects every candidate, and ages every probed entry
    when there is none.
    """

    def _allocate(self, taken, prediction):
        history = GlobalHistory()
        history.restore(prediction.bits)
        probed = []
        candidates = []
        for rank in range(prediction.provider + 1, self.num_components):
            index = self._tagged_index(prediction.pc, history, rank)
            entry = self._components[rank][index]
            probed.append(entry)
            if entry is None or entry.useful == 0:
                candidates.append((rank, index, entry))
        if not candidates:
            for entry in probed:
                if entry is not None:
                    entry.useful = max(0, entry.useful - 1)
            return
        choice, index, entry = candidates[0]
        if len(candidates) > 1 and self._random.chance_half():
            choice, index, entry = candidates[1]
        if entry is None:
            entry = self._components[choice][index] = _TageEntry()
            self._component_sizes[choice] += 1
            if self._component_sizes[choice] == 1:
                self._fold_registers.activate(choice)
                self._fold_registers.activate(self.num_components + choice)
                self._live = tuple(
                    (rank, self.num_components + rank, self._components[rank])
                    for rank in reversed(range(self.num_components))
                    if self._component_sizes[rank]
                )
        entry.tag = self._tagged_tag(prediction.pc, history, choice)
        entry.counter = 4 if taken else 3
        entry.useful = 0


def _tage_state(predictor):
    tables = [
        [None if entry is None else (entry.tag, entry.counter, entry.useful) for entry in component]
        for component in predictor._components
    ]
    return (
        tables,
        list(predictor._component_sizes),
        predictor._bimodal,
        predictor._random._state,
        predictor._use_alt_on_na,
        predictor.lookups,
        predictor.mispredictions,
        predictor.high_confidence_lookups,
        predictor.high_confidence_mispredictions,
    )


class TestAllocationProbe:
    def test_two_candidate_probe_matches_the_full_probe(self):
        """Stopping the allocation probe at the second candidate leaves the
        tables, the tie-break draws and the statistics equal to probing every
        longer-history component, over a seeded stream that also exercises the
        aging path (small tables, many branches)."""
        kwargs = dict(bimodal_entries=256, tagged_entries=16, num_components=8, tag_bits=6)
        fast = TAGEBranchPredictor(**kwargs)
        reference = _FullProbeTAGE(**kwargs)
        fast_history = GlobalHistory()
        reference_history = GlobalHistory()
        rng = DeterministicRandom(0x5EED)
        pcs = [0x400 + 4 * index for index in range(24)]
        aged = 0
        for step in range(1, 6001):
            draw = rng.next_u64()
            pc = pcs[draw % len(pcs)]
            # Biased per-branch outcomes with noise: some branches stay
            # predictable (useful entries pile up), others keep mispredicting.
            taken = (draw >> 8) % 7 < (pc >> 2) % 7 or (draw >> 16) % 11 == 0
            fast_prediction = fast.predict(pc, fast_history)
            reference_prediction = reference.predict(pc, reference_history)
            assert fast_prediction == reference_prediction
            if (
                fast_prediction.taken != taken
                and fast_prediction.provider < fast.num_components - 1
            ):
                history = GlobalHistory()
                history.restore(fast_prediction.bits)
                if all(
                    (entry := fast._components[rank][fast._tagged_index(pc, history, rank)])
                    is not None and entry.useful > 0
                    for rank in range(fast_prediction.provider + 1, fast.num_components)
                ):
                    aged += 1
            fast.update(pc, taken, fast_prediction)
            reference.update(pc, taken, reference_prediction)
            fast_history.push(taken)
            reference_history.push(taken)
            if step % 100 == 0:
                assert _tage_state(fast) == _tage_state(reference), step
        assert all(fast._component_sizes)
        assert aged > 0
