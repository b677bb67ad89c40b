"""The two commit-side entry points train every predictor family identically.

The trace-level study trains through ``validate_and_train`` (one µ-op per call) and
the pipeline through ``train_commit_group`` (one commit group per call).  Each
family's ``lookup`` and ``train`` account inline, so the lookup records and the
statistics are pinned here for both entry points, against each other and against
the reference accounting of :class:`PredictorStatistics`, on a seeded stream
that keeps several instances of a static µ-op in flight, pushes branch outcomes
between lookups and squashes (``recover()``) while 2D-Stride chains are in
flight.
"""

import random

import pytest

from repro.bpu.history import GlobalHistory
from repro.pipeline.config import PREDICTOR_FACTORIES
from repro.vp.base import PredictorStatistics
from repro.vp.confidence import SCALED_FPC_VECTOR, DeterministicRandom, FPCPolicy

FAMILIES = ("vtage-2dstride", "vtage", "2dstride", "stride", "lvp", "fcm")
SEED = 0xE01E
UOPS = 4000


def _stream(seed: int):
    """``(branch outcomes, pc, value)`` per µ-op: strided, constant and noisy PCs."""
    rng = random.Random(seed)
    counters = {0x100: 0, 0x140: 0}
    events = []
    for _ in range(UOPS):
        outcomes = tuple(rng.random() < 0.6 for _ in range(rng.choice((0, 0, 1, 2))))
        pc = rng.choice((0x100, 0x140, 0x180, 0x1C0, 0x200))
        if pc in counters:  # strided: stride 8, and stride 3 with rare glitches
            counters[pc] += 8 if pc == 0x100 else (3 if rng.random() < 0.97 else 50)
            value = counters[pc]
        elif pc == 0x180:  # constant
            value = 77
        elif pc == 0x1C0:  # follows the last branch outcome
            value = 10 if outcomes and outcomes[-1] else 20
        else:  # noisy
            value = rng.randrange(1 << 64)
        events.append((outcomes, pc, value))
    return events


def _drive(family: str, mode: str):
    """Look up groups of 1–8 µ-ops ahead of training them, squashing now and then."""
    predictor = PREDICTOR_FACTORIES[family](SEED, SCALED_FPC_VECTOR)
    reference = PredictorStatistics()
    history = GlobalHistory()
    rng = random.Random(SEED)
    events = _stream(SEED)
    stride = getattr(predictor, "stride", predictor)
    seen = []
    squashed_chains = 0
    position = 0
    while position < len(events):
        group = []
        for outcomes, pc, value in events[position : position + rng.randint(1, 8)]:
            for taken in outcomes:
                history.push(taken)
            record = predictor.lookup(pc, history)
            reference.record_lookup(record)
            seen.append(record)
            group.append((pc, value, record))
        # A squash retires a prefix of the group and re-fetches the rest.
        squash = len(group) > 1 and rng.random() < 0.15
        if squash:
            group = group[: rng.randint(1, len(group) - 1)]
        for pc, value, record in group:
            reference.record_outcome(record, value)
        if mode == "validate_and_train":
            for pc, value, record in group:
                correct = record is None or not record[1] or record[0] == value
                assert predictor.validate_and_train(pc, value, record) is correct
        elif mode == "train_commit_group":
            predictor.train_commit_group(group)
        else:
            predictor.train_commit_group_columns(*zip(*group))
        if squash:
            squashed_chains += any(e.inflight for e in getattr(stride, "_spec_dirty", ()))
            predictor.recover()
        position += len(group)
    return predictor, seen, reference, squashed_chains


def _prng_states(predictor) -> list[int]:
    states = []
    parts = (predictor, getattr(predictor, "vtage", None), getattr(predictor, "stride", None))
    for part in filter(None, parts):
        for value in vars(part).values():
            if isinstance(value, FPCPolicy):
                states.append(value._random._state)
            elif isinstance(value, DeterministicRandom):
                states.append(value._state)
    return states


@pytest.mark.parametrize("mode", ["train_commit_group", "train_commit_group_columns"])
@pytest.mark.parametrize("family", FAMILIES)
def test_commit_group_training_matches_validate_and_train(family, mode):
    single, single_seen, single_reference, squashed_chains = _drive(
        family, "validate_and_train"
    )
    grouped, grouped_seen, grouped_reference, _ = _drive(family, mode)
    assert grouped_seen == single_seen
    assert grouped.stats == single.stats == single_reference == grouped_reference
    assert _prng_states(grouped) == _prng_states(single)
    # The stream exercises what it is meant to: confident predictions, squashes
    # that catch in-flight stride chains, and FPC draws.
    assert single.stats.confident_predictions > 0
    assert single.stats.incorrect_used + single.stats.unused_correct > 0
    if "stride" in family:
        assert squashed_chains > 0
    fresh = PREDICTOR_FACTORIES[family](SEED, SCALED_FPC_VECTOR)
    assert _prng_states(single) != _prng_states(fresh)
