"""Value-predictor interface shared by all predictor implementations.

The timing pipeline interacts with a value predictor in exactly three places, mirroring
the paper's pipeline (Section 4.2):

* at **fetch**, :meth:`ValuePredictor.predict` is consulted for every eligible µ-op; the
  prediction is *used* (written to the PRF at dispatch, consumed by Early/Late
  Execution) only when the predictor reports high confidence;
* at **commit** (the LE/VT stage), :meth:`ValuePredictor.train` is called with the
  architectural result, regardless of whether the prediction was used;
* on a **pipeline squash**, :meth:`ValuePredictor.recover` discards any speculative
  predictor state (e.g. the speculative last-value chain of stride predictors).
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import Any

from repro.bpu.history import GlobalHistory


class VPrediction:
    """A value prediction returned by :meth:`ValuePredictor.predict`.

    Attributes
    ----------
    value:
        The predicted 64-bit result.
    confident:
        True when the confidence counter backing this prediction is saturated; only then
        does the pipeline actually use the prediction.
    source:
        Short identifier of the component that produced the prediction
        (``"vtage"``, ``"stride"``, ...), used for statistics and debugging.
    meta:
        Opaque component-specific data (table indices, tags, speculative values)
        carried from :meth:`predict` to :meth:`train` so that training does not need to
        recompute fetch-time state.
    """

    __slots__ = ("value", "confident", "source", "meta")

    def __init__(self, value: int, confident: bool, source: str, meta: Any = None) -> None:
        self.value = value
        self.confident = confident
        self.source = source
        self.meta = meta

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"VPrediction(value={self.value}, confident={self.confident}, source={self.source})"


@dataclass(slots=True)
class PredictorStatistics:
    """Coverage / accuracy accounting for a value predictor.

    ``coverage`` is the fraction of eligible µ-ops for which a high-confidence
    prediction was supplied; ``accuracy`` is the fraction of *used* predictions that
    were correct — the quantity FPC keeps extremely close to 1.
    """

    lookups: int = 0
    confident_predictions: int = 0
    correct_used: int = 0
    incorrect_used: int = 0
    unused_correct: int = 0
    per_source: dict[str, int] = field(default_factory=dict)

    @property
    def coverage(self) -> float:
        """Fraction of eligible µ-ops predicted with high confidence."""
        return self.confident_predictions / self.lookups if self.lookups else 0.0

    @property
    def accuracy(self) -> float:
        """Fraction of used (high-confidence) predictions that were correct."""
        used = self.correct_used + self.incorrect_used
        return self.correct_used / used if used else 1.0

    def record_lookup(self, prediction: VPrediction | None) -> None:
        """Account one fetch-time lookup."""
        self.lookups += 1
        if prediction is not None and prediction.confident:
            self.confident_predictions += 1
            self.per_source[prediction.source] = self.per_source.get(prediction.source, 0) + 1

    def record_outcome(self, prediction: VPrediction | None, actual: int) -> None:
        """Account one commit-time validation."""
        if prediction is None:
            return
        if prediction.confident:
            if prediction.value == actual:
                self.correct_used += 1
            else:
                self.incorrect_used += 1
        elif prediction.value == actual:
            self.unused_correct += 1


class ValuePredictor(ABC):
    """Abstract base class of all value predictors."""

    name = "abstract"

    def __init__(self) -> None:
        self.stats = PredictorStatistics()

    # ------------------------------------------------------------------ interface
    @abstractmethod
    def predict(self, pc: int, history: GlobalHistory) -> VPrediction | None:
        """Fetch-time lookup for the µ-op at static ``pc``.

        Returns ``None`` when the predictor has no opinion at all (e.g. tag miss with no
        base component).  The returned prediction's ``confident`` flag decides whether
        the pipeline uses the value.
        """

    @abstractmethod
    def train(self, pc: int, actual: int, prediction: VPrediction | None) -> None:
        """Commit-time update with the architectural result ``actual``."""

    def recover(self) -> None:
        """Discard speculative predictor state after a pipeline squash."""

    @abstractmethod
    def storage_bits(self) -> int:
        """Approximate storage budget of the predictor tables, in bits (Table 2)."""

    # ------------------------------------------------------------------ helpers
    def storage_kilobytes(self) -> float:
        """Storage budget in kilobytes, as reported in Table 2 of the paper."""
        return self.storage_bits() / 8 / 1024

    def lookup(self, pc: int, history: GlobalHistory) -> VPrediction | None:
        """Predict and record statistics in one call (what the pipeline uses)."""
        prediction = self.predict(pc, history)
        self.stats.record_lookup(prediction)
        return prediction

    def validate_and_train(
        self, pc: int, actual: int, prediction: VPrediction | None
    ) -> bool:
        """Record the outcome, train the tables, and return prediction correctness.

        Returns True when either no confident prediction was used or the used
        prediction matches ``actual`` (i.e. "no squash needed").
        """
        self.stats.record_outcome(prediction, actual)
        self.train(pc, actual, prediction)
        if prediction is None or not prediction.confident:
            return True
        return prediction.value == actual

    def train_commit_group(
        self, group: list[tuple[int, int, "VPrediction | None"]]
    ) -> None:
        """Outcome-record and train one commit group of ``(pc, actual, prediction)``.

        The pipeline validates correctness itself (a squash decision cannot wait
        for the whole group) and batches the table updates into one call per
        commit group; the per-item update order — and hence any deterministic
        PRNG draw sequence inside the tables — is exactly the per-µ-op order.
        Subclasses may override to amortise their per-call overhead.
        """
        record_outcome = self.stats.record_outcome
        train = self.train
        for pc, actual, prediction in group:
            record_outcome(prediction, actual)
            train(pc, actual, prediction)

    # Kept only because perfbench/spans.py wraps it by name.
    def train_commit_group_columns(self, pcs, actuals, predictions) -> None:
        self.train_commit_group(zip(pcs, actuals, predictions))
