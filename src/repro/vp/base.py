"""Value-predictor interface shared by all predictor implementations.

The timing pipeline interacts with a value predictor in exactly three places, mirroring
the paper's pipeline (Section 4.2):

* at **fetch**, :meth:`ValuePredictor.lookup` is consulted for every eligible µ-op and
  returns a *record*, a plain tuple ``(value, confident, ...)``, or ``None`` when the
  predictor has no opinion; the prediction is *used* (written to the PRF at dispatch,
  consumed by Early/Late Execution) only when ``confident`` is true;
* at **commit** (the LE/VT stage), :meth:`ValuePredictor.train` is called with the
  architectural result and the fetch-time record, regardless of whether the
  prediction was used;
* on a **pipeline squash**, :meth:`ValuePredictor.recover` discards any speculative
  predictor state (e.g. the speculative last-value chain of stride predictors).
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass

from repro.bpu.history import GlobalHistory


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

    @property
    def coverage(self) -> float:
        """Fraction of eligible µ-ops predicted with high confidence."""
        return self.confident_predictions / self.lookups if self.lookups else 0.0

    @property
    def accuracy(self) -> float:
        """Fraction of used (high-confidence) predictions that were correct."""
        used = self.correct_used + self.incorrect_used
        return self.correct_used / used if used else 1.0

    def record_lookup(self, record: tuple | None) -> None:
        """Account one fetch-time lookup (reference for the predictors' inline copies)."""
        self.lookups += 1
        if record is not None and record[1]:
            self.confident_predictions += 1

    def record_outcome(self, record: tuple | None, actual: int) -> None:
        """Account one commit-time validation (reference for the inline copies)."""
        if record is None:
            return
        if record[1]:
            if record[0] == actual:
                self.correct_used += 1
            else:
                self.incorrect_used += 1
        elif record[0] == actual:
            self.unused_correct += 1


class ValuePredictor(ABC):
    """Abstract base class of all value predictors.

    Each family walks its tables once per side: :meth:`lookup` at fetch returns
    the record that :meth:`train` at commit consumes, and each accounts its side
    inline in :attr:`stats`.  Every family binds ``validate_and_train`` to its
    ``train``, the name the trace-level study calls.  The
    :class:`PredictorStatistics` ``record_*`` methods are the reference of the
    inline accounting, which ``tests/vp/test_training_entry_points.py`` compares
    with it.  ``perfbench/spans.py`` wraps ``lookup``, ``validate_and_train``,
    ``train_commit_group``, ``train_commit_group_columns`` and ``recover`` per
    instance, so none of them calls another through ``self``.
    """

    name = "abstract"

    def __init__(self) -> None:
        #: ``None`` on the hybrid's components: the hybrid accounts for them.
        self.stats: PredictorStatistics | None = PredictorStatistics()

    # ------------------------------------------------------------------ interface
    @abstractmethod
    def lookup(self, pc: int, history: GlobalHistory) -> tuple | None:
        """Fetch-time walk for the µ-op at static ``pc``, accounted in :attr:`stats`.

        Returns the record ``(value, confident, ...)`` that :meth:`train` reads,
        or ``None`` when the predictor has no opinion at all (e.g. tag miss with
        no base component).  Only a ``confident`` value is used by the pipeline.
        """

    @abstractmethod
    def train(self, pc: int, actual: int, record: tuple | None) -> bool:
        """Commit-time walk with the architectural result ``actual``.

        Accounts the outcome of ``record`` in :attr:`stats`, trains the tables and
        returns True unless a confident prediction was wrong ("no squash needed").
        """

    def recover(self) -> None:
        """Discard speculative predictor state after a pipeline squash."""

    @abstractmethod
    def storage_bits(self) -> int:
        """Approximate storage budget of the predictor tables, in bits (Table 2)."""

    # ------------------------------------------------------------------ helpers
    def storage_kilobytes(self) -> float:
        """Storage budget in kilobytes, as reported in Table 2 of the paper."""
        return self.storage_bits() / 8 / 1024

    def train_commit_group(self, group: list[tuple[int, int, tuple | None]]) -> None:
        """Train one commit group of ``(pc, actual, record)`` in commit order.

        The pipeline validates correctness itself (a squash decision cannot wait
        for the whole group) and batches the table updates into one call per
        commit group; the per-item update order — and hence any deterministic
        PRNG draw sequence inside the tables — is exactly the per-µ-op order.
        """
        train = self.train
        for pc, actual, record in group:
            train(pc, actual, record)

    # Kept only because perfbench/spans.py wraps it by name.
    def train_commit_group_columns(self, pcs, actuals, records) -> None:
        type(self).train_commit_group(self, zip(pcs, actuals, records))
