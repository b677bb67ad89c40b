"""Value prediction: predictors, confidence estimation and the paper's hybrid.

Public entry points:

* :func:`repro.vp.hybrid.default_paper_predictor` — the VTAGE-2DStride hybrid with the
  paper's Table 2 sizing (what every EOLE experiment uses);
* the individual predictors (:class:`LastValuePredictor`, :class:`StridePredictor`,
  :class:`TwoDeltaStridePredictor`, :class:`FCMPredictor`, :class:`VTAGEPredictor`) for
  comparison studies;
* :class:`FPCPolicy` — the Forward Probabilistic Counter confidence mechanism that
  makes commit-time validation viable (predictors keep each counter's level as an
  ``int`` and draw its forward transitions from the policy).
"""

from repro.vp.base import PredictorStatistics, ValuePredictor, VPrediction
from repro.vp.confidence import (
    DETERMINISTIC_3BIT_VECTOR,
    FPCPolicy,
    PAPER_FPC_VECTOR,
)
from repro.vp.fcm import FCMPredictor
from repro.vp.hybrid import VTAGE2DStrideHybrid, default_paper_predictor
from repro.vp.last_value import LastValuePredictor
from repro.vp.stride import StridePredictor, TwoDeltaStridePredictor
from repro.vp.vtage import VTAGEPredictor, geometric_history_lengths

__all__ = [
    "DETERMINISTIC_3BIT_VECTOR",
    "FCMPredictor",
    "FPCPolicy",
    "LastValuePredictor",
    "PAPER_FPC_VECTOR",
    "PredictorStatistics",
    "StridePredictor",
    "TwoDeltaStridePredictor",
    "VPrediction",
    "VTAGE2DStrideHybrid",
    "VTAGEPredictor",
    "ValuePredictor",
    "default_paper_predictor",
    "geometric_history_lengths",
]
