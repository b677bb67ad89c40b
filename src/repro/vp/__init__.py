"""Value prediction: predictors, confidence estimation and the paper's hybrid.

Public entry points:

* :func:`repro.vp.hybrid.default_paper_predictor` — the VTAGE-2DStride hybrid with the
  paper's Table 2 sizing (what every EOLE experiment uses);
* the individual predictors (:mod:`repro.vp.last_value`, :mod:`repro.vp.stride`,
  :mod:`repro.vp.fcm`, :mod:`repro.vp.vtage`) for comparison studies;
* :class:`repro.vp.confidence.FPCPolicy` — the Forward Probabilistic Counter
  confidence mechanism that makes commit-time validation viable (predictors keep
  each counter's level as an ``int`` and draw its forward transitions from the
  policy).
"""
