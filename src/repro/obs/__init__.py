"""Observability layer: pipeline event tracing, unified metrics, campaign telemetry.

Three tiers, each zero-overhead when disabled (see ``docs/observability.md``):

* :mod:`repro.obs.tracer` — ``REPRO_PIPE_TRACE=1`` records per-µ-op lifecycle
  events into a bounded ring buffer, exportable as Chrome/Perfetto trace-event
  JSON and gem5-O3PipeView/Konata text;
* :mod:`repro.obs.metrics` — ``REPRO_METRICS=1`` collects registered counters and
  histograms and drains every statistics source into one flat namespace;
* :mod:`repro.obs.telemetry` — per-cell wall-clock / µops-per-second /
  trace-cache rows stored through the campaign's JSONL ResultStore.

The CLI lives in :mod:`repro.obs.cli` (``repro-obs`` / ``python -m repro.obs``);
it pulls in the campaign layer, so the tiers above do not import it.
"""
