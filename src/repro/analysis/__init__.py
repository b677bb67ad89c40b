"""Experiment harness: runners, metrics, per-figure experiments and report formatting."""
