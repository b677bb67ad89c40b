"""Synthetic workloads: the 19 SPEC-analogue kernels."""
