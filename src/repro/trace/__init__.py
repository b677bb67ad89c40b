"""Trace capture/replay subsystem.

Captures a workload's committed µ-op stream once per (workload, budget) into a compact
columnar encoding, caches it in process (and optionally on disk), and replays it into
any number of timing-model configurations — see docs/performance.md.
"""
