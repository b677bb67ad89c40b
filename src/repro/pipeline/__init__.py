"""Cycle-level pipeline model: configurations, the simulator and its statistics."""
