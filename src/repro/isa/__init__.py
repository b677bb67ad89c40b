"""Reproduction ISA: µ-ops, programs, a builder DSL and an architectural emulator.

This package is the lowest layer of the EOLE reproduction.  Everything above it — value
predictors, the branch predictor, the out-of-order engine and the EOLE pipeline model —
operates on the µ-op classes and dynamic traces defined here.
"""
