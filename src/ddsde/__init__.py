"""Simulation and numerical verification for distribution-dependent SDEs."""

__version__ = "0.1.0"
