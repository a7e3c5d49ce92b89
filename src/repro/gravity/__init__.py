"""Shared gravitational substrate: the periodic FFT Poisson solver."""

from .poisson import PeriodicPoissonSolver

__all__ = ["PeriodicPoissonSolver"]
