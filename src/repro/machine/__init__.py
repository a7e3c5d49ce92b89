"""Fugaku machine model: A64FX constants, Tofu-D network, step cost model."""

from . import a64fx, tofu
from .costmodel import StepBreakdown, predict_io_time, predict_step

__all__ = ["a64fx", "tofu", "StepBreakdown", "predict_io_time", "predict_step"]
