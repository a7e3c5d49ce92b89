"""Initial-condition generators: Gaussian fields, Zel'dovich, neutrino f."""

from .gaussian_field import (
    FourierGrid,
    filter_field_fourier,
    gaussian_field_fourier,
    measure_power,
)
from .neutrino_ic import neutrino_distribution_function, sample_neutrino_particles
from .zeldovich import displacement_field, linear_velocity_field, zeldovich_particles

__all__ = [
    "FourierGrid",
    "filter_field_fourier",
    "gaussian_field_fourier",
    "measure_power",
    "neutrino_distribution_function",
    "sample_neutrino_particles",
    "displacement_field",
    "linear_velocity_field",
    "zeldovich_particles",
]
