"""Analysis: moments, spectra, shot noise, Vlasov-vs-N-body comparisons."""

from ..core.moments import (
    density,
    kinetic_energy,
    l2_norm,
    mean_velocity,
    momentum,
    total_mass,
    velocity_dispersion,
)
from ..ic.gaussian_field import measure_power
from .compare import (
    NoiseComparison,
    compare_noise,
    local_velocity_distribution,
    particle_moments_on_grid,
    particle_velocity_histogram,
    vlasov_moments_on_grid,
)
from .halos import (
    Halo,
    condensation_report,
    fof_halos,
    halo_neutrino_overdensity,
)
from .spectra import (
    joint_power,
    cross_power,
    transfer_ratio,
)
from .shotnoise import (
    effective_resolution,
    expected_density_rms,
    power_spectrum_shot_noise,
    smoothing_particles_for_sn,
    sn_at_resolution,
)

__all__ = [
    "density",
    "kinetic_energy",
    "l2_norm",
    "mean_velocity",
    "momentum",
    "total_mass",
    "velocity_dispersion",
    "measure_power",
    "NoiseComparison",
    "compare_noise",
    "local_velocity_distribution",
    "particle_moments_on_grid",
    "particle_velocity_histogram",
    "vlasov_moments_on_grid",
    "Halo",
    "condensation_report",
    "fof_halos",
    "halo_neutrino_overdensity",
    "joint_power",
    "cross_power",
    "transfer_ratio",
    "effective_resolution",
    "expected_density_rms",
    "power_spectrum_shot_noise",
    "smoothing_particles_for_sn",
    "sn_at_resolution",
]
