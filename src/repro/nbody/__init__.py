"""TreePM N-body substrate for the CDM component."""

from .. import lazy_exports

#: Public name -> the submodule that defines it, imported on first use.
_EXPORTS = {
    "direct_accel_minimum_image": "direct",
    "direct_accel_open": "direct",
    "ewald_accel": "direct",
    "scale_factor_steps": "integrator",
    "ParticleSet": "particles",
    "InteractionCounter": "phantom",
    "accel_batched": "phantom",
    "accel_scalar": "phantom",
    "shortrange_factor": "phantom",
    "PMSolver": "pm",
    "assign_mass": "pm",
    "interpolate_mesh": "pm",
    "BarnesHutTree": "tree",
    "LongRangePM": "treepm",
    "TreePMSolver": "treepm",
    "min_tree_mesh": "treepm",
    "pm_mesh_for_particles": "treepm",
}

__all__ = list(_EXPORTS)

__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
