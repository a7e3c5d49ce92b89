"""The paper's primary contribution: the 6-D phase-space Vlasov solver."""

from .advection import SCHEMES, advect
from .mesh import PhaseSpaceGrid
from .schemes import Mp5Rk3Advector
from .splitting import COMPOSITIONS, SplitStepper, lie_step, ruth_step, strang_step
from .vlasov import VlasovSolver
from .vlasov_poisson import GravitationalVlasovPoisson, PlasmaVlasovPoisson
from . import moments

__all__ = [
    "SCHEMES",
    "advect",
    "PhaseSpaceGrid",
    "Mp5Rk3Advector",
    "COMPOSITIONS",
    "SplitStepper",
    "lie_step",
    "ruth_step",
    "strang_step",
    "VlasovSolver",
    "GravitationalVlasovPoisson",
    "PlasmaVlasovPoisson",
    "moments",
]
