"""The paper's primary contribution: the 6-D phase-space Vlasov solver."""

from .. import lazy_exports

#: Public name -> the submodule that defines it, imported on first use.
_EXPORTS = {
    "SCHEMES": "advection",
    "advect": "advection",
    "PhaseSpaceGrid": "mesh",
    "Mp5Rk3Advector": "schemes",
    "VlasovSolver": "vlasov",
    "GravitationalVlasovPoisson": "vlasov_poisson",
    "PlasmaVlasovPoisson": "vlasov_poisson",
}

__all__ = [*_EXPORTS, "moments"]

__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
