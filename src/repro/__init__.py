"""repro — hybrid 6-D Vlasov / N-body cosmological simulation library.

A from-scratch Python reproduction of the system described in
Yoshikawa, Tanaka & Yoshida, "A 400 Trillion-Grid Vlasov Simulation on
Fugaku Supercomputer" (SC '21): the SL-MPP5 six-dimensional Vlasov solver
for cosmic relic neutrinos, the TreePM N-body solver for cold dark matter,
their self-consistent hybrid coupling, and the performance machinery
(SIMD/LAT kernels, domain decomposition, Fugaku machine model) that the
paper's evaluation section measures.

Quick start::

    from repro.core import PhaseSpaceGrid, PlasmaVlasovPoisson
    grid = PhaseSpaceGrid(nx=(64,), nu=(128,), box_size=4*3.14159, v_max=6.0)
    vp = PlasmaVlasovPoisson(grid)
    ...

See README.md and the examples/ directory.
"""

__version__ = "1.0.0"

import sys
from importlib import import_module

from . import constants, units

__all__ = ["constants", "units", "lazy_exports", "__version__"]


def lazy_exports(package: str, exports: dict[str, str]):
    """``(__getattr__, __dir__)`` for a package that imports nothing of
    its own (PEP 562): each public name in ``exports`` maps to the
    submodule of ``package`` that defines it, imported on first use, so
    a run loads only the modules its names reach."""

    def __getattr__(name: str):
        try:
            module = exports[name]
        except KeyError:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}") from None
        value = getattr(import_module(f"{package}.{module}"), name)
        setattr(sys.modules[package], name, value)
        return value

    def __dir__() -> list[str]:
        return sorted({*vars(sys.modules[package]), *exports})

    return __getattr__, __dir__
