"""The scale-factor schedule of the hybrid's comoving leapfrog.

The particle kick and drift themselves live in
:class:`repro.core.hybrid.HybridSimulation`, which advances the CDM with
the Vlasov component through one shared time step.
"""

from __future__ import annotations

import numpy as np


def scale_factor_steps(a_start: float, a_end: float, n_steps: int, spacing: str = "log") -> np.ndarray:
    """A monotone schedule of scale factors from a_start to a_end.

    ``log`` spacing (uniform in ln a) is the cosmological default — it
    resolves the fast early dynamics; ``linear`` is uniform in a.
    """
    if not 0.0 < a_start < a_end:
        raise ValueError("need 0 < a_start < a_end")
    if n_steps < 1:
        raise ValueError("need at least one step")
    if spacing == "log":
        return np.exp(np.linspace(np.log(a_start), np.log(a_end), n_steps + 1))
    if spacing == "linear":
        return np.linspace(a_start, a_end, n_steps + 1)
    raise ValueError("spacing must be 'log' or 'linear'")
