"""The always-on analysis tier.

Production runs used to write checkpoints that nothing ever read; the
paper's actual product is the *derived* surface — density maps, velocity
moments, power/cross/transfer spectra (Figs. 4-6).  This package turns
the run directory into that product surface:
:class:`DiagnosticsPipeline` is a background worker that computes and
stores moment fields + binned spectra at the runner's snapshot cadence,
off the step critical path (:mod:`repro.serve.pipeline`).  The stored
products are read back with :func:`read_products` and
:func:`repro.io.snapshot.read_snapshot_field` (see ``docs/SERVING.md``).
"""

from .pipeline import PRODUCTS_NAME, DiagnosticsPipeline, read_products

__all__ = [
    "DiagnosticsPipeline",
    "PRODUCTS_NAME",
    "read_products",
]
