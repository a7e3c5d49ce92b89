"""Incremental diagnostics, on the step thread.

The runner submits ``(step, coord, f, particles)`` at its snapshot
cadence, and the submit stores the whole product before it returns: it
reduces f to the stored moment fields
(:meth:`DiagnosticsPipeline._moment_fields`, the one place the stored
set is decided; the moments read f block by block, so no copy of f is
made), writes them as one checksummed ``.npz`` snapshot
(:func:`repro.io.snapshot.write_snapshot`), runs the spectral
estimators from :mod:`repro.analysis`, and appends one JSON line per
snapshot to ``products.jsonl``.  The runner times the call as its
``diagnostics_submit`` section, so the product's cost, I/O included,
lands in the step's wall-clock decomposition (the end-to-end benchmark
reports it as ``serve.pipeline.submit_s``).

Events go through the context's sink,
:func:`repro.runtime.telemetry.emit_event` (the runner installs its
telemetry stream there): ``diagnostics_written`` /
``diagnostics_error`` / ``diagnostics_closed``.
"""

from __future__ import annotations

import copy
import json
import time
from pathlib import Path
from typing import Iterator

import numpy as np

from ..analysis.spectra import cross_power, joint_power
from ..core import moments
from ..core.mesh import PhaseSpaceGrid
from ..io.snapshot import IOTimer, write_snapshot
from ..nbody.particles import ParticleSet
from ..runtime.telemetry import emit_event, iter_records

__all__ = ["DiagnosticsPipeline", "PRODUCTS_NAME", "read_products", "snapshot_name"]

#: Per-snapshot product records, one JSON object per line.
PRODUCTS_NAME = "products.jsonl"


def snapshot_name(step: int) -> str:
    """Canonical snapshot file name for a schedule position."""
    return f"snap_{step:08d}.npz"


def _overdensity(rho: np.ndarray) -> np.ndarray:
    """delta = rho / <rho> - 1 in float64 (the spectra's input)."""
    rho = np.asarray(rho, dtype=np.float64)
    mean = rho.mean()
    if mean == 0.0:
        return rho
    return rho / mean - 1.0


class DiagnosticsPipeline:
    """Turns run states into stored products, one per :meth:`submit`.

    Parameters
    ----------
    out_dir:
        Directory the snapshots and ``products.jsonl`` live under;
        created on first use.
    grid:
        The run's phase-space grid (moment kernels need the geometry).
    n_bins:
        Spectral binning resolution of the stored spectra.
    """

    def __init__(
        self, out_dir: str | Path, grid: PhaseSpaceGrid, n_bins: int = 16
    ) -> None:
        self.out_dir = Path(out_dir)
        self.grid = grid
        self.n_bins = int(n_bins)
        self.io_timer = IOTimer()
        self._closed = False
        self.submitted = 0
        self.written = 0
        self.errors = 0

    def submit(
        self,
        step: int,
        coord: dict[str, float],
        f: np.ndarray,
        particles: ParticleSet | None = None,
        velocity_shift: np.ndarray | None = None,
        particle_velocity_shift: np.ndarray | None = None,
    ) -> None:
        """Store the product of one run state before returning.

        Nothing of ``f`` or of the particle arrays is held past the
        call.  ``velocity_shift`` (on the mesh) and
        ``particle_velocity_shift`` are a pending half kick's: they are
        added to the stored ``velocity`` moment and particle velocities
        (in a new array; the caller's are not touched).  The density is
        exact without it, and the dispersion does not change under a
        per-cell shift.  A failed product is counted and reported as
        ``diagnostics_error``; the run goes on.
        """
        if self._closed:
            raise RuntimeError("pipeline is closed")
        step = int(step)
        self.submitted += 1
        try:
            self._process(step, {k: float(v) for k, v in coord.items()}, f,
                          particles, velocity_shift, particle_velocity_shift)
        except Exception as exc:  # noqa: BLE001 - report, keep stepping
            self.errors += 1
            emit_event("diagnostics_error", step=step,
                       error=f"{type(exc).__name__}: {exc}")

    def close(self) -> None:
        """Refuse later submits and emit the run-level summary event."""
        if self._closed:
            return
        self._closed = True
        emit_event("diagnostics_closed", **self.stats())

    def stats(self) -> dict:
        """Counters for telemetry and tests."""
        return {
            "submitted": self.submitted,
            "written": self.written,
            "errors": self.errors,
            "io_write_seconds": self.io_timer.write_seconds,
            "io_bytes_written": self.io_timer.bytes_written,
        }

    def __enter__(self) -> "DiagnosticsPipeline":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def _moment_fields(
        self, f: np.ndarray, particles: ParticleSet | None,
        velocity_shift: np.ndarray | None,
    ) -> dict[str, np.ndarray]:
        """The stored field set: Vlasov density, velocity (corrected for
        the pending kick) and dispersion, plus the CDM density mesh of a
        hybrid run.  Never f itself."""
        rho = moments.density(f, self.grid)
        vbar = moments.mean_velocity(f, self.grid, rho)
        dispersion = moments.velocity_dispersion(f, self.grid, rho, vbar)
        if velocity_shift is not None:
            vbar = vbar + np.where(rho > 0.0, velocity_shift, 0.0)
        fields = {
            "density": rho.astype(np.float32),
            "velocity": vbar.astype(np.float32),
            "dispersion": dispersion.astype(np.float32),
        }
        if particles is not None:
            from ..nbody.pm import assign_mass

            fields["cdm_density"] = assign_mass(
                particles.positions, particles.masses, self.grid.nx,
                self.grid.box_size, "cic",
            ).astype(np.float32)
        return fields

    def _spectra(self, fields: dict[str, np.ndarray]) -> dict:
        """Binned auto/cross/transfer spectra of the moment fields: each
        overdensity is transformed once, every spectrum binned on one
        edge set, and the ratios are taken from those bins."""
        box = self.grid.box_size
        delta_nu = _overdensity(fields["density"])
        if "cdm_density" not in fields:
            k, p_nu, counts = cross_power(delta_nu, delta_nu, box, self.n_bins)
            out = {"k": k, "p_density": p_nu, "mode_counts": counts}
        else:
            k, p_nu, p_c, p_x, counts = joint_power(
                delta_nu, _overdensity(fields["cdm_density"]), box, self.n_bins)
            with np.errstate(divide="ignore", invalid="ignore"):
                out = {"k": k, "p_density": p_nu, "mode_counts": counts,
                       "p_cdm": p_c, "p_cross": p_x, "k_ratio": k,
                       "correlation": p_x / np.sqrt(np.abs(p_nu * p_c)),
                       "transfer_nu_cdm": np.sqrt(np.abs(p_nu) / np.abs(p_c))}
        return {name: value.tolist() for name, value in out.items()}

    def _process(
        self,
        step: int,
        coord: dict[str, float],
        f: np.ndarray,
        particles: ParticleSet | None,
        velocity_shift: np.ndarray | None,
        particle_velocity_shift: np.ndarray | None,
    ) -> None:
        t0 = time.perf_counter()
        if particles is not None and particle_velocity_shift is not None:
            # a shallow copy shares positions and masses: a new
            # ParticleSet would re-wrap the caller's positions in place
            particles = copy.copy(particles)
            particles.velocities = particles.velocities + particle_velocity_shift
        fields = self._moment_fields(f, particles, velocity_shift)
        self.out_dir.mkdir(parents=True, exist_ok=True)
        snap_path = write_snapshot(
            self.out_dir / snapshot_name(step), self.grid, fields,
            particles=particles, a=coord.get("a", 1.0),
            timer=self.io_timer, extra={"step": step, "coord": coord},
        )
        record = {
            "step": step,
            "coord": coord,
            "snapshot": snap_path.name,
            "fields": sorted(fields) + (
                ["positions", "velocities", "masses"] if particles is not None
                else []
            ),
            "spectra": self._spectra(fields),
        }
        record["wall_s"] = time.perf_counter() - t0
        with open(self.out_dir / PRODUCTS_NAME, "a", encoding="utf-8") as fh:
            fh.write(json.dumps(record) + "\n")
        self.written += 1
        emit_event("diagnostics_written", step=step, wall_s=record["wall_s"])


def read_products(path: str | Path) -> Iterator[dict]:
    """Yield the product records of a diagnostics directory, in order.

    ``path`` is the diagnostics directory or the ``products.jsonl``
    itself; a torn final line (the process died mid-write) is skipped.
    """
    path = Path(path)
    if path.is_dir():
        path = path / PRODUCTS_NAME
    if path.exists():
        yield from iter_records(path)
