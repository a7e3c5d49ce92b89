"""Incremental diagnostics on a background worker.

The runner submits ``(step, coord, f, particles)`` tuples at its
snapshot cadence; a single worker thread computes the moment fields
(:meth:`DiagnosticsPipeline._moment_fields`, the one place the stored
set is decided), writes them as one checksummed ``.npz`` snapshot
(:func:`repro.io.snapshot.write_snapshot`), runs the spectral
estimators from :mod:`repro.analysis`, and appends one JSON line per
snapshot to ``products.jsonl``.  The step loop pays only for the
defensive copy of ``f`` at submit time — moments, FFTs and disk I/O all
happen off the critical path (the end-to-end benchmark reports the tax
as ``serve.pipeline.submit_s``).

Backpressure is explicit: the submit queue holds :data:`QUEUE_MAX`
states, and a submit to a full queue blocks the step loop until the
worker catches up — no product is ever lost.

The worker publishes telemetry through the ``event_sink`` callable the
runner hands it (its own ``TelemetryWriter.event``), *not* through the
context-local :func:`repro.runtime.telemetry.emit_event` — the sink
contextvar installed on the runner's thread is invisible from the
worker thread.  Events: ``diagnostics_enqueued`` / ``diagnostics_written``
/ ``diagnostics_error``.
"""

from __future__ import annotations

import json
import queue
import threading
import time
from pathlib import Path
from typing import Callable, Iterator

import numpy as np

from ..analysis.spectra import correlation_coefficient, cross_power, transfer_ratio
from ..core import moments
from ..core.mesh import PhaseSpaceGrid
from ..io.snapshot import IOTimer, write_snapshot
from ..nbody.particles import ParticleSet

__all__ = ["DiagnosticsPipeline", "PRODUCTS_NAME", "read_products", "snapshot_name"]

#: Per-snapshot product records, one JSON object per line.
PRODUCTS_NAME = "products.jsonl"

#: Submissions the queue holds before ``submit`` blocks.
QUEUE_MAX = 2


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
    """One background worker turning run states into stored products.

    Parameters
    ----------
    out_dir:
        Directory the snapshots and ``products.jsonl`` live under;
        created on first use.
    grid:
        The run's phase-space grid (moment kernels need the geometry).
    n_bins:
        Spectral binning resolution of the stored spectra.
    event_sink:
        Optional ``sink(kind, **fields)`` the worker publishes telemetry
        events through (the runner passes its ``TelemetryWriter.event``,
        which is thread-safe).
    """

    def __init__(
        self,
        out_dir: str | Path,
        grid: PhaseSpaceGrid,
        n_bins: int = 16,
        event_sink: Callable[..., None] | None = None,
    ) -> None:
        self.out_dir = Path(out_dir)
        self.grid = grid
        self.n_bins = int(n_bins)
        self.io_timer = IOTimer()
        self._event_sink = event_sink
        self._queue: queue.Queue = queue.Queue(maxsize=QUEUE_MAX)
        self._closed = False
        self.submitted = 0
        self.written = 0
        self.errors = 0
        self._thread = threading.Thread(
            target=self._worker, name="repro-diagnostics", daemon=True
        )
        self._thread.start()

    # ------------------------------------------------------------------
    # the producer side (the runner's step loop)
    # ------------------------------------------------------------------

    def submit(
        self,
        step: int,
        coord: dict[str, float],
        f: np.ndarray,
        particles: ParticleSet | None = None,
        velocity_shift: np.ndarray | None = None,
        particle_velocity_shift: np.ndarray | None = None,
    ) -> None:
        """Enqueue one run state, blocking while the queue is full.

        The state is copied *here*, on the caller's thread — the stepper
        mutates ``f`` and the particle arrays in place, so the worker
        must own frozen bytes.  ``velocity_shift`` (on the mesh) and
        ``particle_velocity_shift`` are a pending half kick's: they are
        added to the stored ``velocity`` moment and particle velocities.
        The density is exact without it, and the dispersion does not
        change under a per-cell shift.
        """
        if self._closed:
            raise RuntimeError("pipeline is closed")
        coord = {k: float(v) for k, v in coord.items()}
        if particles is not None:
            velocities = particles.velocities.copy()
            if particle_velocity_shift is not None:
                velocities += particle_velocity_shift
            particles = ParticleSet(
                particles.positions.copy(), velocities,
                particles.masses.copy(), particles.box_size,
            )
        item = (
            int(step),
            coord,
            np.array(f, copy=True),
            particles,
            None if velocity_shift is None else np.array(velocity_shift),
        )
        self._queue.put(item)
        self.submitted += 1
        self._emit("diagnostics_enqueued", step=int(step),
                   queue_depth=self._queue.qsize())

    def drain(self) -> None:
        """Block until every submission has been processed."""
        self._queue.join()

    def close(self) -> None:
        """Drain, stop the worker, and emit the run-level summary event."""
        if self._closed:
            return
        self._closed = True
        self._queue.put(None)
        self._thread.join()
        self._emit("diagnostics_closed", **self.stats())

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

    # ------------------------------------------------------------------
    # the worker side
    # ------------------------------------------------------------------

    def _emit(self, kind: str, **fields) -> None:
        if self._event_sink is None:
            return
        try:
            self._event_sink(kind, **fields)
        except Exception:  # pragma: no cover - telemetry must not kill us
            pass

    def _worker(self) -> None:
        while True:
            item = self._queue.get()
            if item is None:
                self._queue.task_done()
                return
            try:
                self._process(*item)
            except Exception as exc:  # noqa: BLE001 - report, keep serving
                self.errors += 1
                self._emit("diagnostics_error", step=item[0],
                           error=f"{type(exc).__name__}: {exc}")
            finally:
                self._queue.task_done()

    def _moment_fields(
        self, f: np.ndarray, particles: ParticleSet | None,
        velocity_shift: np.ndarray | None,
    ) -> dict[str, np.ndarray]:
        """The stored field set: Vlasov density, velocity (corrected for
        the pending kick) and dispersion, plus the CDM density mesh of a
        hybrid run.  Never f itself."""
        rho = moments.density(f, self.grid)
        velocity = moments.mean_velocity(f, self.grid, rho)
        if velocity_shift is not None:
            velocity = velocity + np.where(rho > 0.0, velocity_shift, 0.0)
        fields = {
            "density": rho.astype(np.float32),
            "velocity": velocity.astype(np.float32),
            "dispersion": moments.velocity_dispersion(
                f, self.grid, rho
            ).astype(np.float32),
        }
        if particles is not None:
            from ..nbody.pm import assign_mass

            fields["cdm_density"] = assign_mass(
                particles.positions, particles.masses, self.grid.nx,
                self.grid.box_size, "cic",
            ).astype(np.float32)
        return fields

    def _spectra(self, fields: dict[str, np.ndarray]) -> dict:
        """Binned auto/cross/transfer spectra of the moment fields."""
        box = self.grid.box_size
        delta_nu = _overdensity(fields["density"])
        k, p_nu, counts = cross_power(delta_nu, delta_nu, box, self.n_bins)
        out = {
            "k": k.tolist(),
            "p_density": p_nu.tolist(),
            "mode_counts": counts.tolist(),
        }
        if "cdm_density" in fields:
            delta_c = _overdensity(fields["cdm_density"])
            _, p_c, _ = cross_power(delta_c, delta_c, box, self.n_bins)
            _, p_x, _ = cross_power(delta_nu, delta_c, box, self.n_bins)
            k_r, r = correlation_coefficient(delta_nu, delta_c, box, self.n_bins)
            k_t, t = transfer_ratio(delta_nu, delta_c, box, self.n_bins)
            out.update(
                p_cdm=p_c.tolist(),
                p_cross=p_x.tolist(),
                k_ratio=k_t.tolist(),
                correlation=r.tolist(),
                transfer_nu_cdm=t.tolist(),
            )
        return out

    def _process(
        self,
        step: int,
        coord: dict[str, float],
        f: np.ndarray,
        particles: ParticleSet | None,
        velocity_shift: np.ndarray | None,
    ) -> None:
        t0 = time.perf_counter()
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
            fh.flush()
        self.written += 1
        self._emit("diagnostics_written", step=step,
                   wall_s=record["wall_s"],
                   queue_depth=self._queue.qsize())


def read_products(path: str | Path) -> Iterator[dict]:
    """Yield the product records of a diagnostics directory, in order.

    ``path`` is the diagnostics directory or the ``products.jsonl``
    itself; a torn final line (the process died mid-write) is skipped.
    """
    path = Path(path)
    if path.is_dir():
        path = path / PRODUCTS_NAME
    if not path.exists():
        return
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError:
                continue
            if isinstance(record, dict):
                yield record
