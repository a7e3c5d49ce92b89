"""Snapshot and checkpoint I/O with timing.

The paper reports end-to-end times *including I/O* (733-782 s of the
full-system runs), so I/O is a first-class, timed subsystem.  Snapshots
follow the production convention: particles and *moment* fields are
dumped (never the 6-D f itself — see the machine model's I/O notes);
checkpoints additionally carry the full distribution function so a run
can resume bit-exactly.

Format: a single ``.npz`` container with a JSON-encoded header —
self-describing, portable, append-free — for snapshots and checkpoints
alike.  A snapshot stores the fields its caller hands it; which moments
those are is the diagnostics pipeline's decision
(:mod:`repro.serve.pipeline`).

Writes are **atomic** (:mod:`repro.io.atomic`): the container is staged
to a temporary file in the destination directory and moved into place
with ``os.replace``, so an interrupted write can never leave a
truncated snapshot — and never corrupt an existing checkpoint being
overwritten (the previous file survives intact until the replace).
Writers also return the path that actually exists on disk: ``np.savez``
silently appends ``.npz`` to suffix-less names, which used to make the
returned path (and ``path.stat()`` with a timer attached) point at a
nonexistent file.

Integrity: version-3 headers carry a per-array CRC32 checksum computed
over the exact bytes stored, and readers verify every array against it
(:class:`SnapshotIntegrityError` on mismatch) — so a bit-flip on disk is
*detected* rather than silently resumed from.  Corrupt containers can be
moved aside with :func:`quarantine` (rename to ``*.corrupt``), which
takes them out of the restart chain while keeping them for post-mortem.
"""

from __future__ import annotations

import json
import os
import time
import zipfile
import zlib
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from numpy.lib import format as npy

from ..core.mesh import PhaseSpaceGrid
from ..nbody.particles import ParticleSet
from .atomic import atomic_write

#: Format version written into every header, and the only one readers
#: accept.  A v3 header carries ``time`` (the driver's accumulated
#: proper time, exact bits), a free-form ``extra`` dict (scenario name,
#: schedule position, anything the orchestration layer needs to resume)
#: and ``checksums``: a per-array CRC32 (of the stored bytes) that
#: readers verify on load.
FORMAT_VERSION = 3


class SnapshotIntegrityError(ValueError):
    """A stored array's bytes do not match its header checksum."""


def _crc32(arr: np.ndarray) -> int:
    """CRC32 of an array's C-order bytes (what lands in the container)."""
    return zlib.crc32(np.ascontiguousarray(arr)) & 0xFFFFFFFF


def _array_checksums(payload: dict) -> dict[str, int]:
    """Per-array CRC32 map over everything but the header itself."""
    return {
        name: _crc32(arr)
        for name, arr in payload.items()
        if name != "header"
    }


def _verify_checksums(path: Path, header: dict, arrays: dict) -> None:
    """Check loaded arrays against the header checksums.

    A header without ``checksums`` fails: the writer always stores them,
    so a missing key means a damaged header.  ``arrays`` holds the
    already-deserialized arrays — the exact bytes a resume would adopt —
    so verification costs one CRC pass, not a second read.
    """
    checksums = header.get("checksums")
    if not checksums:
        raise SnapshotIntegrityError(f"{path}: header carries no checksums")
    for name, expected in checksums.items():
        if name not in arrays:
            raise SnapshotIntegrityError(
                f"{path}: array {name!r} listed in header checksums is missing"
            )
        actual = _crc32(arrays[name])
        if actual != int(expected):
            raise SnapshotIntegrityError(
                f"{path}: array {name!r} fails its checksum "
                f"(stored crc32={int(expected):#010x}, read {actual:#010x}) — "
                "the file was corrupted after it was written"
            )


#: Suffix appended to quarantined (checksum- or format-corrupt) files.
QUARANTINE_SUFFIX = ".corrupt"


def quarantine(path: str | Path) -> Path:
    """Move a corrupt container out of the restart chain.

    Renames ``ck_00000010.npz`` to ``ck_00000010.npz.corrupt`` — the
    checkpoint globs no longer match it, so resume scans skip it without
    re-reading, while the bytes stay on disk for post-mortem.  Returns
    the new path.  Idempotent-ish: an existing quarantine target is
    overwritten (same corrupt file, re-detected).
    """
    path = Path(path)
    target = path.with_name(path.name + QUARANTINE_SUFFIX)
    os.replace(path, target)
    return target


def _check_version(path: Path, header: dict) -> None:
    """Refuse a container this reader's writer could not have written."""
    if header.get("version") != FORMAT_VERSION:
        raise ValueError(
            f"{path}: format version {header.get('version')!r}, this "
            f"reader accepts version {FORMAT_VERSION} only"
        )


def _atomic_savez(path: Path, payload: dict) -> Path:
    """Write an ``.npz`` container atomically; return the real final path.

    Mirrors ``np.savez``'s suffix behavior explicitly (append ``.npz``
    when missing) so the caller gets the path that exists — a crash
    mid-write leaves either the old file or no file, never a truncated
    container.  Each member is the ``.npy`` bytes ``np.savez`` stores (a
    version 1.0 header, then the C-order data), but the data is written
    straight from the array's memory: ``np.savez`` stages it through
    ``tobytes`` copies of up to 16 MiB, the largest transient of a
    checkpoint.
    """
    final = path if path.name.endswith(".npz") else path.with_name(path.name + ".npz")

    def write(fh) -> None:
        with zipfile.ZipFile(fh, "w", zipfile.ZIP_STORED, allowZip64=True) as zf:
            for name, arr in payload.items():
                arr = np.asarray(arr, order="C")  # keeps a 0-d array 0-d
                with zf.open(name + ".npy", "w", force_zip64=True) as member:
                    npy.write_array_header_1_0(
                        member, npy.header_data_from_array_1_0(arr))
                    member.write(arr.reshape(-1).view(np.uint8))

    atomic_write(final, write)
    return final


@dataclass
class IOTimer:
    """Accumulates wall-clock I/O time (the paper's clock_gettime analog)."""

    write_seconds: float = 0.0
    read_seconds: float = 0.0
    bytes_written: int = 0
    bytes_read: int = 0

    def record_write(self, seconds: float, nbytes: int) -> None:
        """Log one write."""
        self.write_seconds += seconds
        self.bytes_written += nbytes

    def record_read(self, seconds: float, nbytes: int) -> None:
        """Log one read."""
        self.read_seconds += seconds
        self.bytes_read += nbytes


def _write(path: str | Path, kind: str, payload: dict, header: dict,
           particles: ParticleSet | None, timer: IOTimer | None) -> Path:
    """Store ``payload`` (+ the particles) under a checksummed ``kind``
    header, which follows the version and kind keys; the one body of
    :func:`write_snapshot` and :func:`write_checkpoint`."""
    t0 = time.perf_counter()
    if particles is not None:
        payload["positions"] = particles.positions
        payload["velocities"] = particles.velocities
        payload["masses"] = particles.masses
    header = {"version": FORMAT_VERSION, "kind": kind, **header}
    header["checksums"] = _array_checksums(payload)
    payload["header"] = np.frombuffer(
        json.dumps(header).encode(), dtype=np.uint8
    )
    path = _atomic_savez(Path(path), payload)
    if timer is not None:
        timer.record_write(time.perf_counter() - t0, path.stat().st_size)
    return path


def _read(path: str | Path, kind: str,
          timer: IOTimer | None) -> tuple[dict, dict[str, np.ndarray]]:
    """Load a ``kind`` container as ``(header, arrays)``, every array
    verified against its checksum; the one body of :func:`read_snapshot`
    and :func:`read_checkpoint`."""
    path = Path(path)
    t0 = time.perf_counter()
    with np.load(path) as data:
        header = json.loads(bytes(data["header"]).decode())
        if header.get("kind") != kind:
            raise ValueError(f"{path} is not a {kind} (kind={header.get('kind')})")
        _check_version(path, header)
        arrays = {key: data[key] for key in data.files if key != "header"}
    _verify_checksums(path, header, arrays)
    if timer is not None:
        timer.record_read(time.perf_counter() - t0, path.stat().st_size)
    return header, arrays


def write_snapshot(
    path: str | Path,
    grid: PhaseSpaceGrid,
    fields: dict[str, np.ndarray],
    particles: ParticleSet | None = None,
    a: float = 1.0,
    timer: IOTimer | None = None,
    extra: dict | None = None,
) -> Path:
    """Write a snapshot of ``fields`` (moment meshes, never the 6-D f).

    The arrays are stored as given; particles (if any) are stored in
    full next to them.  Returns the path actually written (``.npz``
    appended when the caller's name lacks it); the write is atomic.
    """
    header = {
        "a": a,
        "nx": grid.nx,
        "nu": grid.nu,
        "box_size": grid.box_size,
        "v_max": grid.v_max,
        "has_particles": particles is not None,
        "extra": extra or {},
    }
    return _write(path, "snapshot", dict(fields), header, particles, timer)


def read_snapshot(path: str | Path, timer: IOTimer | None = None) -> dict:
    """Read a snapshot; returns ``{"header": ..., <name>: array, ...}``.

    Every array is verified against its stored CRC32
    (:class:`SnapshotIntegrityError` on mismatch).
    """
    header, arrays = _read(path, "snapshot", timer)
    return {"header": header, **arrays}


def write_checkpoint(
    path: str | Path,
    grid: PhaseSpaceGrid,
    f: np.ndarray,
    particles: ParticleSet | None = None,
    a: float = 1.0,
    step: int = 0,
    sim_time: float = 0.0,
    extra: dict | None = None,
    timer: IOTimer | None = None,
) -> Path:
    """Write a restart checkpoint carrying the full f.

    ``sim_time`` is the driver's accumulated proper time (the plasma and
    static-gravity clocks); ``extra`` is a JSON-serializable dict for
    whatever the caller needs to resume exactly (scenario name, schedule
    position, ...).  Returns the path actually written (``.npz`` appended
    when missing); the write is atomic, so an interrupted checkpoint
    never corrupts the restart chain.
    """
    header = {
        "a": a,
        "step": step,
        "time": sim_time,
        "extra": extra or {},
        "nx": grid.nx,
        "nu": grid.nu,
        "box_size": grid.box_size,
        "v_max": grid.v_max,
        "dtype": grid.dtype.name,
        "has_particles": particles is not None,
    }
    return _write(path, "checkpoint", {"f": f}, header, particles, timer)


def read_checkpoint(
    path: str | Path, timer: IOTimer | None = None
) -> tuple[PhaseSpaceGrid, np.ndarray, ParticleSet | None, dict]:
    """Read a checkpoint back into (grid, f, particles, header).

    Only the current :data:`FORMAT_VERSION` is accepted.  Arrays are
    checked against their stored CRC32 and raise
    :class:`SnapshotIntegrityError` on mismatch or when the header has
    lost its checksums — a silent bit-flip must not become a resumed
    state.
    """
    header, arrays = _read(path, "checkpoint", timer)
    grid = PhaseSpaceGrid(
        nx=tuple(header["nx"]),
        nu=tuple(header["nu"]),
        box_size=header["box_size"],
        v_max=header["v_max"],
        dtype=np.dtype(header["dtype"]),
    )
    particles = None
    if header["has_particles"]:
        particles = ParticleSet(
            arrays["positions"],
            arrays["velocities"],
            arrays["masses"],
            header["box_size"],
        )
    f = arrays["f"]
    if f.shape != grid.shape:
        raise ValueError("checkpoint f shape does not match its header")
    return grid, f, particles, header
