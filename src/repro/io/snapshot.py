"""Snapshot and checkpoint I/O with timing.

The paper reports end-to-end times *including I/O* (733-782 s of the
full-system runs), so I/O is a first-class, timed subsystem.  Snapshots
follow the production convention: particles and *moment* fields are
dumped (never the 6-D f itself — see the machine model's I/O notes);
checkpoints additionally carry the full distribution function so a run
can resume bit-exactly.

Format: a single ``.npz`` container with a JSON-encoded header —
self-describing, portable, append-free.  Snapshots can alternatively be
written **chunked** (:func:`write_snapshot_chunked`): each moment field
is split into per-slab ``.npy`` chunks along its leading spatial axis
under one directory, described by a ``manifest.json``, so a reader
fetching one slab of one field (:func:`read_snapshot_slab`) touches one
small file instead of decompressing the whole container — the access
pattern of the serving tier (:mod:`repro.serve`).  :func:`read_snapshot`
accepts both forms transparently.

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
import zlib
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from ..core.mesh import PhaseSpaceGrid
from ..core import moments
from ..nbody.particles import ParticleSet
from .atomic import atomic_write, atomic_write_json

#: Format version written into every header, and the only one readers
#: accept.  A v3 header carries ``time`` (the driver's accumulated
#: proper time, exact bits), a free-form ``extra`` dict (scenario name,
#: schedule position, anything the orchestration layer needs to resume)
#: and ``checksums``: a per-array CRC32 (of the stored bytes) that
#: readers verify on load.
FORMAT_VERSION = 3

#: Global write/verify switch: ``REPRO_SNAPSHOT_CRC=0`` disables both
#: computing checksums on write and verifying them on read (an escape
#: hatch for benchmarking the tax and for pathological I/O systems).
CHECKSUMS_ENABLED = os.environ.get("REPRO_SNAPSHOT_CRC", "1") != "0"


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

    A header without ``checksums`` fails: the writer always stores them
    (unless :data:`CHECKSUMS_ENABLED` is off, which skips this check
    too), so a missing key means a damaged header.  ``arrays`` holds the
    already-deserialized arrays — the exact bytes a resume would adopt —
    so verification costs one CRC pass, not a second read.
    """
    if not CHECKSUMS_ENABLED:
        return
    checksums = header.get("checksums")
    if not checksums:
        raise SnapshotIntegrityError(
            f"{path}: header carries no checksums (written with "
            "REPRO_SNAPSHOT_CRC=0? then read it under the same setting)"
        )
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
    container.
    """
    final = path if path.name.endswith(".npz") else path.with_name(path.name + ".npz")
    atomic_write(final, lambda fh: np.savez(fh, **payload))
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


def write_snapshot(
    path: str | Path,
    grid: PhaseSpaceGrid,
    f: np.ndarray,
    particles: ParticleSet | None = None,
    a: float = 1.0,
    timer: IOTimer | None = None,
    extra: dict | None = None,
) -> Path:
    """Write a moment-level snapshot (density, velocity, dispersion).

    The 6-D f is reduced to its observable moments; particles (if any)
    are stored in full.  Returns the path actually written (``.npz``
    appended when the caller's name lacks it); the write is atomic.
    """
    path = Path(path)
    t0 = time.perf_counter()
    rho = moments.density(f, grid)
    vel = moments.mean_velocity(f, grid, rho)
    sigma = moments.velocity_dispersion(f, grid, rho)
    payload = {
        "density": rho.astype(np.float32),
        "velocity": vel.astype(np.float32),
        "dispersion": sigma.astype(np.float32),
    }
    if particles is not None:
        payload["positions"] = particles.positions
        payload["velocities"] = particles.velocities
        payload["masses"] = particles.masses
    header = {
        "version": FORMAT_VERSION,
        "kind": "snapshot",
        "a": a,
        "nx": grid.nx,
        "nu": grid.nu,
        "box_size": grid.box_size,
        "v_max": grid.v_max,
        "has_particles": particles is not None,
        "extra": extra or {},
    }
    if CHECKSUMS_ENABLED:
        header["checksums"] = _array_checksums(payload)
    payload["header"] = np.frombuffer(
        json.dumps(header).encode(), dtype=np.uint8
    )
    path = _atomic_savez(path, payload)
    elapsed = time.perf_counter() - t0
    if timer is not None:
        timer.record_write(elapsed, path.stat().st_size)
    return path


def read_snapshot(path: str | Path, timer: IOTimer | None = None) -> dict:
    """Read a snapshot; returns header fields plus the stored arrays.

    Accepts either the monolithic ``.npz`` form or a chunked snapshot
    directory / its ``manifest.json`` (see :func:`write_snapshot_chunked`)
    — the returned dict has the same shape for both.
    """
    path = Path(path)
    if path.is_dir() or path.name == MANIFEST_NAME:
        return _read_snapshot_chunked(path, timer=timer)
    t0 = time.perf_counter()
    with np.load(path) as data:
        header = json.loads(bytes(data["header"]).decode())
        if header.get("kind") != "snapshot":
            raise ValueError(f"{path} is not a snapshot (kind={header.get('kind')})")
        _check_version(path, header)
        out = {"header": header}
        for key in data.files:
            if key != "header":
                out[key] = data[key]
        _verify_checksums(path, header, out)
    elapsed = time.perf_counter() - t0
    if timer is not None:
        timer.record_read(elapsed, path.stat().st_size)
    return out


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
    path = Path(path)
    t0 = time.perf_counter()
    payload = {"f": f}
    if particles is not None:
        payload["positions"] = particles.positions
        payload["velocities"] = particles.velocities
        payload["masses"] = particles.masses
    header = {
        "version": FORMAT_VERSION,
        "kind": "checkpoint",
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
    if CHECKSUMS_ENABLED:
        header["checksums"] = _array_checksums(payload)
    payload["header"] = np.frombuffer(
        json.dumps(header).encode(), dtype=np.uint8
    )
    path = _atomic_savez(path, payload)
    elapsed = time.perf_counter() - t0
    if timer is not None:
        timer.record_write(elapsed, path.stat().st_size)
    return path


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
    path = Path(path)
    t0 = time.perf_counter()
    with np.load(path) as data:
        header = json.loads(bytes(data["header"]).decode())
        if header.get("kind") != "checkpoint":
            raise ValueError(f"{path} is not a checkpoint")
        _check_version(path, header)
        grid = PhaseSpaceGrid(
            nx=tuple(header["nx"]),
            nu=tuple(header["nu"]),
            box_size=header["box_size"],
            v_max=header["v_max"],
            dtype=np.dtype(header["dtype"]),
        )
        arrays = {"f": data["f"]}
        particles = None
        if header["has_particles"]:
            arrays["positions"] = data["positions"]
            arrays["velocities"] = data["velocities"]
            arrays["masses"] = data["masses"]
            particles = ParticleSet(
                arrays["positions"],
                arrays["velocities"],
                arrays["masses"],
                header["box_size"],
            )
        _verify_checksums(path, header, arrays)
        f = arrays["f"]
    elapsed = time.perf_counter() - t0
    if timer is not None:
        timer.record_read(elapsed, path.stat().st_size)
    if f.shape != grid.shape:
        raise ValueError("checkpoint f shape does not match its header")
    return grid, f, particles, header


# ----------------------------------------------------------------------
# chunked snapshots: per-slab .npy chunks + a JSON manifest
# ----------------------------------------------------------------------

#: Manifest filename inside a chunked snapshot directory.
MANIFEST_NAME = "manifest.json"

#: Default number of slabs each field is split into (clamped to the
#: field's extent along its chunk axis).
DEFAULT_CHUNKS = 8

#: Fields this small are not worth splitting: each chunk pays an
#: open + fsync + rename, which for sub-megabyte slabs costs far more
#: than slab-granular reads ever save.  The writer shrinks the chunk
#: count so every chunk is at least this big (set 0 to force splitting).
MIN_CHUNK_BYTES = 1 << 20


def _atomic_save_npy(path: Path, arr: np.ndarray) -> Path:
    """Write one ``.npy`` chunk atomically; return the real final path."""
    final = path if path.name.endswith(".npy") else path.with_name(path.name + ".npy")
    atomic_write(final, lambda fh: np.save(fh, arr))
    return final


def _chunk_axis(name: str, shape: tuple[int, ...], grid: PhaseSpaceGrid) -> int:
    """Which axis of a field is the spatial slab axis.

    Scalar moment fields are ``grid.nx`` (slab along axis 0); vector
    fields carry a leading component axis (slab along axis 1); particle
    arrays are per-row (axis 0).
    """
    if len(shape) == grid.dim + 1 and shape[1:] == grid.nx:
        return 1
    return 0


def write_snapshot_chunked(
    path: str | Path,
    grid: PhaseSpaceGrid,
    f: np.ndarray | None = None,
    particles: ParticleSet | None = None,
    a: float = 1.0,
    timer: IOTimer | None = None,
    extra: dict | None = None,
    fields: dict[str, np.ndarray] | None = None,
    n_chunks: int = DEFAULT_CHUNKS,
    min_chunk_bytes: int = MIN_CHUNK_BYTES,
) -> Path:
    """Write a moment-level snapshot as per-slab chunks under a directory.

    Same observable content as :func:`write_snapshot` (``fields`` may
    override/extend the derived moment set — the serving pipeline passes
    precomputed moments plus the CDM density mesh), but each field is
    split into ``n_chunks`` slabs along its spatial axis, one ``.npy``
    per slab (small fields collapse to fewer slabs so no chunk falls
    below ``min_chunk_bytes``), described by ``manifest.json``:

    * ``header`` — the usual snapshot header (version, a, geometry,
      ``extra``), plus ``"chunked": true``;
    * ``fields`` — per field: dtype, shape, chunk axis, and the chunk
      table ``[{file, start, stop, crc32}]`` (CRCs omitted when
      ``REPRO_SNAPSHOT_CRC=0``).

    Chunks are written first and the manifest last (all writes atomic),
    so a torn write leaves a directory without a manifest — invalid,
    never silently partial.  Returns the manifest path.
    """
    out_dir = Path(path)
    t0 = time.perf_counter()
    if fields is None:
        if f is None:
            raise ValueError("write_snapshot_chunked needs f or fields")
        rho = moments.density(f, grid)
        fields = {
            "density": rho.astype(np.float32),
            "velocity": moments.mean_velocity(f, grid, rho).astype(np.float32),
            "dispersion": moments.velocity_dispersion(f, grid, rho).astype(np.float32),
        }
    else:
        fields = dict(fields)
    if particles is not None:
        fields["positions"] = particles.positions
        fields["velocities"] = particles.velocities
        fields["masses"] = particles.masses
    out_dir.mkdir(parents=True, exist_ok=True)
    total_bytes = 0
    field_table: dict[str, dict] = {}
    for name, arr in fields.items():
        arr = np.asarray(arr)
        axis = _chunk_axis(name, arr.shape, grid)
        n = max(1, min(n_chunks, arr.shape[axis]))
        if min_chunk_bytes > 0:
            n = max(1, min(n, int(arr.nbytes // min_chunk_bytes)))
        bounds = np.linspace(0, arr.shape[axis], n + 1).astype(int)
        chunks = []
        for i, (start, stop) in enumerate(zip(bounds[:-1], bounds[1:])):
            sl = [slice(None)] * arr.ndim
            sl[axis] = slice(int(start), int(stop))
            chunk = np.ascontiguousarray(arr[tuple(sl)])
            chunk_path = _atomic_save_npy(out_dir / f"{name}.{i:03d}.npy", chunk)
            total_bytes += chunk_path.stat().st_size
            entry = {
                "file": chunk_path.name,
                "start": int(start),
                "stop": int(stop),
            }
            if CHECKSUMS_ENABLED:
                entry["crc32"] = _crc32(chunk)
            chunks.append(entry)
        field_table[name] = {
            "dtype": arr.dtype.name,
            "shape": list(arr.shape),
            "axis": axis,
            "chunks": chunks,
        }
    manifest = {
        "header": {
            "version": FORMAT_VERSION,
            "kind": "snapshot",
            "chunked": True,
            "a": a,
            "nx": grid.nx,
            "nu": grid.nu,
            "box_size": grid.box_size,
            "v_max": grid.v_max,
            "has_particles": particles is not None,
            "extra": extra or {},
        },
        "fields": field_table,
    }
    manifest_path = out_dir / MANIFEST_NAME
    atomic_write_json(manifest_path, manifest)
    total_bytes += manifest_path.stat().st_size
    if timer is not None:
        timer.record_write(time.perf_counter() - t0, total_bytes)
    return manifest_path


def _manifest_dir(path: Path) -> Path:
    """The snapshot directory for a dir / manifest.json path."""
    return path.parent if path.name == MANIFEST_NAME else path


def snapshot_manifest(path: str | Path) -> dict:
    """Load a chunked snapshot's manifest (dir or manifest.json path)."""
    out_dir = _manifest_dir(Path(path))
    manifest_path = out_dir / MANIFEST_NAME
    if not manifest_path.exists():
        raise FileNotFoundError(
            f"{out_dir} is not a chunked snapshot (no {MANIFEST_NAME})"
        )
    manifest = json.loads(manifest_path.read_text())
    if manifest.get("header", {}).get("kind") != "snapshot":
        raise ValueError(f"{manifest_path} is not a snapshot manifest")
    _check_version(manifest_path, manifest["header"])
    return manifest


def _load_chunk(out_dir: Path, name: str, spec: dict, entry: dict) -> np.ndarray:
    """Read and (when enabled) CRC-verify one chunk file."""
    chunk_path = out_dir / entry["file"]
    chunk = np.load(chunk_path)
    if CHECKSUMS_ENABLED and "crc32" in entry:
        actual = _crc32(chunk)
        if actual != int(entry["crc32"]):
            raise SnapshotIntegrityError(
                f"{chunk_path}: chunk of field {name!r} fails its checksum "
                f"(stored crc32={int(entry['crc32']):#010x}, read "
                f"{actual:#010x}) — the file was corrupted after it was "
                "written"
            )
    expected_dtype = np.dtype(spec["dtype"])
    if chunk.dtype != expected_dtype:
        raise SnapshotIntegrityError(
            f"{chunk_path}: chunk dtype {chunk.dtype} does not match the "
            f"manifest ({expected_dtype})"
        )
    return chunk


def read_snapshot_field(
    path: str | Path, field: str, timer: IOTimer | None = None
) -> np.ndarray:
    """Assemble one full field of a chunked snapshot from its chunks."""
    out_dir = _manifest_dir(Path(path))
    t0 = time.perf_counter()
    manifest = snapshot_manifest(out_dir)
    try:
        spec = manifest["fields"][field]
    except KeyError:
        raise KeyError(
            f"{out_dir} has no field {field!r}; available: "
            f"{sorted(manifest['fields'])}"
        ) from None
    chunks = [
        _load_chunk(out_dir, field, spec, entry) for entry in spec["chunks"]
    ]
    arr = np.concatenate(chunks, axis=spec["axis"]) if len(chunks) > 1 else chunks[0]
    if arr.shape != tuple(spec["shape"]):
        raise SnapshotIntegrityError(
            f"{out_dir}: field {field!r} reassembles to {arr.shape}, "
            f"manifest says {tuple(spec['shape'])}"
        )
    if timer is not None:
        timer.record_read(time.perf_counter() - t0, arr.nbytes)
    return arr


def read_snapshot_slab(
    path: str | Path, field: str, chunk: int, timer: IOTimer | None = None
) -> tuple[np.ndarray, tuple[int, int]]:
    """Fetch a single slab of one field without touching its siblings.

    Returns ``(slab, (start, stop))`` — the slab's index range along the
    field's chunk axis.  This is the read path the manifest exists for:
    one small ``.npy`` instead of the whole container.
    """
    out_dir = _manifest_dir(Path(path))
    t0 = time.perf_counter()
    manifest = snapshot_manifest(out_dir)
    spec = manifest["fields"][field]
    entries = spec["chunks"]
    if not -len(entries) <= chunk < len(entries):
        raise IndexError(
            f"field {field!r} has {len(entries)} chunks, asked for {chunk}"
        )
    entry = entries[chunk]
    slab = _load_chunk(out_dir, field, spec, entry)
    if timer is not None:
        timer.record_read(time.perf_counter() - t0, slab.nbytes)
    return slab, (int(entry["start"]), int(entry["stop"]))


def _read_snapshot_chunked(path: Path, timer: IOTimer | None = None) -> dict:
    """The chunked branch of :func:`read_snapshot`: assemble everything."""
    out_dir = _manifest_dir(path)
    t0 = time.perf_counter()
    manifest = snapshot_manifest(out_dir)
    out = {"header": manifest["header"]}
    nbytes = 0
    for name in manifest["fields"]:
        out[name] = read_snapshot_field(out_dir, name)
        nbytes += out[name].nbytes
    if timer is not None:
        timer.record_read(time.perf_counter() - t0, nbytes)
    return out
