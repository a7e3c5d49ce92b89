"""The restore scan behind every resume and rollback.

The abort path (checkpoint, mark aborted, exit 70) preserves evidence
but ends the campaign; on Fugaku-scale hardware most trips are
*transient* — a flipped bit, a wedged node — and the economical response
is the paper's: restore the last good state and go again.  A rollback is
a resume inside the same invocation: the runner's one restore step
(``SimulationRunner._restore``) rebuilds the stepper from the config,
adopts the checkpoint :func:`find_latest_valid_checkpoint` returns, and
rebuilds the conservation ledger and the guards — a NaN that tripped a
guard has already poisoned the incremental drift tracking, so recovery
rebuilds the observers, not just the state.  After a rollback the runner
scales the restored dt by ``recovery.dt_scale`` per attempt (the n-th
rollback onto one checkpoint by ``dt_scale**n``); the checkpoint header
carries that dt, so a later resume continues at it.

:func:`find_latest_valid_checkpoint` is the scan, hardened.  Candidates
are tried newest-first; anything unreadable — truncated zip, bad header,
shape mismatch, **checksum mismatch**
(:class:`~repro.io.snapshot.SnapshotIntegrityError`) — is skipped and,
with ``quarantine_corrupt=True``, renamed to ``*.corrupt`` so the
restart chain never re-reads it (the bytes stay on disk for
post-mortem).  Every quarantine is published as a
``checkpoint_quarantined`` telemetry event.

With ``recovery.dt_scale = 1.0`` (the default) a rollback re-executes
bit-identical arithmetic from the restored state, so a run that recovers
from a transient fault finishes **bitwise-identical** to a fault-free
run — the property the chaos suite asserts.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ..io.snapshot import (
    IOTimer,
    SnapshotIntegrityError,
    quarantine,
    read_checkpoint,
)
from .telemetry import emit_event

__all__ = [
    "CheckpointState",
    "find_latest_valid_checkpoint",
]


@dataclass
class CheckpointState:
    """A successfully validated checkpoint, ready to restore."""

    path: Path
    grid: object
    f: np.ndarray
    particles: object
    header: dict
    skipped: list[tuple[Path, str]]


def find_latest_valid_checkpoint(
    ck_dir: Path,
    timer: IOTimer | None = None,
    quarantine_corrupt: bool = False,
) -> CheckpointState | None:
    """Newest checkpoint that actually loads, skipping broken files.

    Candidates are scanned newest-first (the step number is in the
    filename); anything that fails to read — truncated zip, bad header,
    shape mismatch, checksum mismatch
    (:class:`~repro.io.snapshot.SnapshotIntegrityError`, the line of
    defense that catches flips the container format itself misses) — is
    recorded in ``skipped`` and kept on disk for post-mortem rather than
    deleted.  With ``quarantine_corrupt=True`` failing files are
    additionally renamed to ``*.corrupt`` (and a
    ``checkpoint_quarantined`` event published), which takes them out of
    the ``ck_*.npz`` glob so later scans skip them without paying the
    read.
    """
    skipped: list[tuple[Path, str]] = []
    for path in sorted(ck_dir.glob("ck_*.npz"), reverse=True):
        try:
            grid, f, particles, header = read_checkpoint(path, timer=timer)
        except Exception as exc:  # any unreadable container is skippable
            reason = f"{type(exc).__name__}: {exc}"
            if quarantine_corrupt:
                target = quarantine(path)
                reason += f" (quarantined to {target.name})"
                emit_event(
                    "checkpoint_quarantined",
                    path=str(path),
                    quarantined_to=target.name,
                    integrity=isinstance(exc, SnapshotIntegrityError),
                )
            skipped.append((path, reason))
            continue
        return CheckpointState(path, grid, f, particles, header, skipped)
    if skipped:
        return CheckpointState(Path(), None, None, None, {}, skipped)
    return None
