"""Crash-safe file replacement — the package's one write-then-rename.

Every durable artifact (checkpoints, snapshots, ``run.json``,
``campaign.json``, leases) is staged in a same-directory temp file,
flushed and fsynced, and only then moved over the destination with ``os.replace``: a crash at any point leaves the
previous file or the new one, never a torn or empty one, and a failed
write leaves no temp file behind.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

__all__ = ["atomic_write", "atomic_write_json"]


def atomic_write(path: str | Path, write_fn) -> None:
    """Replace ``path`` with what ``write_fn(fh)`` writes to a binary file."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.tmp{os.getpid()}")
    try:
        with open(tmp, "wb") as fh:
            write_fn(fh)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def atomic_write_json(path: str | Path, obj) -> None:
    """Replace ``path`` with ``obj`` as indented JSON (ASCII, one
    trailing newline)."""
    data = (json.dumps(obj, indent=2) + "\n").encode("ascii")
    atomic_write(path, lambda fh: fh.write(data))
