"""Crash-safe file replacement and directory ownership.

Every durable artifact (checkpoints, snapshots, ``run.json``,
``campaign.json``) is staged in a same-directory temp file, flushed and
fsynced, and only then moved over the destination with ``os.replace``:
a crash at any point leaves the previous file or the new one, never a
torn or empty one, and a failed write leaves no temp file behind.

A directory has one writer at a time: :func:`directory_lock` holds an
``flock`` on its :data:`LOCK_NAME` file, which the kernel releases when
the holding process dies however it dies.
"""

from __future__ import annotations

import fcntl
import json
import os
import threading
from contextlib import contextmanager
from pathlib import Path

__all__ = [
    "LOCK_NAME",
    "DirectoryLocked",
    "atomic_write",
    "atomic_write_json",
    "directory_lock",
]

#: The lock file :func:`directory_lock` creates and never unlinks: a
#: process that unlinked it could hand a newcomer a fresh inode to lock
#: while the old one is still held.
LOCK_NAME = "lock"


class DirectoryLocked(RuntimeError):
    """Another holder, live in this process or another, has the lock."""


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


# Descriptors of the locks this process holds.  A forked child (the
# domain engine's workers) closes its copies at once: an inherited copy
# would keep the lock alive for as long as an orphaned child lives after
# its parent was SIGKILLed.  ``_forking`` keeps a fork from landing
# between a descriptor's open and its registration here.
_held: set[int] = set()
_forking = threading.Lock()


def _close_held_in_child() -> None:
    for fd in _held:
        os.close(fd)
    _held.clear()
    _forking.release()


os.register_at_fork(before=_forking.acquire,
                    after_in_parent=_forking.release,
                    after_in_child=_close_held_in_child)


@contextmanager
def directory_lock(directory: str | Path):
    """Hold ``directory``'s lock for the ``with`` block.

    Raises :class:`DirectoryLocked`, having written nothing, when
    another process (or another holder in this one) has it.
    """
    with _forking:
        fd = os.open(Path(directory) / LOCK_NAME, os.O_RDWR | os.O_CREAT, 0o644)
        _held.add(fd)
    try:
        try:
            fcntl.flock(fd, fcntl.LOCK_EX | fcntl.LOCK_NB)
        except BlockingIOError:
            raise DirectoryLocked(
                f"{directory} is locked by another process") from None
        yield
    finally:
        with _forking:
            _held.discard(fd)
            os.close(fd)
