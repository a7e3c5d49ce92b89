"""Host substrate shared by the sweep engines.

What the sweep engines and the domain workers need from the host, in
one place: the core count (:class:`repro.perf.pencil.PencilEngine`'s
default thread count, the domain engine's default fleet), the telemetry
hook, and — for the domain engine (:mod:`repro.parallel.domain`), the
one process transport — the shared-memory leak guard and the
retry-with-backoff supervision loop.
"""

from __future__ import annotations

import atexit
import os
import time

__all__ = [
    "LIVE_SEGMENTS",
    "attach_shm",
    "available_cores",
    "emit",
    "register_segment",
    "release_segment",
    "retry_with_backoff",
]


def available_cores() -> int:
    """CPUs this process may run on (affinity mask, not the box total)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


def emit(kind: str, **fields) -> None:
    """Publish a telemetry event (lazy import; no-op outside a run)."""
    try:
        from ..runtime.telemetry import emit_event
    except Exception:  # pragma: no cover - import cycles during teardown
        return
    emit_event(kind, **fields)


# -- shared-memory leak guard ------------------------------------------------
#
# Every segment an engine creates is registered here and deregistered on
# the normal release path; whatever is still registered when the process
# exits (crash mid-advect, exception between create and the finally) is
# unlinked by the atexit hook.  Without this, a SIGKILL'd run leaves
# /dev/shm blocks behind until reboot.

LIVE_SEGMENTS: dict[int, object] = {}


def register_segment(shm) -> None:
    LIVE_SEGMENTS[id(shm)] = shm


def release_segment(shm) -> None:
    """Close + unlink one segment, tolerating partial prior cleanup."""
    LIVE_SEGMENTS.pop(id(shm), None)
    try:
        shm.close()
    except BufferError:  # a view still alive; unlink still detaches the name
        pass
    try:
        shm.unlink()
    except FileNotFoundError:
        pass


@atexit.register
def _cleanup_leaked_segments() -> None:  # pragma: no cover - exit path
    for shm in list(LIVE_SEGMENTS.values()):
        release_segment(shm)


def attach_shm(name: str):
    """Attach to an existing segment by name (worker side)."""
    from multiprocessing import shared_memory

    try:  # Python >= 3.13: don't double-register with the resource tracker
        return shared_memory.SharedMemory(name=name, track=False)
    except TypeError:  # pragma: no cover - older interpreters
        return shared_memory.SharedMemory(name=name)


# -- supervision -------------------------------------------------------------


def retry_with_backoff(attempt, retryable, max_retries: int,
                       backoff_base: float, on_failure):
    """Call ``attempt()`` until it returns, rebuilding between failures.

    Each ``retryable`` exception is reported as ``on_failure(n, exc)``
    (the engine counts it, tears its workers down and publishes the
    event); the ``max_retries + 1``-th failure re-raises for the caller
    to degrade on, the others sleep ``backoff_base * 2**n`` seconds and
    try again on whatever ``attempt`` rebuilds.
    """
    delay = backoff_base
    for n in range(max_retries + 1):
        try:
            return attempt()
        except retryable as exc:
            on_failure(n, exc)
            if n >= max_retries:
                raise
            time.sleep(delay)
            delay *= 2.0
