"""Pluggable run executors: how one campaign point actually executes.

The scheduler only ever talks to the :class:`Executor` interface —
*execute this materialized run directory, tell me the exit code* — so
the execution substrate is swappable without touching scheduling,
manifest, or resume logic.  Two implementations ship:

:class:`ProcessExecutor` (``"processes"``, the default)
    One OS subprocess per run, driving the standard ``python -m repro
    run`` entry point.  Full isolation (a run that segfaults or is
    OOM-killed cannot take the campaign down — its death becomes a
    recorded exit code), true multi-core parallelism, and exactly the
    code path a human operator runs by hand.  In-flight children are
    tracked: ``close()`` (and a KeyboardInterrupt mid-``execute``)
    terminates and reaps them instead of orphaning processes that keep
    writing into run directories.

:class:`ThreadExecutor` (``"threads"``)
    A :class:`~repro.runtime.runner.SimulationRunner` in the calling
    thread.  No subprocess startup tax, which makes it the executor for
    tests and for the scheduling-overhead benchmark.  Safe for
    concurrent runs *because the telemetry event sink is contextual*
    (a contextvar, not a process global): each in-flight runner's
    subsystem events land in its own ``telemetry.jsonl``.

The supervision hooks (:meth:`Executor.request_drain` /
:meth:`Executor.request_kill`) are how the campaign watchdog reclaims
stalled runs (a run drains itself on its own wall-clock and RSS
budgets): drain is always available (the supervisor also writes the run
directory's ``DRAIN`` flag, which every runner honors), hard kill only
where the executor actually holds a process handle.
"""

from __future__ import annotations

import os
import subprocess
import sys
import threading
from pathlib import Path

__all__ = [
    "Executor",
    "ProcessExecutor",
    "ThreadExecutor",
    "build_executor",
]


class Executor:
    """Executes one materialized campaign run to its next stopping point.

    Implementations must be safe to call from multiple threads at once
    (the scheduler dispatches K concurrent ``execute`` calls) and must
    be *re-entrant per run directory*: executing a directory that
    already holds checkpoints resumes it — that contract is what makes
    campaign resume (and supervised retry) free, and all shipped
    executors inherit it from ``SimulationRunner``'s own auto-resume.
    """

    name = "abstract"

    def execute(self, run_dir: Path, config_path: Path,
                max_steps: int | None = None) -> int:
        """Run to completion (or drain); return the 0/75/70 exit code."""
        raise NotImplementedError

    def request_drain(self, run_dir: Path) -> None:
        """Ask the run to drain gracefully (beyond the ``DRAIN`` flag)."""

    def request_kill(self, run_dir: Path) -> bool:
        """Hard-kill the run if a handle exists; ``True`` when delivered."""
        return False

    def close(self) -> None:
        """Release executor-held resources (pools, children); idempotent."""


class ThreadExecutor(Executor):
    """In-process execution on the calling (scheduler worker) thread."""

    name = "threads"

    def execute(self, run_dir: Path, config_path: Path,
                max_steps: int | None = None) -> int:
        from ..runtime import RunConfig, SimulationRunner

        config = RunConfig.load(config_path)
        runner = SimulationRunner.create(config, run_dir)
        return runner.run(max_steps=max_steps)


class ProcessExecutor(Executor):
    """One subprocess per run through the ``repro run`` CLI.

    The child inherits this interpreter and environment, with the
    package root prepended to ``PYTHONPATH`` so a source-tree layout
    works without installation.  stdout/stderr are captured to
    ``executor.log`` inside the run directory — the campaign's analog
    of a batch scheduler's per-job log file.

    Every in-flight child is registered under its run directory:
    :meth:`request_drain`/:meth:`request_kill` deliver SIGTERM/SIGKILL
    for the supervisor, and :meth:`close` terminates and reaps whatever
    is still running — a scheduler that is interrupted must not leave
    orphans appending to run directories (and holding their locks
    against a later resume).
    """

    name = "processes"

    #: Seconds ``close()`` waits after SIGTERM before escalating.
    TERM_GRACE = 5.0

    def __init__(self) -> None:
        self._procs: dict[str, subprocess.Popen] = {}
        self._lock = threading.Lock()

    def execute(self, run_dir: Path, config_path: Path,
                max_steps: int | None = None) -> int:
        import repro

        env = dict(os.environ)
        package_root = str(Path(repro.__file__).resolve().parent.parent)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (package_root, env.get("PYTHONPATH")) if p
        )
        cmd = [sys.executable, "-m", "repro", "run", str(config_path),
               "--run-dir", str(run_dir)]
        if max_steps is not None:
            cmd += ["--max-steps", str(max_steps)]
        run_dir.mkdir(parents=True, exist_ok=True)
        key = str(Path(run_dir).resolve())
        with open(run_dir / "executor.log", "a", encoding="utf-8") as log:
            proc = subprocess.Popen(cmd, env=env, stdout=log,
                                    stderr=subprocess.STDOUT)
            with self._lock:
                self._procs[key] = proc
            try:
                return proc.wait()
            except KeyboardInterrupt:
                # interactive abort: this child must not outlive us
                self._reap(proc)
                raise
            finally:
                with self._lock:
                    self._procs.pop(key, None)

    # -- supervision hooks ----------------------------------------------

    def _proc_for(self, run_dir: Path) -> subprocess.Popen | None:
        with self._lock:
            return self._procs.get(str(Path(run_dir).resolve()))

    def request_drain(self, run_dir: Path) -> None:
        proc = self._proc_for(run_dir)
        if proc is not None and proc.poll() is None:
            proc.terminate()

    def request_kill(self, run_dir: Path) -> bool:
        proc = self._proc_for(run_dir)
        if proc is not None and proc.poll() is None:
            proc.kill()
            return True
        return False

    # -- lifecycle ------------------------------------------------------

    @staticmethod
    def _reap(proc: subprocess.Popen,
              grace: float = TERM_GRACE) -> None:
        """SIGTERM (drain), wait out the grace, SIGKILL, always wait()."""
        if proc.poll() is None:
            proc.terminate()
            try:
                proc.wait(timeout=grace)
            except subprocess.TimeoutExpired:
                proc.kill()
        proc.wait()

    def close(self) -> None:
        """Terminate and reap every in-flight child; idempotent."""
        with self._lock:
            procs = list(self._procs.values())
            self._procs.clear()
        for proc in procs:
            self._reap(proc)


_EXECUTORS = {cls.name: cls for cls in (ProcessExecutor, ThreadExecutor)}


def build_executor(name: str) -> Executor:
    """Instantiate a registered executor by name.

    Unknown names raise ``ValueError`` listing the valid choices.
    """
    try:
        cls = _EXECUTORS[name]
    except KeyError:
        raise ValueError(
            f"unknown executor {name!r}; expected one of "
            f"{tuple(_EXECUTORS)}"
        ) from None
    return cls()
