"""Spawn one command from a process too small to matter, and time it.

``python e2e_spawn.py <log> <command...>`` runs the command to
completion with its output appended to ``<log>`` and prints one JSON
object: spawn-to-exit wall-clock, both stamps (``time.monotonic``, one
clock for every process on the host), exit code and ``ru_maxrss``.

Why a process of its own: Linux carries a process's peak RSS across
``exec``, so a child's ``ru_maxrss`` is never below what its parent held
when it spawned it.  The benchmark process parses megabytes of telemetry
and grows past plasma_long's 91 MB; this one stays near 10 MB, below
every workload.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time


def main(argv: list[str]) -> int:
    log, command = argv[0], argv[1:]
    with open(log, "ab") as fh:
        t_spawn = time.monotonic()
        proc = subprocess.Popen(command, stdout=fh, stderr=subprocess.STDOUT,
                                stdin=subprocess.DEVNULL)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        t_exit = time.monotonic()
    proc.returncode = os.waitstatus_to_exitcode(status)
    print(json.dumps({
        "wall_s": t_exit - t_spawn,
        "exit_code": proc.returncode,
        "maxrss_mb": usage.ru_maxrss / 1024.0,  # KiB on Linux
        "t_spawn": t_spawn,
        "t_exit": t_exit,
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
