"""``io.atomic.directory_lock``: one writer per run or campaign directory.

The lock is an ``flock`` the kernel drops when its holder dies, so a
SIGKILLed runner or scheduler never strands its directory — provided no
forked child (the domain engine's workers) kept a copy of the
descriptor.
"""

from __future__ import annotations

import multiprocessing as mp
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.io.atomic import LOCK_NAME, DirectoryLocked, directory_lock

SRC = Path(__file__).resolve().parents[1] / "src"


def test_second_holder_refused_until_the_first_leaves(tmp_path):
    with directory_lock(tmp_path):
        with pytest.raises(DirectoryLocked, match="locked by another process"):
            with directory_lock(tmp_path):
                pass  # pragma: no cover - never entered
    with directory_lock(tmp_path):
        pass
    assert (tmp_path / LOCK_NAME).exists()  # never unlinked


def _idle(ready) -> None:
    ready.set()
    time.sleep(30.0)


@pytest.mark.skipif("fork" not in mp.get_all_start_methods(),
                    reason="needs the fork start method")
def test_a_forked_child_does_not_keep_the_lock(tmp_path):
    """The domain engine forks its workers while the runner holds the
    run directory: an orphaned worker must not hold it after its
    parent is gone."""
    ctx = mp.get_context("fork")
    ready = ctx.Event()
    with directory_lock(tmp_path):
        child = ctx.Process(target=_idle, args=(ready,), daemon=True)
        child.start()
        assert ready.wait(timeout=30.0)  # the child is past its fork
    try:
        assert child.is_alive()
        with directory_lock(tmp_path):
            pass
    finally:
        child.kill()
        child.join()


def test_a_killed_holder_releases_the_lock(tmp_path):
    env = dict(os.environ, PYTHONPATH=str(SRC))
    holder = subprocess.Popen(
        [sys.executable, "-c",
         "import sys, time\n"
         "from repro.io.atomic import directory_lock\n"
         "with directory_lock(sys.argv[1]):\n"
         "    print('held', flush=True)\n"
         "    time.sleep(60)\n",
         str(tmp_path)],
        env=env, stdout=subprocess.PIPE, text=True,
    )
    try:
        assert holder.stdout.readline() == "held\n"
        with pytest.raises(DirectoryLocked):
            with directory_lock(tmp_path):
                pass  # pragma: no cover - never entered
        holder.kill()
        holder.wait(timeout=30)
        with directory_lock(tmp_path):
            pass
    finally:
        if holder.poll() is None:
            holder.kill()
            holder.wait()
        holder.stdout.close()
