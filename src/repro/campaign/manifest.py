"""The persistent campaign manifest: ``campaign.json``.

One atomic JSON document per campaign directory, rewritten (tmp +
``os.replace``, the same dance as ``run.json`` and the checkpoints) at
**every** per-run state transition — a SIGKILL between any two
transitions leaves a complete, parseable manifest whose states are at
worst one transition stale, which resume reconciles against each run's
own ``run.json``.

Per-run states (:data:`RUN_STATES`):

``queued``
    Materialized on disk, not yet handed to an executor.
``running``
    Handed to an executor.  Only the scheduler holding the campaign
    directory's lock writes the manifest, so a ``running`` entry that a
    new scheduler finds was interrupted mid-run (its scheduler died)
    and is retried.
``failed``
    The executor returned nonzero; ``exit_code`` records the runtime
    layer's contract value (75 resumable drain, 70 guard abort) or the
    raw negative signal code of a killed subprocess.
``done``
    Exit 0 — the run's schedule completed and its final checkpoint is
    on disk.  Done runs are *never* re-executed.
"""

from __future__ import annotations

import json
import os
import threading
import time
from pathlib import Path

from ..io.atomic import atomic_write_json

__all__ = ["MANIFEST_NAME", "RUN_STATES", "CampaignManifest"]

MANIFEST_NAME = "campaign.json"

RUN_STATES = ("queued", "running", "failed", "done")


class CampaignManifest:
    """Owns ``campaign.json``: per-run state, saved on every transition."""

    def __init__(self, campaign_dir: str | Path, data: dict) -> None:
        self.campaign_dir = Path(campaign_dir)
        self.path = self.campaign_dir / MANIFEST_NAME
        self.data = data
        self._lock = threading.Lock()

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------

    @classmethod
    def create(cls, campaign_dir: str | Path, spec: dict,
               points) -> "CampaignManifest":
        """Fresh manifest: every point queued.  Saves immediately."""
        runs = {
            p.run_id: {
                "state": "queued",
                "exit_code": None,
                "run_dir": f"runs/{p.run_id}",
                "overrides": p.overrides,
                "attempts": 0,
                "updated": time.time(),
            }
            for p in points
        }
        manifest = cls(campaign_dir, {
            "format": 1,
            "name": spec.get("name", "campaign"),
            "spec": spec,
            "runs": runs,
            "updated": time.time(),
        })
        manifest.save()
        return manifest

    @classmethod
    def load(cls, campaign_dir: str | Path) -> "CampaignManifest":
        """Re-enter an existing campaign directory from its manifest."""
        campaign_dir = Path(campaign_dir)
        path = campaign_dir / MANIFEST_NAME
        if not path.exists():
            raise FileNotFoundError(
                f"{campaign_dir} has no {MANIFEST_NAME} manifest"
            )
        return cls(campaign_dir, json.loads(path.read_text()))

    # ------------------------------------------------------------------
    # state
    # ------------------------------------------------------------------

    @property
    def runs(self) -> dict:
        """The per-run state table (id -> entry), in point order."""
        return self.data["runs"]

    def run_dir(self, run_id: str) -> Path:
        """Absolute run directory of one point."""
        return self.campaign_dir / self.runs[run_id]["run_dir"]

    def mark(self, run_id: str, state: str,
             exit_code: int | None = None,
             outcome: dict | None = None) -> None:
        """One state transition, persisted atomically before returning.

        ``outcome`` is the supervisor's classified result, appended to
        the entry's ``history`` so ``campaign.json`` carries the full
        attempt record (class + reason per attempt) a post-mortem needs.
        """
        if state not in RUN_STATES:
            raise ValueError(f"unknown run state {state!r}; not in {RUN_STATES}")
        with self._lock:
            entry = self.runs[run_id]
            entry["state"] = state
            entry["exit_code"] = exit_code
            if state == "running":
                entry["attempts"] += 1
            if outcome is not None:
                entry.setdefault("history", []).append(
                    {"attempt": entry["attempts"], "state": state,
                     "time": time.time(), **outcome}
                )
            entry["updated"] = time.time()
            self.save()

    def record_dispatch(self, concurrency: int, executor: str) -> None:
        """Persist one scheduler invocation's effective dispatch plan.

        Every ``Campaign.run`` appends here, so the manifest records
        which backend and how many lanes actually executed the points —
        the provenance a reproducer needs when an aggregate looks off.
        """
        with self._lock:
            self.data.setdefault("dispatch", []).append({
                "time": time.time(),
                "executor": executor,
                "concurrency": int(concurrency),
                "pid": os.getpid(),
            })
            self.save()

    def reset_stale_running(self) -> list[str]:
        """Re-queue every ``running`` entry; returns their run ids.

        Called by the scheduler holding the campaign directory's lock:
        no other scheduler is alive, so each ``running`` entry is a
        point whose scheduler died between transitions.
        """
        reset = []
        with self._lock:
            for run_id, entry in self.runs.items():
                if entry["state"] != "running":
                    continue
                entry["state"] = "queued"
                entry["exit_code"] = None
                entry["updated"] = time.time()
                reset.append(run_id)
            if reset:
                self.save()
        return reset

    def pending(self) -> list[str]:
        """Run ids still owed work (everything not ``done``), in order."""
        return [rid for rid, e in self.runs.items() if e["state"] != "done"]

    def counts(self) -> dict[str, int]:
        """How many runs sit in each state (zero-count states included)."""
        out = {state: 0 for state in RUN_STATES}
        for entry in self.runs.values():
            out[entry["state"]] += 1
        return out

    @property
    def status(self) -> str:
        """Campaign-level rollup: complete | failed | partial | queued."""
        counts = self.counts()
        total = sum(counts.values())
        if counts["done"] == total:
            return "complete"
        if counts["failed"]:
            return "failed"
        if counts["done"] or counts["running"]:
            return "partial"
        return "queued"

    def save(self) -> None:
        """Atomically rewrite ``campaign.json`` (tmp + rename)."""
        self.data["updated"] = time.time()
        atomic_write_json(self.path, self.data)
