"""Append-only JSONL telemetry for production runs.

One JSON object per line, one line per step, flushed as written — the
stream survives a SIGKILL mid-run with at most the current line lost,
and ``tail -f telemetry.jsonl`` is the live dashboard.  The paper's
monitoring discipline (wall-clock per section, conserved quantities,
I/O volume along the restart chain) maps onto the record fields below.

Every record carries exactly the keys in :data:`TELEMETRY_FIELDS` (the
schema documented in ``docs/RUNTIME.md``; the tests assert the match):

``step``
    1-based step number within the run's schedule.
``coord``
    The driver's clock: ``{"t": ...}`` (plasma/static) or ``{"a": ...}``.
``dt``
    Step size in the driver's clock (da for scale-factor schedules).
``wall_s``
    Wall-clock seconds this step took (driver work only).
``conserved``
    Current values of the tracked conserved quantities.
``drifts``
    Worst drift per quantity so far (`ConservationLedger.as_dict`).
``sections``
    Per-step wall-clock deltas of the named `StepTimer` sections.
``fft``
    Cumulative `SpectralBackend` transform counters.
``io``
    Cumulative checkpoint/snapshot bytes and seconds (`IOTimer`).
``rss_mb``
    Peak resident set size of the process so far [MB].
``guards``
    Guard reports fired this step (empty list when healthy).

Besides the per-step records the stream also carries **event records**
(fault injections, worker-pool degradations, checkpoint quarantines,
rollback attempts, and the serving tier's ``diagnostics_enqueued`` /
``diagnostics_written`` / ``diagnostics_dropped`` /
``diagnostics_error`` / ``diagnostics_closed`` lifecycle): one JSON
object per event with an ``"event"`` key naming the kind plus
free-form fields.  Events interleave with step
records in arrival order; :func:`read_events` filters them back out and
:func:`summarize` reports them separately, so the per-step schema stays
strict.  The campaign tier reuses this writer for its own stream —
``<campaign_dir>/supervisor.jsonl`` carries the ``lease_*``
(``lease_acquired`` / ``lease_released`` / ``lease_expired`` /
``lease_reclaimed``) and ``supervision_*`` (``dispatch`` / ``stalled``
/ ``over_wall`` / ``over_rss`` / ``drain`` / ``kill`` / ``retry`` /
``outcome`` / ``degrade``) event kinds emitted by
:class:`repro.campaign.supervision.Supervisor`.  Subsystems that cannot hold a writer (the pencil engine, the
FFT backend) publish through the **contextual** sink installed by the
runner (:func:`set_event_sink` / :func:`emit_event`); with no sink
installed events are dropped, which keeps library use dependency-free.

The sink is a :class:`contextvars.ContextVar`, not a module global:
each thread (and each ``asyncio`` task) sees only the sink installed in
its own context, so two :class:`~repro.runtime.runner.SimulationRunner`
instances driving concurrent campaign runs in one process cannot
interleave each other's events into the wrong ``telemetry.jsonl``.
Subsystem code is unaffected — engine degradations, worker failures
and rollbacks are emitted from the thread driving that run, which is
exactly the context whose sink points at that run's stream.
"""

from __future__ import annotations

import contextvars
import json
import sys
import threading
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Callable, Iterator

import numpy as np

#: The per-step record schema, in canonical order.
TELEMETRY_FIELDS = (
    "step",
    "coord",
    "dt",
    "wall_s",
    "conserved",
    "drifts",
    "sections",
    "fft",
    "io",
    "rss_mb",
    "guards",
)


def peak_rss_mb() -> float:
    """Peak resident set size of this process [MB] (0.0 if unavailable)."""
    try:
        import resource
    except ImportError:  # pragma: no cover - non-POSIX
        return 0.0
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    # ru_maxrss is KiB on Linux, bytes on macOS
    scale = 1.0 / 1024.0 if sys.platform != "darwin" else 1.0 / (1024.0 * 1024.0)
    return float(peak) * scale


class _JsonSanitizer(json.JSONEncoder):
    """Make numpy scalars and non-finite floats JSON-safe."""

    def default(self, o):
        if isinstance(o, (np.integer,)):
            return int(o)
        if isinstance(o, (np.floating,)):
            return float(o)
        return super().default(o)


# ----------------------------------------------------------------------
# the contextual event sink
# ----------------------------------------------------------------------
#
# Historically this was a module global, which made the sink
# process-wide: two runners in one process (threads of a campaign)
# overwrote each other's sink and every subsystem event landed in
# whichever telemetry stream installed its sink last.  A ContextVar
# scopes the sink to the installing thread/task instead; new threads
# start with no sink (the library-use default) until their runner
# installs one.

_EVENT_SINK: contextvars.ContextVar[Callable[..., None] | None] = (
    contextvars.ContextVar("repro_event_sink", default=None)
)


def set_event_sink(sink: Callable[..., None] | None) -> Callable[..., None] | None:
    """Install (or with ``None`` remove) the *contextual* event sink.

    The sink is called as ``sink(kind, **fields)`` and is visible only
    to the current thread / async task (and contexts copied from it) —
    concurrent runners in one process each see their own.  Returns the
    previous sink so callers (the runner) can restore it on exit.
    """
    previous = _EVENT_SINK.get()
    _EVENT_SINK.set(sink)
    return previous


@contextmanager
def event_sink(sink: Callable[..., None] | None):
    """Scoped :func:`set_event_sink`: install for the block, then restore."""
    token = _EVENT_SINK.set(sink)
    try:
        yield sink
    finally:
        _EVENT_SINK.reset(token)


def emit_event(kind: str, /, **fields) -> None:
    """Publish one event to the context's sink (no-op without one).

    Never raises: telemetry must not be able to take down the
    simulation it is observing.
    """
    sink = _EVENT_SINK.get()
    if sink is None:
        return
    try:
        sink(kind, **fields)
    except Exception:  # pragma: no cover - defensive
        pass


class TelemetryWriter:
    """Append-only JSONL writer with per-record flush.

    Writes are serialized by a lock: the diagnostics pipeline's worker
    thread publishes ``diagnostics_*`` events through :meth:`event`
    while the runner's thread appends step records, and two interleaved
    ``write`` calls would tear both lines.
    """

    def __init__(self, path: str | Path) -> None:
        self.path = Path(path)
        self._fh = open(self.path, "a", encoding="utf-8")
        self._lock = threading.Lock()

    def event(self, kind: str, /, **fields) -> None:
        """Write one event record (``{"event": kind, ...fields}``).

        Events are schema-free apart from the ``event`` key and a
        wall-clock ``when`` stamp; they interleave with step records and
        are filtered back out by :func:`read_events`.  Thread-safe — the
        diagnostics worker calls this concurrently with :meth:`append`.
        """
        record = {"event": kind, "when": time.time(), **fields}
        line = json.dumps(record, cls=_JsonSanitizer) + "\n"
        with self._lock:
            if self._fh.closed:  # worker outliving the stream loses the event
                return
            self._fh.write(line)
            self._fh.flush()

    def append(self, record: dict) -> None:
        """Write one record (keys must match :data:`TELEMETRY_FIELDS`)."""
        missing = set(TELEMETRY_FIELDS) - set(record)
        extra = set(record) - set(TELEMETRY_FIELDS)
        if missing or extra:
            raise ValueError(
                f"telemetry record schema mismatch: missing={sorted(missing)} "
                f"extra={sorted(extra)}"
            )
        ordered = {key: record[key] for key in TELEMETRY_FIELDS}
        line = json.dumps(ordered, cls=_JsonSanitizer) + "\n"
        with self._lock:
            self._fh.write(line)
            self._fh.flush()

    def close(self) -> None:
        """Close the stream (idempotent)."""
        with self._lock:
            if not self._fh.closed:
                self._fh.close()

    def __enter__(self) -> "TelemetryWriter":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def iter_records(path: str | Path) -> Iterator[dict]:
    """Yield every parseable record of a telemetry stream, in order.

    Streams the file line by line (a week-long run's telemetry never
    needs to fit in memory) and skips anything torn: a line that does
    not decode (the process died mid-write, the exact case the format
    exists for) or decodes to something other than an object.  A *step*
    record that decodes but is missing schema fields — a truncation that
    happened to land on a ``}`` — is yielded as-is; step-record
    consumers filter with :func:`_is_complete_step`.
    """
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError:
                continue
            if isinstance(record, dict):
                yield record


def _is_complete_step(record: dict) -> bool:
    """Whether a non-event record carries the full per-step schema.

    A torn final line can truncate to *valid* JSON (the cut landing just
    after a closing brace); such a record parses but must be treated
    exactly like an unparsable tail — skipped, not raised on.
    """
    return all(key in record for key in TELEMETRY_FIELDS)


def read_telemetry(path: str | Path) -> list[dict]:
    """Load every complete *step* record of a telemetry stream.

    A trailing partial line (the process died mid-write) is skipped
    rather than raised on — exactly the case the format exists for.
    Event records (see :func:`read_events`) are filtered out so every
    returned record carries the full :data:`TELEMETRY_FIELDS` schema.
    """
    return [r for r in iter_records(path)
            if "event" not in r and _is_complete_step(r)]


def read_events(path: str | Path, kind: str | None = None) -> list[dict]:
    """Load the event records of a telemetry stream, oldest first.

    ``kind`` filters to one event kind (``"fault_injected"``,
    ``"rollback"``, ``"domain_degraded"``, ...).
    """
    events = [r for r in iter_records(path) if "event" in r]
    if kind is not None:
        events = [e for e in events if e["event"] == kind]
    return events


def summarize(path: str | Path) -> dict:
    """Reduce a telemetry stream to the run-level numbers that matter.

    Returns steps covered, total/median wall-clock per step, the final
    coordinate, worst drifts, cumulative I/O bytes, and cumulative FFT
    transform counts — the shape of the paper's per-run reporting
    (end-to-end time *including I/O*).  Fault-tolerance activity is
    reported alongside: ``events`` counts every event record by kind
    (fault injections, engine degradations, quarantines) and
    ``recoveries`` counts completed rollback restores.
    When the run used the domain engine (any ``domain_*`` event or
    ``domain/*`` timer section), ``domain`` rolls them up: halo
    exchanges and bytes, gathers/scatters (residency violations when
    nonzero mid-run), worker failures and degradations,
    and the cumulative seconds of every ``domain/*`` section
    (``interior``).

    The stream is folded in a single line-by-line pass — full records
    are never accumulated — and a torn tail (SIGKILL mid-write, whether
    it truncates to invalid *or* valid JSON) is skipped, so summarizing
    the telemetry of a killed run can never raise.
    """
    steps = 0
    first_step = None
    last: dict | None = None
    walls: list[float] = []
    worst: dict[str, float] = {}
    guard_events = 0
    by_kind: dict[str, int] = {}
    domain_halo_bytes = domain_halo_exchanges = 0
    domain_sections: dict[str, float] = {}
    for r in iter_records(path):
        if "event" in r:
            by_kind[r["event"]] = by_kind.get(r["event"], 0) + 1
            if r["event"] == "domain_halo_exchange":
                domain_halo_exchanges += 1
                domain_halo_bytes += int(r.get("nbytes", 0))
            continue
        if not _is_complete_step(r):  # torn tail
            continue
        steps += 1
        if first_step is None:
            first_step = r["step"]
        last = r
        walls.append(r["wall_s"])
        for key, row in r["drifts"].items():
            drift = row["drift"] if isinstance(row, dict) else row
            worst[key] = max(worst.get(key, 0.0), drift)
        guard_events += len(r["guards"])
        for name, seconds in r["sections"].items():
            if name.startswith("domain/"):
                short = name.split("/", 1)[1]
                domain_sections[short] = (
                    domain_sections.get(short, 0.0) + float(seconds)
                )
    domain = None
    if domain_sections or any(k.startswith("domain_") for k in by_kind):
        domain = {
            "halo_exchanges": domain_halo_exchanges,
            "halo_bytes": domain_halo_bytes,
            "gathers": by_kind.get("domain_gather", 0),
            "scatters": by_kind.get("domain_scatter", 0),
            "worker_failures": by_kind.get("domain_worker_failure", 0),
            "degradations": by_kind.get("domain_degraded", 0),
            "section_seconds": domain_sections,
        }
    if last is None:
        if not by_kind:
            return {"steps": 0}
        out = {"steps": 0, "events": by_kind,
               "recoveries": by_kind.get("rollback", 0)}
        if domain is not None:
            out["domain"] = domain
        return out
    summary = {
        "steps": steps,
        "first_step": first_step,
        "last_step": last["step"],
        "last_coord": last["coord"],
        "wall_s_total": float(sum(walls)),
        "wall_s_median": float(np.median(walls)),
        "max_drifts": worst,
        "io": last["io"],
        "fft": last["fft"],
        "rss_mb": last["rss_mb"],
        "guard_events": guard_events,
    }
    if by_kind:
        summary["events"] = by_kind
        summary["recoveries"] = by_kind.get("rollback", 0)
    if domain is not None:
        summary["domain"] = domain
    return summary
