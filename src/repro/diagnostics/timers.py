"""Hierarchical wall-clock timers (the paper's measurement mechanism).

The paper: "The performance is evaluated in terms of wall clock elapsed
time measured with the clock_gettime() system call ... we run the
simulations by 40 steps and take the median values."  This module
provides the same discipline: named sections, nesting, per-step laps,
median/percentile reporting.
"""

from __future__ import annotations

import math
import time
from collections import deque
from contextlib import nullcontext
from dataclasses import dataclass, field

import numpy as np

#: Laps a section keeps for its median — the paper's "40 steps, median".
MEDIAN_LAPS = 40


def section(timer: "StepTimer | None", name: str):
    """``timer.section(name)``, or a no-op context when there is no timer."""
    return timer.section(name) if timer is not None else nullcontext()


@dataclass
class SectionStats:
    """Lap times of one named section.

    Bounded however long the run: ``laps`` keeps the last
    :data:`MEDIAN_LAPS` laps, the window ``median`` reads, while
    ``count`` and ``total`` run over every lap.
    """

    laps: deque = field(default_factory=deque)
    count: int = field(default=0, init=False)
    _total: float = field(default=0.0, init=False, repr=False)

    def __post_init__(self) -> None:
        self.count = len(self.laps)
        self._total = float(sum(self.laps))
        self.laps = deque(self.laps, maxlen=MEDIAN_LAPS)

    def add(self, seconds: float) -> None:
        """Record one lap."""
        self.laps.append(seconds)
        self.count += 1
        self._total += seconds

    @property
    def total(self) -> float:
        """Sum of every lap — a running sum, so per-step reads stay O(1)."""
        return self._total

    @property
    def median(self) -> float:
        """Median of the last :data:`MEDIAN_LAPS` laps (the paper's
        reported statistic)."""
        if not self.laps:
            raise ValueError("no laps recorded")
        return float(np.median(self.laps))


class StepTimer:
    """Named, nestable wall-clock sections.

    Nested sections are qualified with their parent's name, so the same
    leaf timed under two parents stays distinguishable (``step/drift``
    vs ``warmup/drift``).  A name that already carries its parent's
    prefix — e.g. the explicit ``vlasov/drift`` below — is kept as-is,
    so both spelling styles produce the same keys::

        timer = StepTimer()
        with timer.section("vlasov"):
            with timer.section("vlasov/drift"):   # or just "drift"
                ...
        timer.median("vlasov/drift")
        print(timer.report())
    """

    def __init__(self) -> None:
        self.sections: dict[str, SectionStats] = {}
        self._stack: list[str] = []
        #: (parent, name) -> qualified name; a run enters the same few
        #: sections every step, so each is qualified once
        self._names: dict[tuple[str, str], str] = {}
        self.set_heartbeat(None)

    def set_heartbeat(self, beat, every: float = 0.0) -> None:
        """Call ``beat()`` at a section exit at most once per ``every``
        seconds (``beat=None``: never).  A run's progress signal from
        inside a step: it beats as often as sweeps end, not steps."""
        self._beat, self._beat_every = beat, every
        self._next_beat = -math.inf if beat is not None else math.inf

    def section(self, name: str) -> "_Section":
        """Time a code block under ``name`` (qualified as parent/name
        when nested inside another section).  The lap is recorded when
        the block exits, also when it raises."""
        parent = self._stack[-1] if self._stack else ""
        qualified = self._names.get((parent, name))
        if qualified is None:
            qualified = name
            if parent and not name.startswith(parent + "/"):
                qualified = f"{parent}/{name}"
            self._names[parent, name] = qualified
        return _Section(self, qualified)

    def add(self, name: str, seconds: float) -> None:
        """Record one externally measured lap under ``name`` (verbatim).

        Unlike :meth:`section`, the name is *not* qualified against the
        active section stack: callers that merge laps measured elsewhere
        (worker processes reporting ``domain/interior`` time, say) want a
        stable key regardless of which section the merge happens under.
        """
        stats = self.sections.get(name)
        if stats is None:  # not setdefault: it would build a SectionStats per lap
            stats = self.sections[name] = SectionStats()
        stats.add(float(seconds))

    def median(self, name: str) -> float:
        """Median lap of a section."""
        if name not in self.sections:
            raise KeyError(f"no section named {name!r}")
        return self.sections[name].median

    def report(self) -> str:
        """Text table: section, laps, median, total."""
        lines = [f"{'section':<28} {'laps':>5} {'median[s]':>10} {'total[s]':>10}"]
        for name in sorted(self.sections):
            s = self.sections[name]
            lines.append(
                f"{name:<28} {s.count:>5} {s.median:>10.4f} {s.total:>10.3f}"
            )
        return "\n".join(lines)


class _Section:
    """One timed block of a :class:`StepTimer` (a plain context manager:
    no generator frame to build and resume per block)."""

    __slots__ = ("timer", "name", "t0")

    def __init__(self, timer: StepTimer, name: str) -> None:
        self.timer = timer
        self.name = name

    def __enter__(self) -> None:
        self.timer._stack.append(self.name)
        self.t0 = time.perf_counter()

    def __exit__(self, *exc) -> None:
        now = time.perf_counter()
        timer = self.timer
        timer.add(self.name, now - self.t0)
        timer._stack.pop()
        if now >= timer._next_beat:
            timer._next_beat = now + timer._beat_every
            timer._beat()


def _finite_or_inf(drift: float) -> float:
    """``drift``, with NaN read as an infinite drift."""
    return drift if drift <= math.inf else math.inf


@dataclass
class ConservationLedger:
    """Tracks conserved quantities across a run.

    Register the initial values once; :meth:`relative_drift` returns the
    worst drift so far — the tests assert it stays within scheme
    guarantees (mass: machine epsilon; energy: splitting-order drift).

    Drift semantics are explicit about the zero-initial-value corner: a
    quantity registered at ``q0 != 0`` reports the *relative* drift
    ``max |q/q0 - 1|``, while one registered at exactly ``q0 == 0`` (net
    momentum of a symmetric IC, say) has no meaningful relative scale and
    reports the *absolute* excursion ``max |q|`` instead.
    :meth:`is_relative` tells the caller which of the two a key uses, so
    thresholds are never compared against the wrong kind silently.

    Nothing grows with the run: per quantity the ledger keeps the
    initial and latest values and the running worst drift, so every
    read is O(1) and a thousand-step run holds as much as a one-step
    run.
    """

    initial: dict[str, float] = field(default_factory=dict)
    latest: dict[str, float] = field(default_factory=dict)
    _worst: dict[str, float] = field(default_factory=dict, repr=False)

    def register(self, **quantities: float) -> None:
        """Record initial values."""
        for key, value in quantities.items():
            value = float(value)
            self.initial[key] = self.latest[key] = value
            self._worst[key] = self._one_drift(key, value)

    def update(self, **quantities: float) -> None:
        """Record current values.

        A non-finite value is recorded as it is and makes the worst
        drift infinite: a NaN compares false against every threshold,
        so left as a drift it would never trip a guard.
        """
        for key, value in quantities.items():
            if key not in self.initial:
                raise KeyError(f"{key!r} was never registered")
            value = self.latest[key] = float(value)
            drift = self._one_drift(key, value)
            if drift > self._worst[key]:
                self._worst[key] = drift

    def _one_drift(self, key: str, value: float) -> float:
        q0 = self.initial[key]
        if q0 == 0.0:
            return _finite_or_inf(abs(value))
        return _finite_or_inf(abs(value / q0 - 1.0))

    def is_relative(self, key: str) -> bool:
        """Whether this key's drift is relative (q0 != 0) or absolute."""
        if key not in self.initial:
            raise KeyError(f"{key!r} was never registered")
        return self.initial[key] != 0.0

    def relative_drift(self, key: str) -> float:
        """Largest |q/q0 - 1| seen (|q| when q0 == 0 — see class docs)."""
        if key not in self.initial:
            raise KeyError(f"{key!r} was never registered")
        return self._worst[key]

    #: Alias making the mixed semantics visible at call sites.
    drift = relative_drift

    def as_dict(self) -> dict[str, dict]:
        """Machine-readable export (the telemetry stream's ``drifts``).

        One entry per registered quantity: initial and latest values,
        the worst drift, and whether that drift is relative.
        """
        return {
            key: {
                "initial": self.initial[key],
                "latest": self.latest[key],
                "drift": self._worst[key],
                "relative": self.initial[key] != 0.0,
            }
            for key in self.initial
        }

    def report(self) -> str:
        """Text table: quantity, initial, latest, worst drift."""
        lines = [f"{'quantity':<16} {'initial':>14} {'latest':>14} {'drift':>10} kind"]
        for key, row in self.as_dict().items():
            kind = "rel" if row["relative"] else "abs"
            lines.append(
                f"{key:<16} {row['initial']:>14.6e} {row['latest']:>14.6e} "
                f"{row['drift']:>10.3e} {kind}"
            )
        return "\n".join(lines)
