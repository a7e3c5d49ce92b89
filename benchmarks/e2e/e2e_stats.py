"""Pure helpers: the median/percentile rule, run-to-run spread, span self time.

Nothing here imports numpy or the program under test, so the smoke job
can unit-test the arithmetic the benchmark's verdicts rest on.
"""

from __future__ import annotations

import statistics

#: Percentiles a timing may be reported at, lowest first, in per mille
#: (integers, so "ten samples beyond" is an exact comparison).
_PER_MILLE = (500, 750, 900, 950, 990, 999)


def median(values) -> float:
    """Median of a non-empty sequence (the paper's reported statistic)."""
    return float(statistics.median(values))


def percentile(values, p: float) -> float:
    """The p-th percentile by linear interpolation between order statistics."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("no samples")
    rank = (len(ordered) - 1) * p / 100.0
    lo = int(rank)
    hi = min(lo + 1, len(ordered) - 1)
    return float(ordered[lo] + (ordered[hi] - ordered[lo]) * (rank - lo))


def tail_percentile(values) -> tuple[float, float] | None:
    """The highest percentile with at least ten samples beyond it.

    Returns ``(p, value)``, or None when even the median has fewer than
    ten samples above it (n < 20): a tail read off fewer samples than
    that is one slow step, not a percentile.
    """
    n = len(values)
    eligible = [pm for pm in _PER_MILLE if n * (1000 - pm) >= 10 * 1000]
    if not eligible:
        return None
    best = eligible[-1] / 10.0
    return best, percentile(values, best)


def spread(values) -> float:
    """Interquartile distance as a share of the median.

    The driver's steadiness measure: ``statistics.quantiles(values,
    n=4)`` gives the quartiles; fewer than two values have no spread.
    """
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / median(values)


def worsening(first: float, second: float, better: str = "lower") -> float:
    """By what share of ``first`` the ``second`` reading is worse (<0: better)."""
    if better == "higher":
        first, second = second, first
    return (second - first) / first


def _covered(intervals: list[tuple[float, float]]) -> float:
    """Total length of the union of intervals."""
    total = 0.0
    reach = float("-inf")
    for start, end in sorted(intervals):
        if end <= reach:
            continue
        total += end - max(start, reach)
        reach = end
    return total


def span_self_times(spans: list[dict]) -> list[float]:
    """Self time of every span: its duration minus what its children cover.

    ``spans`` are dicts with ``start``, ``end`` and ``parent`` (an index
    into the same list, or None for a root).  Children are clipped to
    the parent's interval and overlapping children are counted once.
    """
    children: list[list[tuple[float, float]]] = [[] for _ in spans]
    for span in spans:
        parent = span["parent"]
        if parent is not None:
            p = spans[parent]
            start = max(span["start"], p["start"])
            end = min(span["end"], p["end"])
            if end > start:
                children[parent].append((start, end))
    return [
        (span["end"] - span["start"]) - _covered(children[i])
        for i, span in enumerate(spans)
    ]


def self_time_by_name(spans: list[dict]) -> dict[str, float]:
    """Self time summed per span name."""
    out: dict[str, float] = {}
    for span, self_s in zip(spans, span_self_times(spans)):
        out[span["name"]] = out.get(span["name"], 0.0) + self_s
    return out


def closure(spans: list[dict], unattributed_names: tuple[str, ...]) -> tuple[float, float]:
    """``(accounted fraction, unattributed seconds)`` of a span tree.

    The total is the duration of the root spans; self time under any
    name in ``unattributed_names`` (the root itself, and glue spans that
    name no layer) is the gap, everything else is accounted for.
    """
    total = sum(s["end"] - s["start"] for s in spans if s["parent"] is None)
    if total <= 0.0:
        raise ValueError("span tree has no root duration")
    by_name = self_time_by_name(spans)
    gap = sum(by_name.get(name, 0.0) for name in unattributed_names)
    return 1.0 - gap / total, gap
