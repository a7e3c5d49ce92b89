"""Smoke job for the end-to-end benchmark (``benchmarks/e2e/run.py``).

Runs all five workloads shrunk to a few steps with every correctness
gate on and every timing bound off, asserts that the metric and workload
names the benchmark prints are exactly those ``BENCHMARK.json`` declares,
and unit-tests the pure helpers the verdicts rest on.

Opt-in like the other perf jobs: skipped unless ``REPRO_BENCH=1``; the CI
``perf-smoke`` job (``REPRO_BENCH=1 REPRO_BENCH_SMOKE=1 pytest
benchmarks``) picks it up unchanged.  Tier-1 collects only ``tests/``.
"""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import e2e_stats as stats
import e2e_workloads as wl

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())

pytestmark = [
    pytest.mark.bench,
    pytest.mark.skipif(
        os.environ.get("REPRO_BENCH", "") != "1",
        reason="benchmark job: set REPRO_BENCH=1 to run",
    ),
]


def test_benchmark_json_names_the_workloads():
    assert [(w["name"], w["why"]) for w in BENCHMARK["workloads"]] == [
        (w.name, w.why) for w in wl.WORKLOADS
    ]
    assert BENCHMARK["paths"] == ["benchmarks/e2e"]
    assert [m["name"] for m in BENCHMARK["end_to_end"]] == [
        "tts_s", "step_s", "setup_s", "peak_rss_mb"]


def test_smoke_set_prints_exactly_the_declared_metrics(tmp_path):
    out = tmp_path / "set.json"
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--seed", "7", "--smoke",
         "--out", str(out)],
        capture_output=True, text=True, timeout=900,
    )
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]
    record = json.loads(out.read_text())
    cores = record["fingerprint"]["cores_available"]

    printed: dict[str, set] = {}
    for line in proc.stdout.splitlines():
        match = re.match(r"^(\w+)\.([\w.]+) = \S+ \S+$", line)
        if match and match.group(1) in wl.BY_NAME:
            printed.setdefault(match.group(1), set()).add(match.group(2))
    declared = ({m["name"] for m in BENCHMARK["end_to_end"]}
                | {m["name"] for m in BENCHMARK["per_layer"]}
                | {"ops_attempted", "ops_failed"})
    ran = [w.name for w in wl.WORKLOADS if cores >= w.min_cores]
    assert sorted(printed) == sorted(ran)
    for name in ran:
        assert printed[name] == declared, (
            name, printed[name] ^ declared)

    for workload in wl.WORKLOADS:
        result = record["workloads"][workload.name]
        if cores < workload.min_cores:
            assert result == {"skipped": "cores"}
            continue
        for part in ("e2e", "layers"):
            assert result[part]["ops_failed"] == 0, result[part]["failures"]
            assert result[part]["ops_attempted"] > 0
        assert result["layers"]["metrics"]["trace.accounted_frac"] >= 0.95
    assert record["cross"]["ops_failed"] == 0, record["cross"]["failures"]
    # nothing is left in the tree
    assert not (HERE / ".work").exists()


def test_contract_line_lists_every_declared_metric():
    for trace, key in (("0", "end_to_end"), ("1", "per_layer")):
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--seed", "3", "--smoke",
             "--workload", "plasma_long", "--seconds", "1", "--trace", trace],
            capture_output=True, text=True, timeout=300,
        )
        assert proc.returncode == 0, proc.stderr[-3000:]
        last = json.loads(proc.stdout.strip().splitlines()[-1])
        assert set(last) == {"correct", "attempted", "failed", "metrics"}
        assert last["correct"] is True and last["failed"] == 0
        assert last["attempted"] >= 1
        declared = {m["name"]: m["unit"] for m in BENCHMARK[key]}
        assert {k: v["unit"] for k, v in last["metrics"].items()} == declared


# ----------------------------------------------------------------------
# the pure helpers
# ----------------------------------------------------------------------


def test_median_and_percentile():
    assert stats.median([3.0, 1.0, 2.0]) == 2.0
    assert stats.median([1.0, 2.0, 3.0, 10.0]) == 2.5
    values = list(range(101))
    assert stats.percentile(values, 50) == 50
    assert stats.percentile(values, 99) == 99
    assert stats.percentile([1.0, 3.0], 50) == 2.0


def test_tail_percentile_needs_ten_samples_beyond():
    assert stats.tail_percentile(list(range(19))) is None
    assert stats.tail_percentile(list(range(20)))[0] == 50.0
    assert stats.tail_percentile(list(range(40)))[0] == 75.0
    assert stats.tail_percentile(list(range(200)))[0] == 95.0
    assert stats.tail_percentile(list(range(5999)))[0] == 99.0
    assert stats.tail_percentile(list(range(10000)))[0] == 99.9


def test_spread_is_iqr_over_median():
    import statistics

    values = [10.0, 10.2, 9.9, 10.1, 10.4, 9.8, 10.0, 10.3, 9.7, 10.05]
    q1, _, q3 = statistics.quantiles(values, n=4)
    assert stats.spread(values) == pytest.approx(
        (q3 - q1) / statistics.median(values))
    assert stats.spread([5.0]) == 0.0


def test_worsening_respects_direction():
    assert stats.worsening(10.0, 11.0) == pytest.approx(0.10)
    assert stats.worsening(10.0, 9.0) == pytest.approx(-0.10)
    assert stats.worsening(10.0, 8.0, better="higher") == pytest.approx(0.25)


def _span(name, start, end, parent):
    return {"name": name, "start": start, "end": end, "parent": parent}


def test_span_self_time_subtracts_covered_children():
    spans = [
        _span("launch", 0.0, 10.0, None),
        _span("import", 0.0, 1.0, 0),
        _span("cli.main", 1.0, 9.5, 0),
        _span("stepper.advance", 2.0, 6.0, 2),
        _span("solver.kick", 2.0, 4.0, 3),
        _span("solver.kick", 3.5, 5.0, 3),   # overlap counted once
        _span("stepper.save", 8.0, 12.0, 2),  # clipped to its parent
    ]
    self_s = stats.span_self_times(spans)
    assert self_s[0] == pytest.approx(0.5)         # 10 - (1 + 8.5)
    assert self_s[2] == pytest.approx(8.5 - 4.0 - 1.5)
    assert self_s[3] == pytest.approx(4.0 - 3.0)   # kicks cover [2, 5]
    assert self_s[4] == pytest.approx(2.0)
    by_name = stats.self_time_by_name(spans)
    assert by_name["solver.kick"] == pytest.approx(3.5)


def test_closure_counts_root_and_glue_as_the_gap():
    spans = [
        _span("launch", 0.0, 10.0, None),
        _span("cli.main", 1.0, 10.0, 0),
        _span("stepper.advance", 1.5, 9.5, 1),
    ]
    accounted, gap = stats.closure(spans, ("launch", "cli.main"))
    assert gap == pytest.approx(1.0 + 1.0)
    assert accounted == pytest.approx(0.8)
    with pytest.raises(ValueError):
        stats.closure([], ("launch",))
