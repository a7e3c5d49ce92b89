"""Guards and telemetry: unit-level behavior, schema conformance."""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.diagnostics import ConservationLedger
from repro.runtime.config import GuardConfig
from repro.runtime.guards import GuardSuite
from repro.runtime.telemetry import (
    TELEMETRY_FIELDS,
    TelemetryWriter,
    emit_event,
    event_sink,
    iter_records,
    peak_rss_mb,
    read_events,
    read_telemetry,
    set_event_sink,
    summarize,
)


class FakeStepper:
    """Just enough surface for GuardSuite.check_step."""

    index = 3

    def __init__(self, f):
        self._f = np.asarray(f, dtype=np.float64)

    @property
    def f(self):
        return self._f


def suite(ledger=None, **overrides) -> GuardSuite:
    cfg = GuardConfig(**overrides)
    return GuardSuite(cfg, ledger if ledger is not None else ConservationLedger())


class TestGuards:
    def test_healthy_state_fires_nothing(self):
        ledger = ConservationLedger()
        ledger.register(mass=1.0, energy=2.0)
        ledger.update(mass=1.0, energy=2.0)
        reports = suite(ledger).check_step(FakeStepper([0.1, 0.2]), 0.01)
        assert reports == []

    def test_nan_guard(self):
        reports = suite().check_step(FakeStepper([0.1, np.nan, np.inf]), 0.01)
        assert [r.guard for r in reports] == ["nan"]
        assert reports[0].policy == "abort"
        assert "2 non-finite" in reports[0].message
        assert GuardSuite.should_abort(reports)

    def test_nan_guard_off(self):
        reports = suite(nan="off").check_step(FakeStepper([np.nan]), 0.01)
        assert [r.guard for r in reports] == []

    def test_negative_f_guard_with_tolerance(self):
        s = suite(negative_f="warn", negative_f_tol=1e-12)
        assert s.check_step(FakeStepper([0.0, -1e-13]), 0.01) == []
        reports = s.check_step(FakeStepper([0.0, -1e-3]), 0.01)
        assert [r.guard for r in reports] == ["negative_f"]
        assert not GuardSuite.should_abort(reports)  # warn policy

    def test_conservation_guard_thresholds_by_key(self):
        ledger = ConservationLedger()
        ledger.register(nu_mass=100.0, energy=10.0)
        ledger.update(nu_mass=100.1, energy=10.5)  # 1e-3 rel, 5e-2 rel
        s = suite(ledger, conservation="abort",
                  max_mass_drift=1e-6, max_energy_drift=0.1)
        reports = s.check_step(FakeStepper([0.1]), 0.01)
        assert [r.guard for r in reports] == ["conservation"]
        assert "nu_mass" in reports[0].message
        assert GuardSuite.should_abort(reports)

    def test_conservation_absolute_branch_labeled(self):
        ledger = ConservationLedger()
        ledger.register(momentum_mass=0.0)  # contains 'mass' -> guarded
        ledger.update(momentum_mass=0.5)
        reports = suite(ledger, max_mass_drift=0.1).check_step(
            FakeStepper([0.1]), 0.01
        )
        assert len(reports) == 1
        assert "absolute" in reports[0].message

    def test_stall_guard(self):
        s = suite(stall="warn", max_step_seconds=1.0)
        assert s.check_step(FakeStepper([0.1]), 0.5) == []
        reports = s.check_step(FakeStepper([0.1]), 2.5)
        assert [r.guard for r in reports] == ["stall"]

    def test_report_as_dict_is_json_ready(self):
        reports = suite().check_step(FakeStepper([np.nan]), 0.01)
        json.dumps(reports[0].as_dict())  # must not raise


def full_record(step=1) -> dict:
    return {
        "step": step, "coord": {"t": 0.1 * step}, "dt": 0.1, "wall_s": 0.01,
        "conserved": {"mass": 1.0},
        "drifts": {"mass": {"initial": 1.0, "latest": 1.0,
                            "drift": 0.0, "relative": True}},
        "sections": {"step": 0.01}, "fft": {"n_forward": 2, "n_inverse": 4,
                                            "n_plans": 1},
        "io": {"bytes_written": 0, "bytes_read": 0,
               "write_seconds": 0.0, "read_seconds": 0.0},
        "rss_mb": 100.0, "guards": [],
    }


class TestTelemetry:
    def test_append_and_read(self, tmp_path):
        path = tmp_path / "t.jsonl"
        with TelemetryWriter(path) as w:
            w.append(full_record(1))
            w.append(full_record(2))
        records = read_telemetry(path)
        assert [r["step"] for r in records] == [1, 2]
        assert list(records[0]) == list(TELEMETRY_FIELDS)

    def test_schema_enforced(self, tmp_path):
        w = TelemetryWriter(tmp_path / "t.jsonl")
        bad = full_record()
        bad.pop("rss_mb")
        with pytest.raises(ValueError, match="rss_mb"):
            w.append(bad)
        bad = full_record()
        bad["surprise"] = 1
        with pytest.raises(ValueError, match="surprise"):
            w.append(bad)
        w.close()

    def test_partial_trailing_line_skipped(self, tmp_path):
        path = tmp_path / "t.jsonl"
        with TelemetryWriter(path) as w:
            w.append(full_record(1))
        with open(path, "a") as fh:
            fh.write('{"step": 2, "coord"')  # killed mid-write
        records = read_telemetry(path)
        assert [r["step"] for r in records] == [1]

    def test_append_mode_across_writers(self, tmp_path):
        """Resume reopens the stream without clobbering earlier records."""
        path = tmp_path / "t.jsonl"
        with TelemetryWriter(path) as w:
            w.append(full_record(1))
        with TelemetryWriter(path) as w:
            w.append(full_record(2))
        assert [r["step"] for r in read_telemetry(path)] == [1, 2]

    def test_summarize(self, tmp_path):
        path = tmp_path / "t.jsonl"
        with TelemetryWriter(path) as w:
            for i in range(1, 6):
                rec = full_record(i)
                rec["drifts"]["mass"]["drift"] = 1e-8 * i
                w.append(rec)
        s = summarize(path)
        assert s["steps"] == 5
        assert s["last_step"] == 5
        assert s["max_drifts"]["mass"] == pytest.approx(5e-8)
        assert s["wall_s_median"] == pytest.approx(0.01)
        assert s["guard_events"] == 0

    def test_summarize_empty(self, tmp_path):
        path = tmp_path / "t.jsonl"
        path.write_text("")
        assert summarize(path) == {"steps": 0}

    def test_summarize_tolerates_torn_tail(self, tmp_path):
        """A stream whose writer was SIGKILLed mid-line still summarizes
        — the reader streams line by line and skips the torn tail."""
        path = tmp_path / "t.jsonl"
        with TelemetryWriter(path) as w:
            for i in range(1, 4):
                w.append(full_record(i))
        with open(path, "a") as fh:
            fh.write('{"step": 4, "coord": {"t": 0.4}, "dt"')  # torn
        s = summarize(path)
        assert s["steps"] == 3
        assert s["last_step"] == 3

    def test_summarize_skips_partial_but_valid_json_record(self, tmp_path):
        """A final line that parses but lacks schema fields (torn at a
        line boundary) must not raise KeyError out of summarize."""
        path = tmp_path / "t.jsonl"
        with TelemetryWriter(path) as w:
            w.append(full_record(1))
        with open(path, "a") as fh:
            fh.write('{"step": 2, "coord": {"t": 0.2}}\n')
        assert summarize(path)["steps"] == 1
        assert [r["step"] for r in read_telemetry(path)] == [1]

    def test_iter_records_streams_and_skips_blank_lines(self, tmp_path):
        path = tmp_path / "t.jsonl"
        path.write_text('{"a": 1}\n\n{"b": 2}\nnot json\n[3]\n{"c"')
        assert list(iter_records(path)) == [{"a": 1}, {"b": 2}]

    def test_peak_rss_positive(self):
        assert peak_rss_mb() > 0.0


class TestEventSink:
    """The contextual event sink: per-context, never a process global."""

    def test_event_sink_context_manager_restores(self):
        seen = []
        assert set_event_sink(None) is None
        with event_sink(lambda name, **p: seen.append((name, p))):
            emit_event("drill", level=1)
        emit_event("after", level=2)  # no sink installed: dropped
        assert seen == [("drill", {"level": 1})]

    def test_set_event_sink_returns_previous(self):
        first = lambda name, **p: None  # noqa: E731
        assert set_event_sink(first) is None
        try:
            assert set_event_sink(None) is first
        finally:
            set_event_sink(None)

    def test_sinks_are_thread_isolated(self, tmp_path):
        """A sink installed in one thread is invisible to another —
        the regression behind interleaved campaign telemetry."""
        import threading

        streams = {"a": [], "b": []}
        barrier = threading.Barrier(2)

        def drive(name):
            with event_sink(lambda ev, **p: streams[name].append(p["i"])):
                barrier.wait()
                for i in range(50):
                    emit_event("tick", i=i)

        threads = [threading.Thread(target=drive, args=(n,))
                   for n in streams]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert streams["a"] == list(range(50))
        assert streams["b"] == list(range(50))

    def test_writer_event_records_round_trip(self, tmp_path):
        path = tmp_path / "t.jsonl"
        with TelemetryWriter(path) as w, event_sink(w.event):
            emit_event("fault_injected", kind="inject_nan", fired_at=2)
            w.append(full_record(1))
        events = read_events(path, "fault_injected")
        assert events[0]["kind"] == "inject_nan"
        # event records never pollute the step stream, or vice versa
        assert [r["step"] for r in read_telemetry(path)] == [1]


class TestLedgerExport:
    """The ConservationLedger additions the telemetry stream relies on."""

    def test_as_dict_relative(self):
        ledger = ConservationLedger()
        ledger.register(mass=100.0)
        ledger.update(mass=100.001)
        row = ledger.as_dict()["mass"]
        assert row["relative"] is True
        assert row["initial"] == 100.0
        assert row["latest"] == 100.001
        assert row["drift"] == pytest.approx(1e-5)

    def test_as_dict_zero_initial_is_absolute(self):
        ledger = ConservationLedger()
        ledger.register(momentum=0.0)
        ledger.update(momentum=-0.25)
        row = ledger.as_dict()["momentum"]
        assert row["relative"] is False
        assert row["drift"] == pytest.approx(0.25)
        assert ledger.is_relative("momentum") is False

    def test_incremental_matches_history_scan(self):
        rng = np.random.default_rng(0)
        ledger = ConservationLedger()
        ledger.register(q=2.0)
        seen = [2.0]
        for value in 2.0 + 0.01 * rng.standard_normal(50):
            ledger.update(q=value)
            seen.append(float(value))
        recomputed = max(abs(q / 2.0 - 1.0) for q in seen)
        assert ledger.relative_drift("q") == pytest.approx(recomputed, rel=0)
        assert ledger.absolute_drift("q") == max(abs(q - 2.0) for q in seen)
        assert ledger.current("q") == seen[-1]
        assert not hasattr(ledger, "history")  # nothing grows with the run

    def test_current_and_absolute_drift(self):
        ledger = ConservationLedger()
        ledger.register(energy=10.0)
        ledger.update(energy=9.0)
        ledger.update(energy=10.5)
        assert ledger.current("energy") == 10.5
        assert ledger.absolute_drift("energy") == pytest.approx(1.0)

    def test_report_renders_both_kinds(self):
        ledger = ConservationLedger()
        ledger.register(mass=1.0, momentum=0.0)
        ledger.update(mass=1.0, momentum=0.1)
        text = ledger.report()
        assert "rel" in text and "abs" in text and "momentum" in text

    def test_unregistered_key_everywhere(self):
        ledger = ConservationLedger()
        for method in (ledger.current, ledger.relative_drift,
                       ledger.absolute_drift, ledger.is_relative):
            with pytest.raises(KeyError):
                method("ghost")
