"""Machine model and scaling experiments: Tables 2-4, Fig. 7, §7.2.

The acceptance criteria follow DESIGN.md: the *shape* of each paper
result must hold — which parts scale, where the PM part collapses, the
efficiency bands of the abstract (82-96% weak, 82-93% strong for the
totals), the TianNu speedups.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.machine import a64fx, costmodel, tofu
from repro.machine.costmodel import predict_io_time, predict_step
from repro.scaling import (
    PAPER_TABLE3,
    PAPER_TABLE4,
    TABLE2,
    by_id,
    effective_resolution_cells,
    equivalent_run_for_sn,
    figure7_series,
    format_efficiency_table,
    format_tts_report,
    group_runs,
    model_end_to_end,
    run_config_table,
    strong_scaling_table,
    weak_scaling_table,
)


class TestA64FX:
    def test_node_composition(self):
        assert a64fx.CORES_PER_CMG * a64fx.CMGS_PER_NODE == 48

    def test_table1_sustained_fraction(self):
        """Paper: velocity-space sweeps reach 12-15% of SP peak/CMG."""
        for d in a64fx.VELOCITY_DIRECTIONS:
            frac = a64fx.sustained_fraction(d, "best")
            assert 0.11 < frac < 0.16, d

    def test_simd_speedup_factors(self):
        """Table 1: SIMD gains ~30x in velocity space, ~18-27x in x."""
        for d in ("ux", "uy"):
            t = a64fx.TABLE1[d]
            assert 25 < t.simd / t.no_simd < 40
        t = a64fx.TABLE1["uz"]
        assert t.lat / t.simd > 10  # LAT recovers the strided direction

    def test_phantom_grape_gap(self):
        """1.2e9 vs 2.4e7 interactions/s: a factor 50."""
        ratio = a64fx.PHANTOM_GRAPE_RATE_PER_CORE / a64fx.PHANTOM_GRAPE_RATE_SCALAR
        assert ratio == pytest.approx(50.0)


class TestTofu:
    def test_full_system_node_count(self):
        assert tofu.total_nodes() == 158976

    def test_h1024_fits(self):
        run = by_id("H1024")
        m = tofu.TorusMapping(run.n_proc, run.procs_per_node)
        assert m.n_nodes == 147456
        assert m.fits_fugaku()

    def test_neighbor_mapping_single_hop(self):
        """The paper's claim: adjacent domains stay within a single hop."""
        for rid in ("S2", "M16", "L128", "H1024", "U1024"):
            run = by_id(rid)
            m = tofu.TorusMapping(run.n_proc, run.procs_per_node)
            assert m.max_neighbor_hops() <= 1, rid

    def test_p2p_time_monotone_in_bytes(self):
        assert tofu.p2p_time(2_000_000) > tofu.p2p_time(1_000_000)

    def test_allreduce_log_scaling(self):
        t1 = tofu.allreduce_time(8, 1024)
        t2 = tofu.allreduce_time(8, 2**20)
        assert t2 == pytest.approx(2.0 * t1, rel=1e-6)


class TestTable2:
    def test_all_rows_consistent(self):
        # RunConfig validates node counts at construction; 18 rows exist
        assert len(TABLE2) == 18

    def test_u1024_is_400_trillion(self):
        assert by_id("U1024").phase_space_cells == pytest.approx(4.008e14, rel=1e-3)

    def test_weak_sequence_matched_load(self):
        """S2, M16, L128 share identical per-process local extents; H1024
        matches per-CMG (half the local cells on half the CMGs)."""
        s2, m16, l128, h = (by_id(r) for r in ("S2", "M16", "L128", "H1024"))
        assert s2.local_nx == m16.local_nx == l128.local_nx == (8, 8, 24)
        assert h.local_nx == (8, 8, 12)
        assert s2.local_cells / s2.cmg_per_proc == pytest.approx(
            h.local_cells / h.cmg_per_proc
        )

    def test_pm_rule_column(self):
        assert by_id("S1").n_pm_side == 288
        assert by_id("H1024").n_pm_side == 2304

    def test_fft_parallelism_capped(self):
        run = by_id("L256")
        assert run.fft_parallelism == 48 * 48
        assert run.fft_parallelism < run.n_procs

    def test_group_lookup(self):
        assert [r.run_id for r in group_runs("S")] == ["S1", "S2", "S4"]
        with pytest.raises(KeyError):
            group_runs("X")
        with pytest.raises(KeyError):
            by_id("Z9")

    def test_table_renders(self):
        text = run_config_table()
        assert "U1024" in text and "4.008e+14" in text


class TestCostModelShapes:
    def test_vlasov_dominates_s2(self):
        """Paper: 'the elapsed time for the Vlasov part amounts to about
        70% of the total'."""
        fr = predict_step(by_id("S2")).fractions()
        assert 0.6 < fr["vlasov"] < 0.85

    def test_weak_scaling_bands(self):
        """Every modeled weak efficiency within 10 points of Table 3."""
        for row in weak_scaling_table():
            paper = PAPER_TABLE3[row.label]
            for part in ("total", "vlasov"):
                assert abs(row.as_dict()[part] - paper[part]) < 8, (row.label, part)
            for part in ("tree", "pm"):
                assert abs(row.as_dict()[part] - paper[part]) < 15, (row.label, part)

    def test_weak_total_in_abstract_band(self):
        """Abstract: weak scaling efficiencies are 82-96%."""
        for row in weak_scaling_table():
            assert 75.0 < row.total < 100.0

    def test_strong_total_in_abstract_band(self):
        """Abstract: strong scaling efficiencies are 82-93%."""
        for row in strong_scaling_table():
            assert 80.0 < row.total < 100.0

    def test_pm_part_collapses_at_scale(self):
        """The defining shape: the 2-D-decomposed FFT caps PM scaling —
        efficiency decays monotonically along the weak sequence and ends
        below 25% at H1024 (paper: 17.1%)."""
        rows = weak_scaling_table()
        pm = [r.pm for r in rows]
        assert pm[0] > pm[1] > pm[2]
        assert pm[2] < 25.0

    def test_vlasov_part_scales_best(self):
        for row in weak_scaling_table():
            d = row.as_dict()
            assert d["vlasov"] >= d["tree"] - 1
            assert d["vlasov"] >= d["pm"]

    def test_strong_scaling_pm_worst(self):
        for row in strong_scaling_table():
            d = row.as_dict()
            assert d["pm"] < d["vlasov"]
            assert d["pm"] < d["tree"]

    def test_figure7_series_complete(self):
        series = figure7_series()
        assert [p["run"] for p in series["weak"]] == ["S2", "M16", "L128", "H1024"]
        assert len(series["strong"]) == 17  # all of Table 2 minus U1024
        for point in series["weak"]:
            assert point["total"] == pytest.approx(
                point["vlasov"] + point["tree"] + point["pm"]
            )

    def test_report_renders(self):
        text = format_efficiency_table(weak_scaling_table(), PAPER_TABLE3)
        assert "S2-H1024" in text
        text = format_efficiency_table(strong_scaling_table(), PAPER_TABLE4)
        assert "Vlasov" in text


class TestTimeToSolution:
    def test_eq9_equivalences(self):
        """Paper: S/N=100 -> DL ~ L/640 (H group); S/N=50 -> L/1018 (U)."""
        assert effective_resolution_cells(100.0) == pytest.approx(640, rel=0.01)
        assert effective_resolution_cells(50.0) == pytest.approx(1018, rel=0.01)
        assert equivalent_run_for_sn(100.0) == "H1024"
        assert equivalent_run_for_sn(50.0) == "U1024"

    def test_h1024_anchored(self):
        tts = model_end_to_end()
        h = tts["H1024"]
        assert h.exec_seconds == pytest.approx(6183, rel=0.01)
        assert h.total_hours == pytest.approx(1.92, abs=0.05)
        assert h.speedup_vs_tiannu == pytest.approx(27.0, rel=0.05)

    def test_u1024_predicted(self):
        """The genuine model output: U1024's time follows from the cost
        model + the CFL step scaling.  Paper: 5.86 h, 8.9x."""
        tts = model_end_to_end()
        u = tts["U1024"]
        assert u.total_hours == pytest.approx(5.86, rel=0.15)
        assert u.speedup_vs_tiannu == pytest.approx(8.9, rel=0.15)

    def test_io_time_band(self):
        """Paper: 733 s (H1024) and 782 s (U1024) of I/O."""
        assert predict_io_time(by_id("H1024")) == pytest.approx(733, rel=0.1)
        assert predict_io_time(by_id("U1024")) == pytest.approx(782, rel=0.15)

    def test_step_counts_plausible(self):
        tts = model_end_to_end()
        assert 500 < tts["H1024"].n_steps < 10000
        assert tts["U1024"].n_steps == pytest.approx(
            tts["H1024"].n_steps * 1.5, rel=0.01
        )

    def test_report_renders(self):
        text = format_tts_report()
        assert "27" in text and "TianNu" in text
