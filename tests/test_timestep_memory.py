"""The per-node memory audit."""

from __future__ import annotations

import pytest

from repro.scaling.memory import (
    global_f_bytes,
    memory_report,
    node_memory_budget,
)
from repro.scaling.runs import TABLE2, by_id


class TestMemoryBudget:
    def test_all_table2_runs_fit_fugaku(self):
        """The sine qua non: every configuration fits 32 GB/node."""
        for run in TABLE2:
            budget = node_memory_budget(run)
            assert budget.total <= budget.node_capacity, f"{run.run_id}: {budget.total / 2**30:.1f} GiB"

    def test_u1024_is_memory_tightest(self):
        """U1024 carries the most f per node — consistent with the paper
        dropping to 2 processes/node there."""
        u = node_memory_budget(by_id("U1024"))
        others = [node_memory_budget(r).f_bytes for r in TABLE2 if r.run_id != "U1024"]
        assert u.f_bytes >= max(others)
        assert u.utilization > 0.5  # genuinely pushing the node

    def test_weak_sequence_equal_f_per_node(self):
        """Matched-load property at the memory level."""
        budgets = [node_memory_budget(by_id(r)).f_bytes for r in ("S2", "M16", "L128")]
        assert budgets[0] == budgets[1] == budgets[2]

    def test_global_f_headline_number(self):
        """U1024's f: 4e14 cells x 4 B = 1.6 PB across the system."""
        assert global_f_bytes(by_id("U1024")) == pytest.approx(1.60e15, rel=0.01)

    def test_itemization_sums(self):
        b = node_memory_budget(by_id("H1024"))
        assert b.total == (
            b.f_bytes + b.ghost_bytes + b.working_bytes
            + b.particle_bytes + b.pm_bytes
        )

    def test_report_renders(self):
        text = memory_report(TABLE2)
        assert "U1024" in text and "%" in text
