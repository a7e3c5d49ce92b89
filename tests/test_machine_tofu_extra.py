"""Additional network-model and cost-model edge coverage."""

from __future__ import annotations

import numpy as np
import pytest

from repro.machine import a64fx, tofu
from repro.machine.costmodel import (
    contention_factor,
    predict_step,
    tree_interactions_per_particle,
    vlasov_comm_time,
    vlasov_compute_time,
)
from repro.scaling.runs import by_id


class TestTofuExtra:
    def test_p2p_zero_bytes_is_latency(self):
        assert tofu.p2p_time(0) == pytest.approx(tofu.LATENCY_NEAR)

    def test_p2p_rejects_negative(self):
        with pytest.raises(ValueError):
            tofu.p2p_time(-1)

    def test_torus_mapping_validation(self):
        with pytest.raises(ValueError):
            tofu.TorusMapping((4, 4, 4), procs_per_node=3)
        with pytest.raises(ValueError):
            tofu.TorusMapping((0, 4, 4))

    def test_node_count_divisibility(self):
        m = tofu.TorusMapping((3, 3, 3), procs_per_node=2)
        with pytest.raises(ValueError):
            _ = m.n_nodes  # 27 not divisible by 2

    def test_hop_count_symmetry(self):
        run = by_id("M16")
        m = tofu.TorusMapping(run.n_proc, run.procs_per_node)
        a, b = (0, 3, 2), (5, 1, 7)
        assert m.hops(a, b) == m.hops(b, a)

    def test_snake_order_exhaustive_small(self):
        """Every consecutive pair along every axis of a full process grid
        is <= 1 hop (the property Table 2's configs rely on)."""
        m = tofu.TorusMapping((8, 6, 4), procs_per_node=2)
        for axis, extent in enumerate((8, 6, 4)):
            for c in range(extent - 1):
                a = [1, 1, 1]
                b = [1, 1, 1]
                a[axis], b[axis] = c, c + 1
                same_node = (
                    axis == 2
                    and a[2] // m.procs_per_node == b[2] // m.procs_per_node
                )
                if not same_node:
                    assert m.hops(tuple(a), tuple(b)) <= 1


class TestCostModelExtra:
    def test_contention_grows_with_nodes(self):
        assert contention_factor(by_id("H1024")) > contention_factor(by_id("S2"))
        assert contention_factor(by_id("S1")) == pytest.approx(1.0)

    def test_tree_interactions_grow_with_n(self):
        assert tree_interactions_per_particle(
            by_id("H1024")
        ) > tree_interactions_per_particle(by_id("S2"))

    def test_vlasov_compute_matched_load_invariance(self):
        """Per-CMG matched loads give equal compute time across the weak
        sequence — the property the calibration hinges on."""
        times = [vlasov_compute_time(by_id(r)) for r in ("S2", "M16", "L128")]
        assert times[0] == pytest.approx(times[1]) == pytest.approx(times[2])

    def test_comm_positive_and_small(self):
        for rid in ("S2", "H1024", "U1024"):
            run = by_id(rid)
            comm = vlasov_comm_time(run)
            comp = vlasov_compute_time(run)
            assert 0.0 < comm < 0.5 * comp, rid

    def test_u1024_heaviest_per_step(self):
        totals = {r.run_id: predict_step(r).total for r in map(by_id, ("S2", "H1024", "U1024"))}
        assert totals["U1024"] > totals["H1024"]

    def test_sustained_fraction_variants(self):
        assert a64fx.sustained_fraction("uz", "no_simd") < a64fx.sustained_fraction(
            "uz", "simd"
        ) < a64fx.sustained_fraction("uz", "best")
