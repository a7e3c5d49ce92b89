"""The CLI surface and the extended spectral statistics."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.analysis.spectra import (
    correlation_coefficient,
    cross_power,
    transfer_ratio,
)
from repro.cli import build_parser, main
from repro.ic import FourierGrid, measure_power

from .helpers import gaussian_field


class TestCli:
    def test_info(self, capsys):
        assert main(["info"]) == 0
        out = capsys.readouterr().out
        assert "Fugaku" in out and "slmpp5" in out

    def test_schemes(self, capsys):
        assert main(["schemes"]) == 0
        table = capsys.readouterr().out.split("\n\n")[0].splitlines()
        assert table[0].split() == ["name", "order", "MP", "positive"]
        assert [row.split()[0] for row in table[1:]] == [
            "slmpp3", "slmpp5", "slmpp7", "slp3", "slp5", "slp7", "upwind1"]

    def test_memory(self, capsys):
        assert main(["memory"]) == 0
        out = capsys.readouterr().out
        assert "U1024" in out and "PB" in out

    def test_scaling(self, capsys):
        assert main(["scaling"]) == 0
        out = capsys.readouterr().out
        assert "Table 3" in out and "TianNu" in out

    def test_landau_quick(self, capsys):
        # a short, coarse run: only checks the plumbing and sign
        assert main(["landau", "--nx", "32", "--nu", "64", "--steps", "120"]) == 0
        out = capsys.readouterr().out
        assert "gamma" in out

    def test_no_command_shows_help(self, capsys):
        assert main([]) == 1
        assert "usage" in capsys.readouterr().out

    def test_parser_commands(self):
        parser = build_parser()
        args = parser.parse_args(["landau", "--k", "0.4"])
        assert args.command == "landau"
        assert args.k == 0.4
        # an executor or a command the CLI does not offer is a usage error
        for argv in (["campaign", "spec.toml", "--executor", "queue"],
                     ["serve", "list", "d"]):
            with pytest.raises(SystemExit) as exc:
                parser.parse_args(argv)
            assert exc.value.code == 2

    @pytest.mark.parametrize("argv, line", [
        (["run", "missing.toml"], "run: no such config file: missing.toml"),
        (["campaign", "missing.toml"],
         "campaign: no such config file: missing.toml"),
        # `worker` names no subcommand: it is read as a spec path
        (["campaign", "worker", "."], "campaign: no such config file: worker"),
    ], ids=["run", "campaign", "campaign-worker"])
    def test_missing_config_is_a_one_line_usage_error(self, argv, line,
                                                      tmp_path):
        src = Path(__file__).resolve().parent.parent / "src"
        done = subprocess.run(
            [sys.executable, "-m", "repro", *argv], cwd=tmp_path,
            env=dict(os.environ, PYTHONPATH=str(src)),
            capture_output=True, text=True, timeout=30,
        )
        assert (done.returncode, done.stdout + done.stderr) == (2, line + "\n")


class TestCrossPower:
    def test_auto_matches_measure_power(self, rng):
        grid = FourierGrid((24, 24, 24), 100.0)
        delta = gaussian_field(grid, lambda k: 100.0 * np.ones_like(k), rng)
        k1, p1, _ = measure_power(delta, 100.0, n_bins=8)
        k2, p2, _ = cross_power(delta, delta, 100.0, n_bins=8)
        assert np.allclose(k1, k2)
        assert np.allclose(p1, p2, rtol=1e-10)

    def test_identical_fields_fully_correlated(self, rng):
        grid = FourierGrid((16, 16), 10.0)
        delta = gaussian_field(grid, lambda k: np.ones_like(k), rng)
        _, r = correlation_coefficient(delta, delta, 10.0, n_bins=5)
        assert np.allclose(r, 1.0, atol=1e-10)

    def test_independent_fields_uncorrelated(self, rng):
        grid = FourierGrid((32, 32, 32), 10.0)
        a = gaussian_field(grid, lambda k: np.ones_like(k), rng)
        b = gaussian_field(grid, lambda k: np.ones_like(k), rng)
        _, r = correlation_coefficient(a, b, 10.0, n_bins=4)
        # many modes per bin: |r| << 1
        assert np.all(np.abs(r) < 0.2)

    def test_scaled_field_transfer_ratio(self, rng):
        grid = FourierGrid((16, 16, 16), 10.0)
        a = gaussian_field(grid, lambda k: np.ones_like(k), rng)
        _, t = transfer_ratio(0.5 * a, a, 10.0, n_bins=4)
        assert np.allclose(t, 0.5, rtol=1e-10)

    def test_cross_power_symmetry(self, rng):
        grid = FourierGrid((16, 16), 10.0)
        a = gaussian_field(grid, lambda k: np.ones_like(k), rng)
        b = gaussian_field(grid, lambda k: np.ones_like(k), rng)
        _, p_ab, _ = cross_power(a, b, 10.0, n_bins=4)
        _, p_ba, _ = cross_power(b, a, 10.0, n_bins=4)
        assert np.allclose(p_ab, p_ba, rtol=1e-12)

    def test_shape_mismatch_rejected(self, rng):
        with pytest.raises(ValueError):
            cross_power(np.zeros((8, 8)), np.zeros((4, 4)), 1.0)

    def test_cross_mesh_transfer_ratio_aligned(self, rng):
        """Regression: fields on *different* meshes used to get per-field
        bin edges, so the ratio divided spectra at mismatched k."""
        box = 100.0
        coarse = gaussian_field(FourierGrid((16, 16, 16), box),
                                lambda k: np.ones_like(k), rng)
        fine = gaussian_field(FourierGrid((24, 24, 24), box),
                              lambda k: np.ones_like(k), rng)
        k, t = transfer_ratio(fine, coarse, box, n_bins=6)
        assert len(k) == len(t) > 0
        assert np.all(np.isfinite(t)) and np.all(t > 0)
        # unit-power realizations: the ratio scatters around 1, never
        # around the wild values mismatched binning produced
        assert 0.3 < np.median(t) < 3.0
        # shared edges stop at the coarser mesh's k_max
        k_nyq_coarse = np.pi * 16 / box
        assert k.max() <= np.sqrt(3) * k_nyq_coarse * 1.01
        # and the degenerate same-mesh case is unchanged by the rebinning
        _, t_same = transfer_ratio(0.5 * fine, fine, box, n_bins=6)
        assert np.allclose(t_same, 0.5, rtol=1e-10)

    def test_cross_mesh_correlation_same_mesh_required(self, rng):
        """correlation/cross need one mesh; transfer is the cross-mesh API."""
        with pytest.raises(ValueError):
            correlation_coefficient(np.zeros((8, 8)), np.zeros((12, 12)), 1.0)

    def test_top_edge_mode_not_dropped(self, rng):
        """Regression: an explicit k_range whose max *is* a grid mode lost
        that mode to np.digitize's right-open bins; Parseval catches it."""
        box = 10.0
        grid = FourierGrid((12, 12, 12), box)
        delta = gaussian_field(grid, lambda k: np.ones_like(k), rng)
        k_mag = grid.k_magnitude()
        k_range = (2 * np.pi / box * 0.99, float(k_mag.max()))
        k, p, w = cross_power(delta, delta, box, n_bins=8, k_range=k_range)
        # sum of P(k) weighted by mode counts recovers the field variance
        # (Parseval); dropping the corner mode leaves a ~5e-4 deficit
        var = float(delta.var()) * box**3
        assert (p * w).sum() == pytest.approx(var, rel=1e-10)
