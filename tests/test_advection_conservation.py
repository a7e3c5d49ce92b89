"""Regression tests for the float32 conservation/accuracy fix.

The paper's conservative SL form guarantees mass conservation to machine
epsilon.  The original kernel accumulated its prefix sums S(i, k) in
``fw.dtype``: in float32 the S(i, k) sums carry O(n) rounding on long
axes (~1e-4 absolute at n = 1024, i.e. ~1e3 cell-ulps) which leaked into
the fluxes.  The fix accumulates in float64, keeps the flux in float64,
and casts only the telescoped cell-scale difference back to storage
precision — these tests pin both the total-mass drift (< 5 ulp of the
total) and the per-cell agreement with a float64 reference.

Also covered here: the per-call zero-BC ghost sizing (the block is
landed with ghost planes sized from the requested scheme's stencil reach
and the shifts actually present, and stays exact at CFL > 2), and the
bitwise equivalence of the
``out=``/``arena=`` fast path.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.advection import SCHEMES, SchemeSpec, advect, stencil_reach
from repro.perf import ScratchArena

pytestmark = pytest.mark.smoke

N_LONG = 1024


def _mass(a: np.ndarray) -> float:
    """Exact (float64) sum of the stored values."""
    return float(a.sum(dtype=np.float64))


class TestFloat32MassDrift:
    """Issue regression: total-mass drift < 5 ulp on a 1024-cell sweep."""

    @pytest.mark.parametrize("scheme", sorted(SCHEMES))
    def test_long_axis_mixed_sign_drift_below_5_ulp(self, scheme):
        rng = np.random.default_rng(42)
        f = (1.0 + rng.random((64, N_LONG))).astype(np.float32)
        # mixed-sign shifts, several cells per step (the paper's high-z regime)
        shift = rng.uniform(-6.0, 6.0, size=(64, 1)).astype(np.float32)
        assert (shift > 0).any() and (shift < 0).any()
        out = advect(f, shift, axis=1, scheme=scheme, bc="periodic")
        total = _mass(f)
        drift = abs(_mass(out) - total)
        assert drift < 5.0 * float(np.spacing(np.float32(total)))

    def test_scalar_large_shift_drift_below_5_ulp(self):
        rng = np.random.default_rng(7)
        f = (1.0 + rng.random(N_LONG)).astype(np.float32)
        for s in (900.6, -412.2, 3.7):
            out = advect(f, np.float32(s), 0, scheme="slmpp5")
            total = _mass(f)
            drift = abs(_mass(out) - total)
            assert drift < 5.0 * float(np.spacing(np.float32(total))), s

    def test_per_cell_accuracy_matches_float64_reference(self):
        """The real symptom of the float32 prefix sums: local flux error.

        Before the fix a 1024-cell float32 sweep disagreed with the
        float64 reference by ~1e-4 (about 1e3 cell-ulps); after it the
        error must stay within a few tens of cell-ulps even for integer
        shifts spanning hundreds of cells.
        """
        rng = np.random.default_rng(0)
        f64 = 1.0 + rng.random(N_LONG)
        f32 = f64.astype(np.float32)
        for s in (3.7, 200.3, -412.2):
            o32 = advect(f32, np.float32(s), 0, scheme="slp5")
            o64 = advect(f64, float(s), 0, scheme="slp5")
            err = np.abs(o32.astype(np.float64) - o64).max()
            # input quantization alone is ~6e-8; allow amplification by
            # the stencil but forbid the old 1e-4-scale prefix-sum leak
            assert err < 5.0e-5, (s, err)

    def test_float64_unaffected(self):
        """float64 sweeps were already exact — stay bitwise stable."""
        rng = np.random.default_rng(11)
        f = 1.0 + rng.random((8, 256))
        shift = rng.uniform(-3.0, 3.0, size=(8, 1))
        out = advect(f, shift, axis=1, scheme="slmpp5")
        assert out.dtype == np.float64
        assert abs(_mass(out) - _mass(f)) < 1e-10 * _mass(f)


class TestZeroPadPerCallBound:
    """Zero ghosts are sized from the scheme + shifts actually used."""

    @pytest.mark.parametrize("scheme", ["upwind1", "pfc2", "slp3", "slmpp5", "slp7"])
    @pytest.mark.parametrize("cfl", [2.4, 3.9])
    def test_zero_bc_exact_at_cfl_above_2(self, scheme, cfl):
        """Interior result must equal a manually over-padded reference:
        the narrow per-call pad may not change a single bit."""
        rng = np.random.default_rng(5)
        n = 48
        f = np.zeros((6, n), dtype=np.float32)
        f[:, 12:36] = (0.5 + rng.random((6, 24))).astype(np.float32)
        shift = rng.uniform(-cfl, cfl, size=(6, 1)).astype(np.float32)
        out = advect(f, shift, axis=1, scheme=scheme, bc="zero")

        wide = 32  # far wider than any per-call bound
        fpad = np.zeros((6, n + 2 * wide), dtype=np.float32)
        fpad[:, wide : wide + n] = f
        ref = advect(fpad, shift, axis=1, scheme=scheme, bc="zero")
        assert out.tobytes() == ref[:, wide : wide + n].tobytes()

    def test_outflow_loses_mass_monotonically(self):
        """At CFL > 2 toward the boundary, mass leaves the box."""
        rng = np.random.default_rng(9)
        n = 32
        f = np.zeros(n, dtype=np.float64)
        f[n - 6 :] = 1.0 + rng.random(6)
        out = advect(f, 2.7, 0, scheme="slmpp5", bc="zero")
        assert _mass(out) < _mass(f)
        assert (out >= 0.0).all()

    def test_stencil_reach_per_scheme(self):
        assert stencil_reach(SCHEMES["upwind1"]) == 0
        assert stencil_reach(SCHEMES["pfc2"]) == 1
        assert stencil_reach(SCHEMES["slp3"]) == 1
        assert stencil_reach(SCHEMES["slmpp3"]) == 2  # MP widens to 5 cells
        assert stencil_reach(SCHEMES["slp5"]) == 2
        assert stencil_reach(SCHEMES["slweno5"]) == 2
        assert stencil_reach(SCHEMES["slmpp7"]) == 3
        assert stencil_reach(SchemeSpec(7, False, False, False)) == 3


class TestOutAndArenaFastPath:
    """out=/arena= must not change a single bit of the result."""

    @pytest.mark.parametrize("bc", ["periodic", "zero"])
    def test_out_and_arena_bitwise(self, bc):
        rng = np.random.default_rng(21)
        f = (0.5 + rng.random((10, 12, 24))).astype(np.float32)
        shift = rng.uniform(-2.5, 2.5, size=(10, 12, 1)).astype(np.float32)
        ref = advect(f, shift, 2, scheme="slmpp5", bc=bc)
        arena = ScratchArena()
        buf = np.empty_like(f)
        got = advect(f, shift, 2, scheme="slmpp5", bc=bc, out=buf, arena=arena)
        assert got is buf
        assert got.tobytes() == ref.tobytes()
        # second call reuses every buffer and still matches
        misses_after_first = arena.misses
        got2 = advect(f, shift, 2, scheme="slmpp5", bc=bc, out=buf, arena=arena)
        assert arena.misses == misses_after_first
        assert got2.tobytes() == ref.tobytes()

    def test_inplace_out_aliases_input(self):
        rng = np.random.default_rng(33)
        f = (0.5 + rng.random((16, 20))).astype(np.float32)
        ref = advect(f, 1.3, 0, scheme="slmpp5")
        work = f.copy()
        got = advect(work, 1.3, 0, scheme="slmpp5", out=work)
        assert got is work
        assert got.tobytes() == ref.tobytes()

    def test_out_shape_mismatch_raises(self):
        f = np.ones((8, 16), dtype=np.float32)
        with pytest.raises(ValueError, match="out has shape"):
            advect(f, 0.5, 1, out=np.empty((8, 15), dtype=np.float32))
        with pytest.raises(ValueError, match="out has shape"):
            advect(f, 0.5, 1, out=np.empty((8, 16), dtype=np.float64))
