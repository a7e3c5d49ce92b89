"""Virtual parallel runtime: decomposition, vMPI, exchange, pencil FFT."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.advection import SCHEMES, advect, ghost_width
from repro.parallel import (
    BlockDecomposition,
    PencilGrid,
    VirtualComm,
    decomposed_spatial_advect,
    exchange_ghosts,
    pencil_fft3d,
)


class TestDecomposition:
    def test_rank_coords_roundtrip(self):
        d = BlockDecomposition((24, 16, 8), (3, 2, 2))
        for rank in range(d.size):
            assert d.rank_of(d.coords_of(rank)) == rank

    def test_local_shape(self):
        d = BlockDecomposition((24, 16), (3, 2))
        assert all(d.local_shape(r) == (8, 8) for r in range(d.size))
        assert d.size == 6

    def test_neighbors_periodic(self):
        d = BlockDecomposition((8, 8), (4, 2))
        r = d.rank_of((0, 0))
        assert d.neighbor(r, 0, -1) == d.rank_of((3, 0))
        assert d.neighbor(r, 1, +1) == d.rank_of((0, 1))

    def test_scatter_gather_roundtrip(self, rng):
        d = BlockDecomposition((12, 8), (3, 2))
        f = rng.random((12, 8, 5))  # trailing velocity axis
        assert np.array_equal(d.gather(d.scatter(f)), f)

    def test_uneven_split_is_balanced(self, rng):
        """The first ``n % parts`` blocks along an axis carry one extra
        cell, and scatter/gather still round-trip."""
        d = BlockDecomposition((10, 7), (3, 2))
        assert [d.local_shape(r) for r in range(d.size)] == [
            (4, 4), (4, 3), (3, 4), (3, 3), (3, 4), (3, 3)
        ]
        f = rng.random((10, 7, 3))
        assert np.array_equal(d.gather(d.scatter(f)), f)

    def test_ghost_bytes(self, rng):
        """One full ghost exchange (both axes, both directions) moves
        2 * ghost * face * trailing * itemsize bytes per rank and axis."""
        d = BlockDecomposition((8, 8), (2, 2))
        f = rng.random((8, 8, 10)).astype(np.float32)
        comm = VirtualComm(4)
        for axis in range(2):
            exchange_ghosts(d.scatter(f), d, axis, 3, comm)
        # local 4x4: two axes, face 4 cells each, 2 sides, ghost 3,
        # trailing 10 cells, 4 B items
        per_rank = 2 * (2 * 3 * 4 * 10 * 4)
        assert comm.log.total_p2p_bytes() == d.size * per_rank


class TestVirtualComm:
    def test_sendrecv_logs_messages(self, rng):
        comm = VirtualComm(4)
        data = [rng.random(8).astype(np.float32) for _ in range(4)]
        recv = comm.sendrecv(data, dest_of=lambda r: (r + 1) % 4)
        for r in range(4):
            assert np.array_equal(recv[(r + 1) % 4], data[r])
        assert len(comm.log.messages) == 4
        assert comm.log.total_p2p_bytes() == 4 * 8 * 4

    def test_self_send_not_logged(self):
        comm = VirtualComm(2)
        comm.sendrecv([np.zeros(4), np.zeros(4)], dest_of=lambda r: r)
        assert len(comm.log.messages) == 0

    def test_allreduce_sum(self):
        comm = VirtualComm(3)
        out = comm.allreduce_sum([1.0, 2.0, 3.0])
        assert out == [6.0, 6.0, 6.0]
        assert comm.log.collectives[0].kind == "allreduce"

    def test_allreduce_max_arrays(self):
        comm = VirtualComm(2)
        out = comm.allreduce_max([np.array([1.0, 5.0]), np.array([3.0, 2.0])])
        assert np.array_equal(out[0], [3.0, 5.0])

    def test_alltoall_transpose_semantics(self, rng):
        comm = VirtualComm(3)
        chunks = [[rng.random(2) for _ in range(3)] for _ in range(3)]
        recv = comm.alltoall(chunks)
        for src in range(3):
            for dst in range(3):
                assert np.array_equal(recv[dst][src], chunks[src][dst])

    def test_bytes_by_pair(self):
        comm = VirtualComm(2)
        comm.sendrecv([np.zeros(4), np.zeros(2)], dest_of=lambda r: 1 - r)
        pairs = comm.log.p2p_bytes_by_pair()
        assert pairs[(0, 1)] == 32
        assert pairs[(1, 0)] == 16


class TestGhostExchange:
    def test_padded_blocks_match_global(self, rng):
        f = rng.random((16, 4)).astype(np.float32)
        d = BlockDecomposition((16,), (4,))
        comm = VirtualComm(4)
        halos = exchange_ghosts(d.scatter(f), d, 0, ghost=2, comm=comm)
        for r, (left, right) in enumerate(halos):
            lo = r * 4
            assert np.array_equal(left, f[np.arange(lo - 2, lo) % 16])
            assert np.array_equal(right, f[np.arange(lo + 4, lo + 6) % 16])

    def test_message_sizes_match_production_formula(self, rng):
        f = rng.random((16, 8, 6)).astype(np.float32)  # (x, y, u)
        d = BlockDecomposition((16, 8), (4, 2))
        comm = VirtualComm(8)
        exchange_ghosts(d.scatter(f), d, 0, ghost=3, comm=comm)
        per_rank_axis0 = 2 * 3 * 4 * 6 * 4  # 2 dirs * ghost * ny_loc * nu * 4B
        total = sum(m.nbytes for m in comm.log.messages)
        assert total == 8 * per_rank_axis0

    def test_ghost_too_wide_rejected(self, rng):
        f = rng.random((8,))
        d = BlockDecomposition((8,), (4,))
        with pytest.raises(ValueError):
            exchange_ghosts(d.scatter(f), d, 0, ghost=3, comm=VirtualComm(4))


class TestDecomposedAdvection:
    @given(st.integers(0, 2**31 - 1), st.floats(-3.5, 3.5))
    @settings(max_examples=15, deadline=None)
    def test_spatial_bit_equality(self, seed, shift_scale):
        """The decomposed drift equals the global one bit-for-bit for
        every scheme and dtype, past one cell too: blocks of 8 planes
        take the halo of |shift| <= 3.5."""
        r = np.random.default_rng(seed)
        u = (shift_scale * np.linspace(-1, 1, 6)).reshape(1, 6, 1).astype(np.float32)
        d = BlockDecomposition((24,), (3,))
        for scheme in SCHEMES:
            for dtype in (np.float32, np.float64):
                f = r.random((24, 6, 6)).astype(dtype)
                comm = VirtualComm(3)
                got = d.gather(decomposed_spatial_advect(
                    d.scatter(f), d, u, 0, scheme, comm))
                want = advect(f, u, 0, scheme=scheme)
                assert got.tobytes() == want.tobytes(), (scheme, dtype)

    @pytest.mark.parametrize("scheme", ["slmpp5", "slp7", "upwind1"])
    @pytest.mark.parametrize("cfl", [0.9, 2.6])
    def test_uneven_blocks_bit_equality(self, rng, scheme, cfl):
        """25 cells over 3 blocks (9 + 8 + 8), mixed-sign shifts: the
        halo landing is bitwise the global drift on uneven blocks."""
        d = BlockDecomposition((25, 4), (3, 2))
        u = (cfl * np.linspace(-1, 1, 5)).reshape(1, 1, 5)
        for dtype in (np.float32, np.float64):
            f = rng.random((25, 4, 5)).astype(dtype)
            got = d.gather(decomposed_spatial_advect(
                d.scatter(f), d, u, 0, scheme, VirtualComm(d.size)))
            want = advect(f, u, 0, scheme=scheme)
            assert got.tobytes() == want.tobytes()

    def test_ghost_wider_than_block_refused(self, rng):
        """A shift whose ghost width exceeds the thinnest block is
        refused by the exchange: ghost_width(slmpp5, 6.0) = 9 fits the
        first of 9 + 8 + 8 planes, not the other two."""
        f = rng.random((25, 4)).astype(np.float32)
        d = BlockDecomposition((25,), (3,))
        with pytest.raises(ValueError, match="exceeds the thinnest local extent"):
            decomposed_spatial_advect(
                d.scatter(f), d, np.full((1, 4), 6.0), 0, "slmpp5",
                VirtualComm(3),
            )

    def test_required_ghost_values(self):
        """The decomposed drift exchanges the kernel's ghost width."""
        assert ghost_width(SCHEMES["slmpp5"], 1.0) == 4
        assert ghost_width(SCHEMES["slp5"], 0.9) == 3
        assert ghost_width(SCHEMES["upwind1"], 0.5) == 1
        f = np.ones((24, 4), np.float32)
        d = BlockDecomposition((24,), (2,))
        comm = VirtualComm(2)
        decomposed_spatial_advect(d.scatter(f), d, np.full((1, 4), 1.5), 0,
                                  "slmpp5", comm)
        # 2 ranks x 2 directions, ghost_width(slmpp5, 1.5) = 4 planes of 4 cells
        assert comm.log.total_p2p_bytes() == 4 * 4 * 4 * 4


class TestPencilFFT:
    @pytest.mark.parametrize("p1,p2", [(1, 1), (2, 2), (3, 2), (4, 1)])
    def test_matches_fftn(self, p1, p2, rng):
        shape = (12, 12, 8)
        a = rng.random(shape) + 1j * rng.random(shape)
        grid = PencilGrid(shape, p1, p2)
        comm = VirtualComm(grid.size)
        got = grid.gather(pencil_fft3d(grid.scatter(a), grid, comm))
        assert np.allclose(got, np.fft.fftn(a), atol=1e-10)

    def test_inverse_roundtrip(self, rng):
        shape = (8, 8, 8)
        a = rng.random(shape) + 1j * rng.random(shape)
        grid = PencilGrid(shape, 2, 2)
        comm = VirtualComm(4)
        fwd = pencil_fft3d(grid.scatter(a), grid, comm)
        back = pencil_fft3d(fwd, grid, comm, inverse=True)
        assert np.allclose(grid.gather(back), a, atol=1e-10)

    def test_parallelism_is_p1_times_p2(self):
        grid = PencilGrid((8, 8, 8), 2, 4)
        assert grid.size == 8

    def test_transposes_logged(self, rng):
        shape = (8, 8, 8)
        a = rng.random(shape).astype(complex)
        grid = PencilGrid(shape, 2, 2)
        comm = VirtualComm(4)
        pencil_fft3d(grid.scatter(a), grid, comm)
        kinds = [c.tag for c in comm.log.collectives]
        assert "fft-yz" in kinds and "fft-xy" in kinds

    def test_indivisible_rejected(self):
        with pytest.raises(ValueError):
            PencilGrid((9, 8, 8), 2, 2)
