"""The block decomposition the domain engine partitions with: rank <->
coordinates, periodic neighbours, balanced uneven splits, and blocks
that tile the mesh."""

from __future__ import annotations

import numpy as np
import pytest

from repro.parallel import BlockDecomposition


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

    @pytest.mark.parametrize("n_mesh", [(12, 8), (10, 7)], ids=["even", "uneven"])
    def test_local_slices_tile_the_mesh_once(self, n_mesh):
        """The blocks ``local_slice`` hands the domain workers cover
        every cell exactly once, on even and uneven splits."""
        d = BlockDecomposition(n_mesh, (3, 2))
        owners = np.zeros(n_mesh, dtype=int)
        for rank in range(d.size):
            owners[d.local_slice(rank)] += 1
        assert np.all(owners == 1)

    def test_uneven_split_is_balanced(self):
        """The first ``n % parts`` blocks along an axis carry one extra
        cell."""
        d = BlockDecomposition((10, 7), (3, 2))
        assert [d.local_shape(r) for r in range(d.size)] == [
            (4, 4), (4, 3), (3, 4), (3, 3), (3, 4), (3, 3)
        ]
