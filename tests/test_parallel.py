"""The block decomposition the domain engine partitions with: rank <->
coordinates, periodic neighbours, balanced uneven splits, and
scatter/gather."""

from __future__ import annotations

import numpy as np

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
