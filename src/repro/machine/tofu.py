"""Tofu interconnect D network model (paper §6.1, §8).

Fugaku's nodes are connected by a six-dimensional mesh/torus of shape
(24, 23, 24, 2, 3, 2) = 158,976 nodes.  The paper maps MPI processes so
that "MPI communications between physically adjacent domains are kept
fenced within a single hop" — the 3-D process grid embeds into the 6-D
torus by pairing axes: (x, a), (y, b), (z, c) with the small axes
(2, 3, 2) acting as the fast dimension of each pair.

Public Tofu-D characteristics used for the time model:

* link bandwidth 6.8 GB/s per direction per link;
* each node has 6 TNIs (network interfaces) -> injection bandwidth
  ~40.8 GB/s, but a single point-to-point stream uses one link;
* put latency ~0.5 us nearest-neighbor, ~1 us across the system.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

#: Tofu-D torus shape on Fugaku (paper §6.1).
TOFU_SHAPE = (24, 23, 24, 2, 3, 2)
#: Which of the six axes are full tori (wrap-around); the B axis (23) is a
#: mesh in deployed Fugaku but we treat all axes as tori for hop counting —
#: the distinction never matters for nearest-neighbor mappings.
#: Link bandwidth per direction [bytes/s].
LINK_BANDWIDTH = 6.8e9
#: Number of network interfaces per node (simultaneous injection streams).
TNI_PER_NODE = 6
#: Nearest-neighbor put latency [s].
LATENCY_NEAR = 0.5e-6
#: Far-end latency [s].
LATENCY_FAR = 1.0e-6


def total_nodes() -> int:
    """158,976 — Fugaku's full system."""
    return int(np.prod(TOFU_SHAPE))


@dataclass(frozen=True)
class TorusMapping:
    """Embedding of a 3-D process grid into the 6-D torus.

    The three process axes map onto the axis pairs (X, A), (Y, B), (Z, C):
    process coordinate p along the first axis occupies torus coordinates
    (p // 2 on X, p % 2 on A), etc.  Nearest process-grid neighbors are
    then at most 1 torus hop apart (within a pair, stepping the small axis
    or the big axis), which is the property the paper engineered.

    ``procs_per_node`` processes (1, 2 or 4 CMG groups) share each node;
    consecutive ranks along the innermost process axis share first.
    """

    n_proc: tuple[int, int, int]
    procs_per_node: int = 2

    def __post_init__(self) -> None:
        if self.procs_per_node not in (1, 2, 4):
            raise ValueError("procs_per_node must be 1, 2 or 4")
        if any(n < 1 for n in self.n_proc):
            raise ValueError("process grid extents must be >= 1")

    @property
    def n_nodes(self) -> int:
        """Nodes required."""
        total = int(np.prod(self.n_proc))
        if total % self.procs_per_node:
            raise ValueError("process count not divisible by procs per node")
        return total // self.procs_per_node

    def fits_fugaku(self) -> bool:
        """Whether the job fits on the full system."""
        return self.n_nodes <= total_nodes()

    def node_coords(self, proc_coords: tuple[int, int, int]) -> tuple[int, ...]:
        """Torus coordinates of the node hosting a process.

        Processes sharing a node: the innermost (z) process coordinate is
        divided by procs_per_node first.  Each process axis snakes
        (boustrophedon order) through its (big, small) torus-axis pair so
        that *consecutive* processes always differ by one hop — stepping
        the small axis inside a block, stepping the big axis at block
        boundaries while the small coordinate stays put.  This is the
        embedding property the paper engineered ("kept fenced within a
        single hop").
        """
        px, py, pz = proc_coords
        pz_node = pz // self.procs_per_node
        pairs = ((0, 3), (1, 4), (2, 5))  # (big axis, small axis) indices
        coords = [0] * 6
        for p, (big, small) in zip((px, py, pz_node), pairs):
            size_small = TOFU_SHAPE[small]
            block, rem = divmod(p, size_small)
            coords[big] = block % TOFU_SHAPE[big]
            coords[small] = rem if block % 2 == 0 else size_small - 1 - rem
        return tuple(coords)

    def hops(
        self, a: tuple[int, int, int], b: tuple[int, int, int]
    ) -> int:
        """Torus hop count between the nodes of two processes."""
        ca, cb = self.node_coords(a), self.node_coords(b)
        total = 0
        for d, (x, y) in enumerate(zip(ca, cb)):
            n = TOFU_SHAPE[d]
            delta = abs(x - y)
            total += min(delta, n - delta)
        return total

    def max_neighbor_hops(self) -> int:
        """Largest hop distance between process-grid nearest neighbors.

        1 when the embedding is perfect (the paper's configurations);
        grows only if a process axis outruns its torus axis pair.
        """
        worst = 0
        nx, ny, nz = self.n_proc
        probes = []
        for axis, n in enumerate(self.n_proc):
            if n == 1:
                continue
            base = [0, 0, 0]
            for c in range(min(n - 1, 64)):
                a = list(base)
                b = list(base)
                a[axis] = c
                b[axis] = c + 1
                probes.append((tuple(a), tuple(b)))
        for a, b in probes:
            h = self.hops(a, b)
            if a[2] // self.procs_per_node == b[2] // self.procs_per_node and a[:2] == b[:2]:
                h = 0  # same node
            worst = max(worst, h)
        return worst


def p2p_time(nbytes: int, hops: int = 1, streams: int = 1) -> float:
    """Point-to-point message time: latency + serialization on one link.

    ``streams`` > 1 models concurrent use of multiple TNIs (up to 6).
    """
    if nbytes < 0:
        raise ValueError("nbytes must be non-negative")
    latency = LATENCY_NEAR if hops <= 1 else LATENCY_FAR * math.log2(1 + hops)
    bw = LINK_BANDWIDTH * min(max(streams, 1), TNI_PER_NODE)
    return latency + nbytes / bw


def allreduce_time(nbytes: int, n_ranks: int) -> float:
    """Tree allreduce: log2(P) latency stages + bandwidth term."""
    if n_ranks < 1:
        raise ValueError("need at least one rank")
    stages = max(1, math.ceil(math.log2(n_ranks)))
    return stages * (LATENCY_NEAR + nbytes / LINK_BANDWIDTH)
