"""Virtual MPI runtime: executes data-parallel operations in-process while
keeping byte-accurate communication accounts.

Per the substitution table in DESIGN.md: we have one node, no MPI, but the
*communication structure* of the paper's code — who sends how many bytes to
whom, which collectives run at what sizes — is exactly reproducible.  A
:class:`VirtualComm` holds one array per rank and implements the operations
the simulation needs (point-to-point ghost exchange, allreduce, alltoall)
by direct memory copies, logging every message as a
:class:`MessageRecord`.

The logs are byte accounts, not timings: the cost model in
:mod:`repro.machine` computes its own message sizes from the run
configuration and the kernel's ghost width, and reads no log.  The
real-transport :class:`repro.parallel.domain.DomainEngine` tallies its
halo traffic in the same (src, dst, tag) form, and the tests hold it to
a replay through :func:`repro.parallel.exchange.exchange_ghosts`; the
*correctness* of the decomposed algorithms (same answer as the
single-domain code) is validated directly in the tests too.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterable

import numpy as np


@dataclass(frozen=True)
class MessageRecord:
    """One logged point-to-point message."""

    src: int
    dst: int
    nbytes: int
    tag: str


@dataclass(frozen=True)
class CollectiveRecord:
    """One logged collective operation."""

    kind: str
    participants: int
    nbytes_per_rank: int
    tag: str


@dataclass
class CommLog:
    """Accumulated communication records of a virtual run."""

    messages: list[MessageRecord] = field(default_factory=list)
    collectives: list[CollectiveRecord] = field(default_factory=list)

    def total_p2p_bytes(self) -> int:
        """Sum of all point-to-point payloads."""
        return sum(m.nbytes for m in self.messages)

    def p2p_bytes_by_pair(self) -> dict[tuple[int, int], int]:
        """Aggregate payload per (src, dst) pair."""
        out: dict[tuple[int, int], int] = {}
        for m in self.messages:
            key = (m.src, m.dst)
            out[key] = out.get(key, 0) + m.nbytes
        return out

    def clear(self) -> None:
        """Drop all records."""
        self.messages.clear()
        self.collectives.clear()


class VirtualComm:
    """A communicator over ``size`` virtual ranks.

    Rank-local data lives in plain Python lists indexed by rank; every
    transfer between entries is logged.  Operations are synchronous and
    deterministic — the numerical results are identical to a serial run,
    which is what the decomposition tests assert.
    """

    def __init__(self, size: int) -> None:
        if size < 1:
            raise ValueError("communicator needs at least one rank")
        self.size = size
        self.log = CommLog()

    # -- point to point ---------------------------------------------------

    def sendrecv(
        self,
        data_by_rank: list[np.ndarray],
        dest_of: Callable[[int], int],
        tag: str = "",
    ) -> list[np.ndarray]:
        """Every rank sends its array to ``dest_of(rank)``; returns the
        received arrays (indexed by receiving rank)."""
        self._check(data_by_rank)
        recv: list[np.ndarray | None] = [None] * self.size
        for src in range(self.size):
            dst = dest_of(src) % self.size
            payload = np.ascontiguousarray(data_by_rank[src])
            if dst != src:
                self.log.messages.append(
                    MessageRecord(src, dst, payload.nbytes, tag)
                )
            recv[dst] = payload.copy()
        return recv  # type: ignore[return-value]

    # -- collectives --------------------------------------------------------

    def allreduce_sum(self, values: list, tag: str = "") -> list:
        """Sum across ranks, result replicated (scalar or array entries)."""
        if len(values) != self.size:
            raise ValueError("one value per rank required")
        total = values[0]
        for v in values[1:]:
            total = total + v
        nbytes = np.asarray(values[0]).nbytes
        self.log.collectives.append(
            CollectiveRecord("allreduce", self.size, nbytes, tag)
        )
        return [np.copy(total) if isinstance(total, np.ndarray) else total] * self.size

    def allreduce_max(self, values: list, tag: str = "") -> list:
        """Max across ranks, result replicated."""
        if len(values) != self.size:
            raise ValueError("one value per rank required")
        total = values[0]
        for v in values[1:]:
            total = np.maximum(total, v)
        nbytes = np.asarray(values[0]).nbytes
        self.log.collectives.append(
            CollectiveRecord("allreduce", self.size, nbytes, tag)
        )
        return [total] * self.size

    def alltoall(
        self, chunks_by_rank: list[list[np.ndarray]], tag: str = ""
    ) -> list[list[np.ndarray]]:
        """chunks_by_rank[src][dst] -> returns received[dst][src].

        The FFT transposes of the 2-D pencil decomposition are alltoalls
        over sub-communicators; this is the primitive they use.
        """
        self._check(chunks_by_rank)
        for row in chunks_by_rank:
            if len(row) != self.size:
                raise ValueError("each rank must provide one chunk per peer")
        recv = [[None] * self.size for _ in range(self.size)]
        per_rank_bytes = 0
        for src in range(self.size):
            for dst in range(self.size):
                payload = np.ascontiguousarray(chunks_by_rank[src][dst])
                if dst != src:
                    self.log.messages.append(
                        MessageRecord(src, dst, payload.nbytes, tag)
                    )
                    per_rank_bytes += payload.nbytes
                recv[dst][src] = payload.copy()
        self.log.collectives.append(
            CollectiveRecord(
                "alltoall", self.size, per_rank_bytes // max(self.size, 1), tag
            )
        )
        return recv  # type: ignore[return-value]

    def _check(self, seq: Iterable) -> None:
        if len(list(seq)) != self.size:
            raise ValueError(f"expected one entry per rank ({self.size})")
