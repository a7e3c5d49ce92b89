"""In-register tile transpose — the LAT building block (paper Fig. 3).

The "load and transpose" (LAT) method loads ``n`` contiguous columns into
``n`` SIMD registers (cheap contiguous loads) and then transposes the
n x n element layout *in registers* with a butterfly network of block
shuffles: log2(n) stages, each writing all n registers, so n*log2(n)
shuffle instructions total — **64 for a 16x16 tile**, the figure the paper
quotes.  Shuffles run from registers at ALU speed, vastly cheaper than the
per-lane gather loads the naive strided scheme needs (Fig. 2).

:func:`register_transpose` performs the butterfly on a
:class:`repro.simd.register.SimdMachine` (counting instructions);
:func:`lat_shuffle_count` returns the analytic cost, and the tests assert
the two agree.
"""

from __future__ import annotations

import numpy as np

from .register import SimdMachine, SimdRegister


def register_transpose(
    machine: SimdMachine, regs: list[SimdRegister]
) -> list[SimdRegister]:
    """Transpose an n x n element tile held in n registers, in place.

    Register r holds row r (or column r — the operation is its own
    inverse).  Returns new registers where register r holds what was
    column r.  Uses the butterfly network: stage block sizes 1, 2, ...,
    n/2; each stage does one blend shuffle per register.
    """
    n = len(regs)
    if n != machine.width:
        raise ValueError("need exactly `width` registers for a square tile")
    if n & (n - 1):
        raise ValueError("tile size must be a power of two")
    cur = list(regs)
    block = 1
    while block < n:
        nxt: list[SimdRegister | None] = [None] * n
        for p in range(n):
            if (p // block) % 2 == 0:
                q = p + block
                nxt[p] = machine.blend_halves(cur[p], cur[q], block, take_high_of_b=True)
            else:
                q = p - block
                nxt[p] = machine.blend_halves(cur[p], cur[q], block, take_high_of_b=False)
        cur = nxt  # type: ignore[assignment]
        block *= 2
    return cur  # type: ignore[return-value]


def lat_shuffle_count(n: int) -> int:
    """Shuffle instructions of the butterfly transpose: n * log2(n).

    n = 16 gives 64, the paper's "64 SIMD instructions ... to transpose
    16x16 data layout on 16 SIMD registers".
    """
    if n < 2 or n & (n - 1):
        raise ValueError("n must be a power of two >= 2")
    return n * int(np.log2(n))


def tile_transpose_blocked(a: np.ndarray, tile: int = 16) -> np.ndarray:
    """Cache-blocked 2-D transpose (the memory-level analog of LAT).

    Transposes ``a`` tile-by-tile so each tile's loads and stores stay
    contiguous within rows — the NumPy-level counterpart of the register
    transpose, used by the LAT advection kernel in
    :mod:`repro.simd.kernels`.
    """
    if a.ndim != 2:
        raise ValueError("expects a 2-D array")
    rows, cols = a.shape
    out = np.empty((cols, rows), dtype=a.dtype)
    for r0 in range(0, rows, tile):
        r1 = min(r0 + tile, rows)
        for c0 in range(0, cols, tile):
            c1 = min(c0 + tile, cols)
            out[c0:c1, r0:r1] = a[r0:r1, c0:c1].T
    return out


def transpose_tile_with_machine(
    machine: SimdMachine, memory_in: np.ndarray, memory_out: np.ndarray
) -> None:
    """Full LAT data path on one width x width tile:

    contiguous loads (n) -> butterfly transpose (n log n shuffles) ->
    contiguous stores (n).  ``memory_in``/``memory_out`` are
    (width, width) row-major tiles.
    """
    n = machine.width
    if memory_in.shape != (n, n) or memory_out.shape != (n, n):
        raise ValueError("tiles must be (width, width)")
    regs = [machine.load(memory_in, r * n) for r in range(n)]
    regs = register_transpose(machine, regs)
    for r in range(n):
        machine.store(regs[r], memory_out, r * n)
