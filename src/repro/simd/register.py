"""Lane-accurate SIMD register simulation (SVE model).

The paper's §5.3 optimizations are *data-movement* arguments: which loads
are contiguous, how many shuffles an in-register transpose costs.  To make
those arguments executable, this module models a vector unit at the
register level:

* a :class:`SimdRegister` holds ``width`` lanes (SVE at 512 bit = 16
  single-precision lanes, the configuration the paper's "64 instructions
  for a 16x16 transpose" refers to);
* a :class:`SimdMachine` executes loads/stores/arithmetic/shuffles on
  NumPy-backed registers while *counting instructions by class*, so the
  cost claims (contiguous load vs gather, shuffle counts) become testable
  quantities rather than prose.

The machine is an analysis tool: the production kernels in
:mod:`repro.simd.kernels` use plain vectorized NumPy, and the tests verify
that both express the same arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

#: SVE vector width in single-precision lanes on A64FX (512-bit).
SVE_SP_LANES = 16
#: SVE vector width in double-precision lanes on A64FX.
SVE_DP_LANES = 8


@dataclass
class SimdRegister:
    """One vector register: ``width`` lanes of a NumPy dtype."""

    data: np.ndarray

    def __post_init__(self) -> None:
        self.data = np.asarray(self.data)
        if self.data.ndim != 1:
            raise ValueError("a register holds a 1-D lane vector")

    @property
    def width(self) -> int:
        """Number of lanes."""
        return self.data.shape[0]

    def copy(self) -> "SimdRegister":
        """Duplicate the register (a register-register move)."""
        return SimdRegister(self.data.copy())


@dataclass
class InstructionCount:
    """Instruction tally by class."""

    load_contiguous: int = 0
    load_gather: int = 0
    store_contiguous: int = 0
    store_scatter: int = 0
    arithmetic: int = 0
    shuffle: int = 0

    def total(self) -> int:
        """All instructions."""
        return (
            self.load_contiguous
            + self.load_gather
            + self.store_contiguous
            + self.store_scatter
            + self.arithmetic
            + self.shuffle
        )


@dataclass
class SimdMachine:
    """Executes SIMD operations on registers, counting instructions.

    Parameters
    ----------
    width:
        Lanes per register (16 = A64FX single precision).
    dtype:
        Element dtype.
    """

    width: int = SVE_SP_LANES
    dtype: np.dtype = field(default=np.dtype(np.float32))
    counts: InstructionCount = field(default_factory=InstructionCount)

    def __post_init__(self) -> None:
        if self.width < 2 or self.width & (self.width - 1):
            raise ValueError("width must be a power of two >= 2")
        self.dtype = np.dtype(self.dtype)

    # -- memory ---------------------------------------------------------

    def load(self, memory: np.ndarray, offset: int) -> SimdRegister:
        """Contiguous vector load of ``width`` elements (one instruction)."""
        flat = memory.reshape(-1)
        if offset < 0 or offset + self.width > flat.size:
            raise IndexError("contiguous load out of bounds")
        self.counts.load_contiguous += 1
        return SimdRegister(flat[offset : offset + self.width].astype(self.dtype))

    def gather(self, memory: np.ndarray, indices: np.ndarray) -> SimdRegister:
        """Gather load from arbitrary indices.

        Counted as ``width`` memory operations: on A64FX (as on most
        cores), a gather micro-ops into per-lane accesses — this is the
        overhead Figure 2 depicts and the LAT method avoids.
        """
        indices = np.asarray(indices)
        if indices.shape != (self.width,):
            raise ValueError("need one index per lane")
        flat = memory.reshape(-1)
        self.counts.load_gather += self.width
        return SimdRegister(flat[indices].astype(self.dtype))

    def store(self, reg: SimdRegister, memory: np.ndarray, offset: int) -> None:
        """Contiguous vector store (one instruction)."""
        self._check(reg)
        flat = memory.reshape(-1)
        if offset < 0 or offset + self.width > flat.size:
            raise IndexError("contiguous store out of bounds")
        self.counts.store_contiguous += 1
        flat[offset : offset + self.width] = reg.data

    def scatter(self, reg: SimdRegister, memory: np.ndarray, indices: np.ndarray) -> None:
        """Scatter store — ``width`` memory operations, like gather."""
        self._check(reg)
        indices = np.asarray(indices)
        if indices.shape != (self.width,):
            raise ValueError("need one index per lane")
        flat = memory.reshape(-1)
        self.counts.store_scatter += self.width
        flat[indices] = reg.data

    # -- arithmetic -------------------------------------------------------

    def add(self, a: SimdRegister, b: SimdRegister) -> SimdRegister:
        """Lane-wise addition."""
        return self._binary(a, b, np.add)

    def sub(self, a: SimdRegister, b: SimdRegister) -> SimdRegister:
        """Lane-wise subtraction."""
        return self._binary(a, b, np.subtract)

    def minimum(self, a: SimdRegister, b: SimdRegister) -> SimdRegister:
        """Lane-wise minimum."""
        return self._binary(a, b, np.minimum)

    def maximum(self, a: SimdRegister, b: SimdRegister) -> SimdRegister:
        """Lane-wise maximum."""
        return self._binary(a, b, np.maximum)

    # -- shuffles -----------------------------------------------------------

    def blend_halves(
        self, a: SimdRegister, b: SimdRegister, block: int, take_high_of_b: bool
    ) -> SimdRegister:
        """Block-interleave shuffle used by the butterfly transpose.

        With block size ``block`` (power of two < width), output takes
        alternating blocks: blocks at even positions from ``a`` (in place)
        and odd positions from ``b`` shifted by ``±block`` — exactly the
        pairwise exchange of the classic in-register transpose.  One
        instruction.
        """
        self._check(a), self._check(b)
        if block < 1 or block >= self.width or block & (block - 1):
            raise ValueError("block must be a power of two < width")
        lanes = np.arange(self.width)
        in_odd_block = (lanes // block) % 2 == 1
        if take_high_of_b:
            # even blocks: a in place; odd blocks: b from one block left
            idx = np.where(in_odd_block, lanes - block, lanes)
            take_a = ~in_odd_block
        else:
            # odd blocks: a in place; even blocks: b from one block right
            idx = np.where(in_odd_block, lanes, lanes + block)
            take_a = in_odd_block
        self.counts.shuffle += 1
        out = np.where(take_a, a.data[idx], b.data[idx])
        return SimdRegister(out.astype(self.dtype))

    # -- helpers ---------------------------------------------------------

    def _binary(self, a, b, op) -> SimdRegister:
        self._check(a), self._check(b)
        self.counts.arithmetic += 1
        return SimdRegister(op(a.data, b.data).astype(self.dtype))

    def _check(self, reg: SimdRegister) -> None:
        if reg.width != self.width:
            raise ValueError(f"register width {reg.width} != machine width {self.width}")
