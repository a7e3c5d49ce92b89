"""A64FX processor model (paper §6.1).

Hardware facts from the paper and public A64FX documentation, plus the
paper's own *measured* per-CMG sustained throughputs of the Vlasov kernels
(Table 1), which anchor the compute side of the cost model: rather than
guessing cache behavior, we use the sustained Gflops the authors measured
per advection direction and variant.
"""

from __future__ import annotations

from dataclasses import dataclass

#: Cores per CMG (core memory group).
CORES_PER_CMG = 12
#: CMGs per A64FX chip / node.
CMGS_PER_NODE = 4
#: HBM2 capacity per CMG [bytes].
MEMORY_PER_CMG = 8 * 2**30
#: HBM2 bandwidth per CMG [bytes/s] (1024 GB/s per node / 4).
BANDWIDTH_PER_CMG = 256.0e9
#: Theoretical peak per CMG, single precision [flop/s] (paper: 1.54 Tflops).
PEAK_SP_PER_CMG = 1.54e12
#: Theoretical peak per CMG, double precision [flop/s].
PEAK_DP_PER_CMG = 0.77e12
#: Ring-bus bandwidth between CMGs [bytes/s] (paper: 115 GB/s).
RING_BUS_BANDWIDTH = 115.0e9
#: Phantom-GRAPE sustained pairwise interaction rate per core with SVE
#: (paper §5.1.2: 1.2e9 interactions/s/core).
PHANTOM_GRAPE_RATE_PER_CORE = 1.2e9
#: ... and without explicit SVE use (2.4e7 interactions/s/core).
PHANTOM_GRAPE_RATE_SCALAR = 2.4e7


@dataclass(frozen=True)
class KernelThroughput:
    """Sustained per-CMG Gflops of one advection direction (Table 1).

    ``no_simd`` / ``simd`` / ``lat`` are the three columns; ``lat`` is None
    where the paper reports '-' (the LAT method is only needed for the
    strided u_z direction).
    """

    direction: str
    no_simd: float
    simd: float
    lat: float | None = None

    def best(self) -> float:
        """The production-path throughput [Gflop/s per CMG]."""
        return self.lat if self.lat is not None else self.simd


#: Paper Table 1, verbatim [Gflops per CMG].
TABLE1 = {
    "ux": KernelThroughput("ux", 4.84, 176.7),
    "uy": KernelThroughput("uy", 7.14, 233.3),
    "uz": KernelThroughput("uz", 7.44, 17.9, 224.2),
    "x": KernelThroughput("x", 5.51, 150.0),
    "y": KernelThroughput("y", 6.88, 154.1),
    "z": KernelThroughput("z", 6.50, 149.2),
}

#: Velocity-space directions (zero-communication advections).
VELOCITY_DIRECTIONS = ("ux", "uy", "uz")
#: Physical-space directions (ghost-exchange advections).
SPATIAL_DIRECTIONS = ("x", "y", "z")


def sustained_fraction(direction: str, variant: str = "best") -> float:
    """Sustained / peak-SP fraction for one direction.

    The paper quotes 12-15% of SP peak for the velocity-space sweeps —
    this reproduces that number from Table 1.
    """
    t = TABLE1[direction]
    value = {"no_simd": t.no_simd, "simd": t.simd, "best": t.best()}[variant]
    return value * 1.0e9 / PEAK_SP_PER_CMG
