"""Layer probes: direct timed calls into one layer, arena warm.

Run as ``python e2e_probes.py <seed> <probe>...`` in its own process
(so a probe's 900 MB arena never inflates a measured run) and prints one
JSON object ``{metric: value}``.  Each probe times a public call on the
array shapes the workloads actually sweep, median of ``REPS`` after one
warm-up call.
"""

from __future__ import annotations

import json
import sys
import time

from e2e_stats import median

REPS = 5


def _median_seconds(fn, reps: int = REPS) -> float:
    fn()  # warm the arena, the FFT plans and the caches
    laps = []
    for _ in range(reps):
        t0 = time.perf_counter()
        fn()
        laps.append(time.perf_counter() - t0)
    return median(laps)


def _profile(n: int, axis: int, ndim: int, peak: float):
    """A 1-D shift profile along ``axis`` (the drift's u dt/dx shape)."""
    import numpy as np

    shape = [1] * ndim
    shape[axis] = n
    centers = (np.arange(n) + 0.5) / n * 2.0 - 1.0
    return (peak * centers).reshape(shape)


def probe_advection6d(seed: int) -> dict:
    """``advect()`` on the grav6d f, ns per cell per sweep.

    ``uniform_ax0`` / ``uniform_ax5``: the drift's shift shape (one
    value per velocity cell) along the most strided and the contiguous
    axis at CFL 0.77; ``field_ax3``: the kick's shape (one shift per
    spatial cell, zero BC); ``cfl2_ax0``: the strided drift at shift
    2.3, the integer-offset path hybrid_pm's early steps take.
    """
    import numpy as np
    from repro.core.advection import advect
    from repro.perf.arena import ScratchArena
    from repro.runtime.config import RunConfig
    from repro.runtime.scenarios import build_stepper

    import e2e_workloads as wl

    config = wl.build_config(wl.BY_NAME["grav6d_serial"], seed)
    f = build_stepper(RunConfig.from_dict(config)).f
    back = np.empty_like(f)
    arena = ScratchArena()
    rng = np.random.default_rng(seed)
    field = rng.uniform(-0.3, 0.3, size=f.shape[:3] + (1, 1, 1))
    cases = {
        "core.advection.uniform_ax0_ns":
            (_profile(f.shape[3], 3, 6, 0.77), 0, "periodic"),
        "core.advection.uniform_ax5_ns":
            (_profile(f.shape[0], 0, 6, 0.77), 5, "zero"),
        "core.advection.field_ax3_ns": (field, 3, "zero"),
        "core.advection.cfl2_ax0_ns":
            (_profile(f.shape[3], 3, 6, 2.3), 0, "periodic"),
    }
    out = {}
    for name, (shift, axis, bc) in cases.items():
        seconds = _median_seconds(lambda: advect(
            f, shift, axis, scheme="slmpp5", bc=bc, out=back, arena=arena))
        out[name] = seconds / f.size * 1e9
    return out


def probe_small_call(seed: int) -> dict:
    """One 32x32 float64 sweep — plasma_long's per-call latency, in us."""
    import numpy as np
    from repro.core.advection import advect
    from repro.perf.arena import ScratchArena

    rng = np.random.default_rng(seed)
    f = rng.uniform(0.5, 1.0, size=(32, 32))
    back = np.empty_like(f)
    arena = ScratchArena()
    shift = _profile(32, 1, 2, 0.29)
    seconds = _median_seconds(lambda: advect(
        f, shift, 0, scheme="slmpp5", bc="periodic", out=back, arena=arena),
        reps=201)
    return {"core.advection.small_call_us": seconds * 1e6}


def probe_pack_gain(seed: int) -> dict:
    """in_place / packed time of one axis-0 sweep, packing forced.

    No workload a 2-core host can step crosses the layout engine's
    32 MiB threshold, so ``perf.layout.packed_frac`` is 0 everywhere and
    this probe is the only evidence of what packing buys (> 1: packing
    is faster).  It forces ``layout="packed"`` on an 8.5 MiB array: at
    the threshold itself (34 MiB) the sweep pins a 3.4 GiB arena whose
    first touch alone costs 18 s here, and already at 8.5 MiB the 870
    MiB of scratch, not f, is the working set.  The modes alternate so
    drift in the host's speed hits both alike.
    """
    import numpy as np
    from repro.core.advection import advect
    from repro.perf.arena import ScratchArena

    rng = np.random.default_rng(seed)
    f = rng.uniform(0.5, 1.0, size=(17, 8, 16, 16, 8, 8)).astype(np.float32)
    back = np.empty_like(f)
    arena = ScratchArena()
    shift = _profile(16, 3, 6, 0.77)
    laps: dict[str, list] = {"in_place": [], "packed": []}
    for lap in range(4):  # lap 0 warms the arena
        for mode, out in laps.items():
            t0 = time.perf_counter()
            advect(f, shift, 0, scheme="slmpp5", bc="periodic", out=back,
                   arena=arena, layout=mode)
            if lap:
                out.append(time.perf_counter() - t0)
    return {"perf.layout.pack_gain_ax0":
            median(laps["in_place"]) / median(laps["packed"])}


def probe_treepm(seed: int) -> dict:
    """One TreePM particle-acceleration call on the nx=12 hybrid IC.

    The tree refuses hybrid_pm's nx=8 mesh (r_cut > box/2) and costs
    seconds per call at nx=12, so it is a layer number, not a workload.
    """
    from repro.runtime.scenarios import build_hybrid_simulation

    sim = build_hybrid_simulation(nx=12, nu=4, box_size=100.0, seed=seed,
                                  use_tree=True)
    t0 = time.perf_counter()
    sim.particle_acceleration(sim.a)
    seconds = time.perf_counter() - t0
    return {"nbody.treepm.accel_s": seconds,
            "nbody.treepm.interactions": sim.gravity.counter.count}


PROBES = {
    "advection6d": probe_advection6d,
    "small_call": probe_small_call,
    "pack_gain": probe_pack_gain,
    "treepm": probe_treepm,
}


def main(argv: list[str]) -> int:
    seed = int(argv[0])
    out: dict = {}
    for name in argv[1:]:
        out.update(PROBES[name](seed))
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
