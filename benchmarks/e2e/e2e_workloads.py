"""The five end-to-end workloads: one ``RunConfig`` dict each, built from a seed.

Every workload is a plain config the CLI accepts (``repro run <cfg>``);
the seed enters only through cost-neutral IC knobs (the cosine
perturbation amplitude, the hybrid realization seed), so two seeds do
the same amount of work on different numbers.  ``why`` is the reason the
workload exists — the same sentence ``BENCHMARK.json`` carries.

Sizing (2 x Xeon 2.1 GHz, measured, see README.md): each full run is
10-20 s, so one measured launch per invocation fits the driver's budget.
"""

from __future__ import annotations

import copy
import random
from dataclasses import dataclass

#: The reference 6-D grid shared by the three ``grav6d_*`` workloads:
#: 16x8x8 spatial, 8^3 velocity, float32 (a 2 MiB f).  Blocks of 8 along
#: x are exactly 2 x ghost width, so topology [2,1,1] runs the domain
#: engine's production overlap path; dt keeps the drift CFL at 0.77 < 1,
#: so that path never falls back to the host.
_GRAV6D = {
    "scenario": "gravitational",
    "scheme": "slmpp5",
    "grid": {"nx": [16, 8, 8], "nu": [8, 8, 8], "box_size": 1.0,
             "v_max": 6.0, "dtype": "float32"},
    "schedule": {"kind": "time", "n_steps": 12, "dt": 0.008},
    "checkpoint": {"every_steps": 4},
    "diagnostics": {"every_steps": 4},
    "params": {"sigma_v": 1.0},
}


@dataclass(frozen=True)
class Workload:
    """One benchmark workload.

    ``split_at`` makes the run a restart chain: ``repro run --max-steps
    split_at`` (exit 75) followed by ``repro resume`` (exit 0).
    ``smoke_steps`` is the schedule length of the CI smoke variant.
    """

    name: str
    why: str
    base: dict
    min_cores: int = 1
    split_at: int | None = None
    smoke_steps: int = 3
    seeded_param: str = "amplitude"


def _grav6d(name: str, why: str, engine: dict | None = None,
            min_cores: int = 1) -> Workload:
    base = copy.deepcopy(_GRAV6D)
    if engine is not None:
        base["engine"] = engine
    return Workload(name=name, why=why, base=base, min_cores=min_cores)


WORKLOADS: tuple[Workload, ...] = (
    _grav6d(
        "grav6d_serial",
        "reference 6-D run, engine off: 95% of tts is Vlasov sweeps, so "
        "kernel, arena and layout work shows here most cleanly",
    ),
    _grav6d(
        "grav6d_pencil",
        "same grid and schedule chunked over 2 threads by PencilEngine: "
        "strong scaling and the chunking working-set effect on real cores",
        engine={"engine": "pencil", "backend": "threads", "n_workers": 2},
        min_cores=2,
    ),
    _grav6d(
        "grav6d_domain",
        "same grid on DomainEngine topology [2,1,1]: halo overlap path at "
        "CFL<1, the workload the domain-engine decision rule is judged on",
        engine={"engine": "domain", "topology": [2, 1, 1]},
        min_cores=2,
    ),
    Workload(
        name="hybrid_pm",
        why="hybrid Vlasov+PM z=10->0 as run(--max-steps 10)+resume: "
            "drift CFL 2.1->0.4, particles in checkpoints, restart read path",
        base={
            "scenario": "hybrid",
            "scheme": "slmpp5",
            "grid": {"nx": [8, 8, 8], "nu": [8, 8, 8], "box_size": 100.0,
                     "dtype": "float32"},
            "schedule": {"kind": "scale_factor", "n_steps": 20,
                         "a_start": 1.0 / 11.0, "a_end": 1.0,
                         "spacing": "log"},
            "checkpoint": {"every_steps": 5},
            "diagnostics": {"every_steps": 5},
            # the Fermi-Dirac tail is cut at the 0.997 quantile, so the
            # zero-BC kicks legitimately lose ~1e-4 of the mass
            "guards": {"max_mass_drift": 1.0e-3},
            "params": {"m_nu": 0.4, "use_tree": False},
        },
        split_at=10,
        smoke_steps=6,
        seeded_param="seed",
    ),
    Workload(
        name="plasma_long",
        why="6000 tiny 1D1V steps: per-call latency and the runner, "
            "ledger, guard and telemetry tax dominate, not bandwidth",
        base={
            "scenario": "plasma",
            "scheme": "slmpp5",
            "grid": {"nx": [32], "nu": [32]},
            "schedule": {"kind": "time", "n_steps": 6000, "dt": 0.05},
            "checkpoint": {"every_steps": 200, "keep_last": 3},
            "diagnostics": {"every_steps": 100},
        },
    ),
)

BY_NAME = {w.name: w for w in WORKLOADS}


def build_config(workload: Workload, seed: int, smoke: bool = False) -> dict:
    """The workload's full-run config for one seed.

    The seed picks the cosine IC amplitude 0.05 + 0.01 u(seed) (kinetic
    scenarios) or the Gaussian realization (hybrid): different inputs,
    identical cost (steps at amplitude 0.05 and 0.10 time the same to
    1%).  The range stops at 0.06 because plasma_long's 6000-step energy
    drift grows with the squared amplitude — 2.6e-3 at 0.05, 1.3e-2 at
    0.10 — and must stay under the 5e-3 gate for every seed.  ``smoke``
    shrinks the schedule to a few steps with a cadence that still
    exercises checkpoint + diagnostics.
    """
    config = copy.deepcopy(workload.base)
    config["name"] = workload.name
    params = config.setdefault("params", {})
    if workload.seeded_param == "seed":
        params["seed"] = int(seed)
    else:
        params["amplitude"] = 0.05 + 0.01 * random.Random(seed).random()
    if smoke:
        config["schedule"]["n_steps"] = workload.smoke_steps
        config["checkpoint"]["every_steps"] = 2
        config["diagnostics"]["every_steps"] = 2
    return config


def split_step(workload: Workload, smoke: bool = False) -> int | None:
    """Where the restart chain splits (``--max-steps``), or None."""
    if workload.split_at is None:
        return None
    return workload.smoke_steps // 2 if smoke else workload.split_at


def setup_config(config: dict) -> dict:
    """The same run reduced to its fixed cost: one step, no cadence.

    What is left is interpreter start, imports, engine spawn, IC build,
    the cold first step, the final checkpoint and teardown.
    """
    config = copy.deepcopy(config)
    config["schedule"]["n_steps"] = 1
    config.pop("checkpoint", None)
    config.pop("diagnostics", None)
    return config
