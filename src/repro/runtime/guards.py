"""Per-step health monitors for production runs.

At-scale Vlasov runs fail in characteristic ways: a NaN injected by an
over-aggressive timestep silently poisons every subsequent FFT; an
unlimited scheme drives f negative; conservation drifts past the scheme
guarantee signal a genuine bug; a step that takes 100x its usual wall
clock means a node (here: the allocator or the OS) is in trouble.  The
paper's runs monitor conserved quantities in flight for exactly this
reason.  Each guard here checks one failure mode after every step and
carries a policy:

* ``"off"`` — not checked;
* ``"warn"`` — report (into telemetry) and keep running;
* ``"abort"`` — report, let the runner write a final checkpoint, mark
  the run aborted, and exit.  The checkpoint is written *before* the
  exit so the state that tripped the guard is inspectable — and the run
  resumable once the cause is fixed.
* ``"rollback"`` — report and let the runner restore the newest valid
  checkpoint, shrink dt by the configured factor, and re-run (see
  :mod:`repro.runtime.recovery`); when the attempt budget is exhausted
  the trip escalates to the abort path.

Guards never mutate simulation state and never raise on healthy data;
the runner stays in charge of control flow.  When both policies fire in
one step, abort outranks rollback (a state bad enough to abort on must
not be silently retried away).
"""

from __future__ import annotations

from dataclasses import dataclass

from ..core.moments import finite_stats
from ..diagnostics.timers import ConservationLedger
from .config import GuardConfig

__all__ = ["GuardReport", "GuardSuite"]


@dataclass(frozen=True)
class GuardReport:
    """One guard firing: which guard, at what policy, and why."""

    guard: str
    policy: str  # "warn" | "abort" | "rollback"
    message: str

    def as_dict(self) -> dict:
        """JSON-ready form for the telemetry stream."""
        return {"guard": self.guard, "policy": self.policy, "message": self.message}


class GuardSuite:
    """All configured guards, checked together after every step.

    Conservation thresholds are keyed by quantity name: keys containing
    ``"mass"`` check against ``max_mass_drift``, keys containing
    ``"energy"`` against ``max_energy_drift``; other ledger keys are
    tracked in telemetry but not guarded.
    """

    def __init__(self, config: GuardConfig, ledger: ConservationLedger) -> None:
        self.config = config
        self.ledger = ledger

    def check_step(self, stepper, wall_seconds: float) -> list[GuardReport]:
        """Run every enabled guard; returns the reports that fired."""
        cfg = self.config
        reports: list[GuardReport] = []

        if cfg.nan != "off" or cfg.negative_f != "off":
            # steppers may answer from distributed partials (the domain
            # engine never gathers f for this); summed counts and min of
            # minima are exact, so both paths fire identically
            stats = getattr(stepper, "f_stats", None)
            n_bad, fmin = stats() if stats is not None \
                else finite_stats(stepper.f)
            if cfg.nan != "off" and n_bad:
                reports.append(GuardReport(
                    "nan", cfg.nan,
                    f"{n_bad} non-finite values in f at step {stepper.index}",
                ))
            if cfg.negative_f != "off" and fmin < -cfg.negative_f_tol:
                reports.append(GuardReport(
                    "negative_f", cfg.negative_f,
                    f"min(f) = {fmin:.3e} below -{cfg.negative_f_tol:.1e} "
                    f"at step {stepper.index}",
                ))

        if cfg.conservation != "off":
            for key in self.ledger.initial:
                if "mass" in key:
                    threshold = cfg.max_mass_drift
                elif "energy" in key:
                    threshold = cfg.max_energy_drift
                else:
                    continue
                drift = self.ledger.relative_drift(key)
                if drift > threshold:
                    kind = "relative" if self.ledger.is_relative(key) else "absolute"
                    reports.append(GuardReport(
                        "conservation", cfg.conservation,
                        f"{key} {kind} drift {drift:.3e} exceeds "
                        f"{threshold:.3e} at step {stepper.index}",
                    ))

        if cfg.stall != "off" and wall_seconds > cfg.max_step_seconds:
            reports.append(GuardReport(
                "stall", cfg.stall,
                f"step {stepper.index} took {wall_seconds:.1f} s "
                f"(budget {cfg.max_step_seconds:.1f} s)",
            ))

        return reports

    @staticmethod
    def should_abort(reports: list[GuardReport]) -> bool:
        """Whether any fired guard carries the abort policy."""
        return any(r.policy == "abort" for r in reports)

    @staticmethod
    def should_rollback(reports: list[GuardReport]) -> bool:
        """Whether any fired guard asks for a rollback (abort outranks)."""
        return any(r.policy == "rollback" for r in reports) and not any(
            r.policy == "abort" for r in reports
        )
