"""Scaling experiments: regenerate Tables 3-4 and Figure 7.

Runs the machine cost model over the Table 2 run matrix exactly the way
the paper runs its measurements: per-step elapsed times decomposed into
Vlasov / tree / PM parts, weak-scaling efficiencies along the matched
per-process-load sequence S2 -> M16 -> L128 -> H1024, and strong-scaling
efficiencies within each run group.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..machine.costmodel import StepBreakdown, predict_step
from .runs import TABLE2, by_id, group_runs

#: The paper's weak-scaling sequence: identical per-node work.
WEAK_SEQUENCE = ("S2", "M16", "L128", "H1024")

PARTS = ("total", "vlasov", "tree", "pm")

#: Paper Table 3, for side-by-side reporting.
PAPER_TABLE3 = {
    "S2-M16": {"total": 96.0, "vlasov": 99.0, "tree": 88.4, "pm": 79.5},
    "S2-L128": {"total": 91.1, "vlasov": 99.2, "tree": 76.8, "pm": 48.7},
    "S2-H1024": {"total": 82.3, "vlasov": 94.4, "tree": 82.0, "pm": 17.1},
}

#: Paper Table 4.
PAPER_TABLE4 = {
    "S": {"total": 87.7, "vlasov": 87.5, "tree": 90.9, "pm": 72.9},
    "M": {"total": 93.3, "vlasov": 93.9, "tree": 97.1, "pm": 60.6},
    "L": {"total": 91.1, "vlasov": 99.6, "tree": 85.7, "pm": 36.2},
    "H": {"total": 82.4, "vlasov": 93.0, "tree": 77.5, "pm": 34.1},
}


def _part(b: StepBreakdown, part: str) -> float:
    return getattr(b, part) if part != "total" else b.total


@dataclass(frozen=True)
class EfficiencyRow:
    """One efficiency entry (percent) for all parts."""

    label: str
    total: float
    vlasov: float
    tree: float
    pm: float

    def as_dict(self) -> dict[str, float]:
        """Part -> percent."""
        return {
            "total": self.total,
            "vlasov": self.vlasov,
            "tree": self.tree,
            "pm": self.pm,
        }


def weak_scaling_table() -> list[EfficiencyRow]:
    """Table 3: weak efficiencies S2 -> {M16, L128, H1024}.

    Weak efficiency of a matched-load pair is T_ref / T (per-step times;
    the per-node workload is identical along the sequence).
    """
    ref = predict_step(by_id(WEAK_SEQUENCE[0]))
    rows = []
    for rid in WEAK_SEQUENCE[1:]:
        b = predict_step(by_id(rid))
        rows.append(
            EfficiencyRow(
                label=f"{WEAK_SEQUENCE[0]}-{rid}",
                **{
                    part: 100.0 * _part(ref, part) / _part(b, part)
                    for part in PARTS
                },
            )
        )
    return rows


def strong_scaling_table() -> list[EfficiencyRow]:
    """Table 4: strong efficiencies across each of the S, M, L, H groups.

    E = (T_small * N_small) / (T_large * N_large) between the smallest and
    largest runs of a group.
    """
    rows = []
    for letter in "SMLH":
        runs = group_runs(letter)
        r0, r1 = runs[0], runs[-1]
        b0, b1 = predict_step(r0), predict_step(r1)
        scale = r1.n_node / r0.n_node
        rows.append(
            EfficiencyRow(
                label=letter,
                **{
                    part: 100.0 * _part(b0, part) / (_part(b1, part) * scale)
                    for part in PARTS
                },
            )
        )
    return rows


def figure7_series() -> dict[str, list[dict]]:
    """Figure 7's data: per-step part times vs node count.

    Returns ``{"weak": [...], "strong": [...]}`` where each entry carries
    the run id, node count, and the per-part seconds — the series the
    paper plots (left: the matched-load weak sequence, right: all runs of
    every group).
    """
    weak = []
    for rid in WEAK_SEQUENCE:
        run = by_id(rid)
        b = predict_step(run)
        weak.append(
            {
                "run": rid,
                "nodes": run.n_node,
                "vlasov": b.vlasov,
                "tree": b.tree,
                "pm": b.pm,
                "total": b.total,
            }
        )
    strong = []
    for run in TABLE2:
        if run.group == "U":
            continue
        b = predict_step(run)
        strong.append(
            {
                "run": run.run_id,
                "group": run.group,
                "nodes": run.n_node,
                "vlasov": b.vlasov,
                "tree": b.tree,
                "pm": b.pm,
                "total": b.total,
            }
        )
    return {"weak": weak, "strong": strong}


def format_efficiency_table(
    rows: list[EfficiencyRow], paper: dict[str, dict[str, float]]
) -> str:
    """Render model-vs-paper efficiencies as a text table."""
    lines = [
        f"{'':>10} | {'total':>13} | {'Vlasov':>13} | {'tree':>13} | {'PM':>13}",
        f"{'':>10} | {'model  paper':>13} | {'model  paper':>13} | "
        f"{'model  paper':>13} | {'model  paper':>13}",
        "-" * 76,
    ]
    for row in rows:
        p = paper.get(row.label, {})
        cells = []
        for part in PARTS:
            model = row.as_dict()[part]
            pap = p.get(part)
            cells.append(
                f"{model:5.1f}% {pap:5.1f}%" if pap is not None else f"{model:5.1f}%   -  "
            )
        lines.append(f"{row.label:>10} | " + " | ".join(cells))
    return "\n".join(lines)


def run_config_table() -> str:
    """Render Table 2 (the run matrix) as text."""
    lines = [
        f"{'ID':>6} {'Nx':>6} {'Nu':>4} {'N_CDM':>7} {'nodes':>7} "
        f"{'decomposition':>15} {'p/node':>6} {'cells':>12}"
    ]
    for run in TABLE2:
        lines.append(
            f"{run.run_id:>6} {run.nx:>5}^3 {run.nu:>3} {run.n_cdm_side:>5}^3 "
            f"{run.n_node:>7} {str(run.n_proc):>15} {run.procs_per_node:>6} "
            f"{run.phase_space_cells:>12.3e}"
        )
    return "\n".join(lines)
