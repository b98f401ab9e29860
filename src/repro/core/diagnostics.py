"""Residual diagnostics: does the estimate agree with the data?

Structure determination lives and dies on knowing *which* measurements a
model fails to satisfy.  :func:`residual_report` aggregates residuals by
constraint type, computes the reduced chi-square of each group (≈1 when
residuals match the stated noise levels) and flags individual outliers —
the standard consistency checks run on any refined structure.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from repro.constraints.base import Constraint
from repro.core.state import StructureEstimate
from repro.errors import DimensionError
from repro.util.table import render_table


@dataclass(frozen=True)
class GroupDiagnostics:
    """Residual statistics for one constraint type."""

    type_name: str
    count: int
    rows: int
    mean_abs: float
    rms: float
    reduced_chi2: float
    worst: float

    @property
    def consistent(self) -> bool:
        """Residuals compatible with the stated noise (χ²/dof within [~0, 3])."""
        return self.reduced_chi2 < 3.0


@dataclass(frozen=True)
class ResidualReport:
    """Per-type diagnostics plus flagged outlier constraints."""

    groups: dict[str, GroupDiagnostics]
    outliers: list[tuple[int, str, float]] = field(default_factory=list)
    # (index into the constraint list, type name, |z|)

    @property
    def overall_reduced_chi2(self) -> float:
        total_chi2 = sum(g.reduced_chi2 * g.rows for g in self.groups.values())
        total_rows = sum(g.rows for g in self.groups.values())
        return total_chi2 / total_rows if total_rows else 0.0

    @property
    def consistent(self) -> bool:
        return all(g.consistent for g in self.groups.values())


def residual_report(
    estimate: StructureEstimate,
    constraints: Sequence[Constraint],
    outlier_z: float = 4.0,
) -> ResidualReport:
    """Aggregate standardized residuals of ``constraints`` at ``estimate``.

    ``outlier_z`` is the |residual|/σ threshold above which an individual
    constraint is flagged (4σ ≈ 1-in-16000 under the stated noise).
    """
    if not constraints:
        raise DimensionError("need at least one constraint to diagnose")
    coords = estimate.coords
    acc: dict[str, list] = {}
    outliers: list[tuple[int, str, float]] = []
    for idx, c in enumerate(constraints):
        name = type(c).__name__
        r = np.atleast_1d(c.residual(coords))
        z = r / np.sqrt(c.variance)
        slot = acc.setdefault(name, [0, [], []])
        slot[0] += 1
        slot[1].extend(np.abs(r).tolist())
        slot[2].extend((z * z).tolist())
        worst_z = float(np.abs(z).max())
        if worst_z > outlier_z:
            outliers.append((idx, name, worst_z))
    groups = {}
    for name, (count, abs_res, chi2_terms) in acc.items():
        abs_arr = np.asarray(abs_res)
        groups[name] = GroupDiagnostics(
            type_name=name,
            count=count,
            rows=len(abs_res),
            mean_abs=float(abs_arr.mean()),
            rms=float(np.sqrt((abs_arr**2).mean())),
            reduced_chi2=float(np.mean(chi2_terms)),
            worst=float(abs_arr.max()),
        )
    outliers.sort(key=lambda t: -t[2])
    return ResidualReport(groups=groups, outliers=outliers)


def format_residual_report(report: ResidualReport, max_outliers: int = 10) -> str:
    rows = [
        (
            g.type_name,
            g.count,
            g.rows,
            g.mean_abs,
            g.rms,
            g.reduced_chi2,
            g.worst,
            "yes" if g.consistent else "NO",
        )
        for g in sorted(report.groups.values(), key=lambda g: g.type_name)
    ]
    text = render_table(
        ["type", "count", "rows", "mean|r|", "rms", "chi2/dof", "worst", "ok"],
        rows,
        title="Residual diagnostics",
    )
    text += f"\noverall chi2/dof: {report.overall_reduced_chi2:.3f}"
    if report.outliers:
        shown = report.outliers[:max_outliers]
        text += "\noutliers (|z| > threshold): " + ", ".join(
            f"#{idx} {name} z={z:.1f}" for idx, name, z in shown
        )
        if len(report.outliers) > max_outliers:
            text += f" … and {len(report.outliers) - max_outliers} more"
    else:
        text += "\nno outliers flagged"
    return text
