"""Table 1 / Figure 5: flat vs hierarchical organization on the helix.

For helices of 1-16 base pairs we run one complete cycle of constraint
application with (a) the flat solver over the whole state and (b) the
hierarchical solver over the Figure 2 decomposition, and report total and
per-scalar-constraint wall time plus the hierarchical-over-flat speedup.

Shape criteria (paper values in :data:`repro.experiments.paper_data.TABLE1`):
flat per-constraint time grows ~quadratically with molecule size,
hierarchical ~linearly, so the speedup grows with the helix length
(1.78× at 1 bp up to 30× at 16 bp on the paper's hardware).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.flat import FlatSolver
from repro.core.hier_solver import HierarchicalSolver
from repro.core.update import UpdateOptions
from repro.experiments.report import render_table
from repro.molecules.rna import build_helix


@dataclass(frozen=True)
class Table1Row:
    """One helix length's flat-vs-hierarchical measurement."""

    length: int
    atoms: int
    constraint_rows: int
    flat_total: float
    flat_per_constraint: float
    hier_total: float
    hier_per_constraint: float

    @property
    def speedup(self) -> float:
        return self.flat_total / self.hier_total


def run_table1(
    lengths: tuple[int, ...] = (1, 2, 4, 8, 16),
    batch_size: int = 16,
    seed: int = 0,
) -> list[Table1Row]:
    """Measure one flat and one hierarchical cycle per helix length.

    The cycles run on ``kernel_impl="reference"``, like Table 2, the
    calibration and the simulator exhibits.  Table 1 measures the
    paper's arithmetic claim: the hierarchy applies each constraint row
    to a smaller state.  The reference tier's per-batch cost is that
    arithmetic, and EXPERIMENTS.md's Table 1 numbers come from it.  The
    production ``"vector"`` tier does not yet show the shape below about
    8 bp, because its fixed per-batch cost hides the arithmetic the
    hierarchy removes (ROADMAP item 3).
    """
    options = UpdateOptions(kernel_impl="reference")
    rows: list[Table1Row] = []
    for length in lengths:
        problem = build_helix(length)
        problem.assign()
        estimate = problem.initial_estimate(seed)
        flat = FlatSolver(problem.constraints, batch_size=batch_size, options=options)
        flat_res = flat.run_cycle(estimate)
        hier = HierarchicalSolver(
            problem.hierarchy, batch_size=batch_size, options=options
        )
        hier_res = hier.run_cycle(estimate)
        rows.append(
            Table1Row(
                length=length,
                atoms=problem.n_atoms,
                constraint_rows=problem.n_constraint_rows,
                flat_total=flat_res.seconds,
                flat_per_constraint=flat_res.seconds_per_constraint,
                hier_total=hier_res.seconds,
                hier_per_constraint=hier_res.seconds_per_constraint,
            )
        )
    return rows


def format_table1(rows: list[Table1Row]) -> str:
    return render_table(
        ["len", "atoms", "rows", "flat_s", "flat_per", "hier_s", "hier_per", "speedup"],
        [
            (
                r.length,
                r.atoms,
                r.constraint_rows,
                r.flat_total,
                r.flat_per_constraint,
                r.hier_total,
                r.hier_per_constraint,
                r.speedup,
            )
            for r in rows
        ],
        title="Table 1: helix run times, flat vs hierarchical (host-measured)",
    )


def figure5_series(rows: list[Table1Row]) -> dict[str, list[float]]:
    """Figure 5's two curves: per-constraint time vs helix length."""
    return {
        "length": [float(r.length) for r in rows],
        "flat_per_constraint": [r.flat_per_constraint for r in rows],
        "hier_per_constraint": [r.hier_per_constraint for r in rows],
    }
