"""§5 ablation: static vs dynamic processor assignment.

Replays one recorded cycle through (a) the paper's static
recursive-bipartition schedule and (b) the §5 dynamic re-grouping policy,
across processor counts.  The interesting region is the helix's
non-power-of-2 counts, where the static scheme's uneven sibling groups
stall at the parent synchronization and dynamic re-grouping recovers part
of the loss.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.hier_solver import HierarchicalSolver
from repro.core.update import UpdateOptions
from repro.experiments.report import render_table
from repro.machine import (
    DASH,
    MachineConfig,
    dynamic_assignment_schedule,
    simulate_solve,
)
from repro.molecules.problem import StructureProblem
from repro.molecules.rna import build_helix


@dataclass(frozen=True)
class DynamicResult:
    n_processors: int
    static_time: float
    dynamic_time: float

    @property
    def improvement(self) -> float:
        """Fractional time saved by dynamic re-grouping (can be negative)."""
        return 1.0 - self.dynamic_time / self.static_time


def run_dynamic_ablation(
    problem: StructureProblem | None = None,
    machine: MachineConfig | None = None,
    processor_counts: tuple[int, ...] = (2, 3, 4, 5, 6, 7, 8, 10, 12, 14, 16),
    batch_size: int = 16,
    sync_seconds: float = 1e-4,
    seed: int = 0,
) -> list[DynamicResult]:
    """Compare the two scheduling policies on one recorded cycle."""
    if problem is None:
        problem = build_helix(8)
        problem.assign()
    if machine is None:
        machine = DASH()
    # Simulator rates model the reference kernel mix; record with it.
    solver = HierarchicalSolver(
        problem.hierarchy,
        batch_size=batch_size,
        options=UpdateOptions(kernel_impl="reference"),
    )
    cycle = solver.run_cycle(problem.initial_estimate(seed))
    records = cycle.record_by_nid()
    results = []
    for p in processor_counts:
        static = simulate_solve(cycle, problem.hierarchy, machine, p)
        dynamic = dynamic_assignment_schedule(
            problem.hierarchy, records, machine, p, sync_seconds
        )
        results.append(DynamicResult(p, static.work_time, dynamic.work_time))
    return results


def format_dynamic(results: list[DynamicResult]) -> str:
    return render_table(
        ["NP", "static_s", "dynamic_s", "improvement"],
        [(r.n_processors, r.static_time, r.dynamic_time, r.improvement) for r in results],
        title="Static vs dynamic processor assignment (simulated)",
    )
