"""Tables 3-6 / Figures 7-10: parallel speedups on DASH and Challenge.

Pipeline: build the workload → run one hierarchical cycle, recording the
per-node kernel-event trace → statically assign processors (work model or
oracle costs) → replay the trace through the machine simulator for every
processor count the paper measured → emit the work time, speedup, and
per-category per-processor time breakdown of Tables 3-6.

Shape criteria: speedups ≈ 24 at 32 processors on DASH and ≈ 14 at 16 on
Challenge; the binary-tree Helix dips at non-power-of-2 processor counts
while the high-branching ribo30S does not; ``m-m``/``sys``/``m-v`` scale
near-ideally, ``chol`` and ``vec`` poorly, and ``d-s`` reaches only
~55-75 % of ideal on DASH (remote misses) but scales well on Challenge.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.core.hier_solver import HierarchicalSolver, HierCycleResult
from repro.core.update import UpdateOptions
from repro.core.workmodel import WorkModel
from repro.experiments import paper_data
from repro.machine import CHALLENGE, DASH, MachineConfig, simulate_solve
from repro.machine.trace import SimulationResult, format_speedup_table
from repro.molecules.problem import StructureProblem
from repro.molecules.ribosome import build_ribo30s
from repro.molecules.rna import build_helix

#: Exhibit id → (workload builder, machine builder, paper table name).
EXHIBITS: dict[str, tuple[Callable[[], StructureProblem], Callable[[], MachineConfig], str]] = {
    "table3": (lambda: build_helix(16), DASH, "table3"),
    "table4": (build_ribo30s, DASH, "table4"),
    "table5": (lambda: build_helix(16), CHALLENGE, "table5"),
    "table6": (build_ribo30s, CHALLENGE, "table6"),
}


@dataclass
class ParallelExperiment:
    """One exhibit's simulated speedup sweep plus its provenance."""

    exhibit: str
    problem_name: str
    machine_name: str
    results: list[SimulationResult]
    cycle: HierCycleResult

    def speedups(self) -> list[float]:
        base = self.results[0]
        return [r.speedup_over(base) for r in self.results]

    def processor_counts(self) -> list[int]:
        return [r.n_processors for r in self.results]

    def formatted(self) -> str:
        return format_speedup_table(self.results)


def run_parallel_experiment(
    exhibit: str,
    processor_counts: list[int] | None = None,
    batch_size: int = 16,
    work_model: WorkModel | None = None,
    seed: int = 0,
) -> ParallelExperiment:
    """Run one of Tables 3-6 end to end.

    ``work_model=None`` uses oracle (measured-FLOP) work estimates for the
    static assignment; pass a fitted Equation 1 model to study the effect
    of work-model error (the assignment-quality ablation).
    """
    build_problem, build_machine, table = EXHIBITS[exhibit]
    problem = build_problem()
    problem.assign()
    machine = build_machine()
    if processor_counts is None:
        processor_counts = paper_data.processor_counts(table)
    # Simulator rates model the reference kernel mix; record with it.
    solver = HierarchicalSolver(
        problem.hierarchy,
        batch_size=batch_size,
        options=UpdateOptions(kernel_impl="reference"),
    )
    cycle = solver.run_cycle(problem.initial_estimate(seed))
    results = [
        simulate_solve(cycle, problem.hierarchy, machine, p, model=work_model, batch_size=batch_size)
        for p in processor_counts
    ]
    return ParallelExperiment(
        exhibit=exhibit,
        problem_name=problem.name,
        machine_name=machine.name,
        results=results,
        cycle=cycle,
    )
