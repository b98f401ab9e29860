#!/usr/bin/env python
"""Parallel speedup study: static vs dynamic scheduling on two machines.

Reproduces the mechanics behind the paper's Figures 7-10 on a reduced
helix, then goes beyond the paper: it compares the §4.3 static processor
assignment against the §5 dynamic re-grouping proposal, showing the
static scheme's non-power-of-2 dips and how re-grouping softens them.

Run:  python examples/parallel_speedup_study.py
"""

from repro.core import HierarchicalSolver, UpdateOptions
from repro.machine import (
    CHALLENGE,
    DASH,
    dynamic_assignment_schedule,
    gantt_chart,
    simulate_solve,
)
from repro.molecules import build_helix

problem = build_helix(8)
problem.assign()
# The machine models' rates are calibrated on the reference kernel mix.
solver = HierarchicalSolver(
    problem.hierarchy, batch_size=16, options=UpdateOptions(kernel_impl="reference")
)
cycle = solver.run_cycle(problem.initial_estimate(0))
records = cycle.record_by_nid()

print(f"workload: {problem.name} ({problem.n_atoms} atoms, "
      f"{problem.n_constraint_rows} constraint rows)\n")

for machine in (DASH(), CHALLENGE()):
    max_p = machine.n_processors
    counts = [p for p in (1, 2, 3, 4, 5, 6, 7, 8, 12, 16, 24, 32) if p <= max_p]
    base = simulate_solve(cycle, problem.hierarchy, machine, 1)
    print(f"{machine.name}: {max_p} processors, "
          f"{'distributed' if machine.distributed else 'centralized'} memory")
    print(f"{'NP':>4} {'static':>9} {'dynamic':>9} {'s-spdup':>8} {'d-spdup':>8}")
    for p in counts:
        static = simulate_solve(cycle, problem.hierarchy, machine, p)
        dynamic = dynamic_assignment_schedule(problem.hierarchy, records, machine, p)
        print(
            f"{p:>4} {static.work_time:>9.2f} {dynamic.work_time:>9.2f} "
            f"{base.work_time / static.work_time:>8.2f} "
            f"{base.work_time / dynamic.work_time:>8.2f}"
        )
    print()

# Visualize one schedule: the static assignment at a non-power-of-2 count.
print("schedule at P=6 on DASH (note the stall before the root join):")
print(gantt_chart(simulate_solve(cycle, problem.hierarchy, DASH(), 6), width=72))
print()

print("Things to notice (cf. the paper):")
print(" * static speedups dip at 3, 5, 6, 7 ... — the binary helix tree cannot")
print("   divide an odd processor group evenly, and the smaller sibling group")
print("   stalls the join (paper §4.4).")
print(" * dynamic re-grouping recovers part of each dip by re-dividing all")
print("   processors at every wavefront (paper §5's proposal).")
print(" * the Challenge scales dense-sparse products better than DASH: its")
print("   centralized memory has no remote-miss penalty (paper §4.4).")
