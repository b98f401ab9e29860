"""Table 1: flat vs hierarchical organization run times (paper §3.1).

Regenerates the table on the host and checks its shape against the paper:
the hierarchy always wins and its advantage grows with the helix length.
"""

import numpy as np

from repro.core.hier_solver import HierarchicalSolver
from repro.core.update import UpdateOptions
from repro.experiments.exp_table1 import format_table1
from repro.experiments.paper_data import TABLE1
from repro.experiments.report import render_table
from repro.molecules.rna import build_helix


def test_table1_flat_vs_hierarchical(benchmark, table1_rows):
    problem = build_helix(4)
    problem.assign()
    # The tier run_table1 times, so the timing matches the table beside it.
    solver = HierarchicalSolver(
        problem.hierarchy,
        batch_size=16,
        options=UpdateOptions(kernel_impl="reference"),
    )
    estimate = problem.initial_estimate(0)
    benchmark.pedantic(
        lambda: solver.run_cycle(estimate), rounds=3, iterations=1, warmup_rounds=1
    )

    rows = table1_rows
    print()
    print(format_table1(rows))
    paper = {int(r["length"]): float(r["speedup"]) for r in TABLE1}
    print(
        render_table(
            ["len", "our_speedup", "paper_speedup"],
            [(r.length, r.speedup, paper.get(r.length, float("nan"))) for r in rows],
            title="Hierarchical-over-flat speedup, ours vs paper",
        )
    )

    speedups = [r.speedup for r in rows]
    assert all(s > 1.0 for s in speedups[1:]), "hierarchy must win beyond 1 bp"
    assert speedups[-1] > speedups[0], "advantage must grow with molecule size"
    assert speedups == sorted(speedups), "speedup growth must be monotone"
