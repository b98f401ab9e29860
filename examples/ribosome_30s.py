#!/usr/bin/env python
"""Model the 30S ribosomal subunit (the paper's §4.4 large workload).

A synthetic complex with the published composition — 21 proteins anchored
by neutron-diffraction positions, the 16S rRNA's ~65 helices and ~65
coils positioned by inter-helix and helix-protein distance data, ~900
pseudo-atoms and ~6500 constraints in all — solved hierarchically and
then priced on the simulated DASH multiprocessor at several machine
sizes.

Run:  python examples/ribosome_30s.py
"""

import numpy as np

from repro.core import HierarchicalSolver, UpdateOptions
from repro.machine import DASH, simulate_solve
from repro.machine.trace import format_speedup_table
from repro.molecules import build_ribo30s

problem = build_ribo30s(seed=0)
problem.assign()

print(f"workload: {problem.name}")
print(f"  pseudo-atoms: {problem.n_atoms}, scalar constraints: {problem.n_constraint_rows}")
print("  constraint mix:")
for kind, count in problem.metadata["category_counts"].items():
    print(f"    {kind:20s} {count}")
root = problem.hierarchy.root
print(f"  tree: {len(problem.hierarchy)} nodes; root branches into "
      f"{len(root.children)} domains; height {problem.hierarchy.height()}")

# --- one hierarchical cycle, recording every kernel ------------------------
# The machine models' rates are calibrated on the reference kernel mix.
solver = HierarchicalSolver(
    problem.hierarchy, batch_size=16, options=UpdateOptions(kernel_impl="reference")
)
estimate = problem.initial_estimate(seed=0)
cycle = solver.run_cycle(estimate)
print(f"\none cycle on the host: {cycle.seconds:.2f} s, "
      f"{len(cycle.recorder.events)} kernel events")

coords = cycle.estimate.coords
sample = problem.constraints[:: max(1, len(problem.constraints) // 200)]
residual = float(np.mean([np.abs(c.residual(coords)).mean() for c in sample]))
print(f"mean constraint residual after one cycle: {residual:.2f} Å "
      "(full convergence takes 20-200 cycles; see the paper)")

# --- price the same cycle on the 1996 Stanford DASH ------------------------
print("\nsimulated DASH (32x 33 MHz MIPS R3000, 8 clusters, directory coherence):")
results = [
    simulate_solve(cycle, problem.hierarchy, DASH(), p) for p in (1, 2, 4, 8, 16, 32)
]
print(format_speedup_table(results))
print("\npaper's Table 4 reference points: 924.57 s at 1 processor, "
      "speedup 24.24 at 32.")

# Which parts of the structure does the data define best?  Proteins are
# anchored absolutely; coils hang off helices through loose long-range data.
uncertainty = cycle.estimate.atom_uncertainty()
protein_atoms = [c.atoms[0] for c in problem.constraints if len(c.atoms) == 1]
mask = np.zeros(problem.n_atoms, dtype=bool)
mask[list(protein_atoms)] = True
print(f"\nmean positional uncertainty: proteins {uncertainty[mask].mean():.2f} Å, "
      f"rRNA {uncertainty[~mask].mean():.2f} Å")
