"""Table 2 / Figure 6 / Equation 1: the batch-dimension sweep.

For nodes of the five Table 2 sizes (43-680 atoms) we apply distance
constraints through the update procedure with batch dimensions 1-512 and
measure the average wall time per scalar constraint, then fit the
Equation 1 work model to the grid with the paper's constrained
regression.

Shape criteria: per-constraint time grows ~quadratically with node size
at fixed batch; at fixed node size it is U-shaped in the batch dimension
(huge per-batch overhead amortizes away, then the O(m²) Cholesky and
O(m·n) gain terms take over).  The *location* of the minimum is a cache
artifact of the measuring host — the paper's 1996 machines put it at
m≈16; a modern BLAS host typically pushes it somewhat higher.

To keep each cell affordable the sweep applies a bounded number of
constraint rows per cell (enough full batches for a stable mean) rather
than the node's entire constraint set; times are per scalar row, so this
does not bias the statistic.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.flat import FlatSolver
from repro.core.update import UpdateOptions
from repro.core.workmodel import WorkModel, fit_work_model
from repro.experiments.report import render_table
from repro.molecules.rna import build_helix

#: Helix lengths generating the Table 2 node sizes 43/86/170/340/680.
NODE_LENGTHS = (1, 2, 4, 8, 16)
DEFAULT_BATCH_DIMS = (1, 2, 4, 8, 16, 32, 64, 128, 256, 512)


@dataclass
class Table2Result:
    """The measured grid and the fitted Equation 1 model."""

    node_sizes: list[int]  # atoms
    batch_dims: list[int]
    times: np.ndarray  # (len(batch_dims), len(node_sizes)) s per scalar row
    model: WorkModel | None = None
    samples: list[tuple[float, float, float]] = field(default_factory=list)

    def best_batch_per_size(self) -> dict[int, int]:
        """Measured optimum batch dimension per node size."""
        out = {}
        for j, size in enumerate(self.node_sizes):
            out[size] = int(self.batch_dims[int(np.argmin(self.times[:, j]))])
        return out


def run_table2(
    lengths: tuple[int, ...] = NODE_LENGTHS,
    batch_dims: tuple[int, ...] = DEFAULT_BATCH_DIMS,
    max_rows_per_cell: int = 512,
    min_batches_per_cell: int = 4,
    repeats: int = 1,
    seed: int = 0,
    fit: bool = True,
) -> Table2Result:
    """Measure the grid; optionally fit the Equation 1 work model.

    Each cell applies ``min(max_rows_per_cell, all)`` constraint rows in
    batches of the cell's dimension (at least ``min_batches_per_cell``
    full batches).  ``repeats`` runs that many passes over the whole
    grid and keeps each cell's best: a cell's repeats are spread over
    the run rather than back to back, so one slow spell of the host
    cannot spoil all of them.
    """
    node_sizes: list[int] = []
    cells = []  # (i, j, n, m, solver, estimate), in sample order
    for j, length in enumerate(lengths):
        problem = build_helix(length)
        node_sizes.append(problem.n_atoms)
        estimate = problem.initial_estimate(seed)
        for i, m in enumerate(batch_dims):
            rows_budget = max(max_rows_per_cell, min_batches_per_cell * m)
            constraints = _take_rows(problem.constraints, rows_budget)
            # Pinned to the reference kernels: this grid feeds the
            # Equation 1 fit that calibrates the machine simulator, whose
            # per-category rates are defined against the published
            # (pre-optimization) kernel mix — same policy as
            # repro.experiments.calibration.record_cycle.
            solver = FlatSolver(
                constraints,
                batch_size=m,
                options=UpdateOptions(kernel_impl="reference"),
            )
            cells.append((i, j, float(problem.state_dim), float(m), solver, estimate))
    times = np.full((len(batch_dims), len(lengths)), np.inf)
    for _ in range(max(1, repeats)):
        for i, j, _, _, solver, estimate in cells:
            res = solver.run_cycle(estimate)
            times[i, j] = min(times[i, j], res.seconds_per_constraint)
    samples = [(n, m, float(times[i, j])) for i, j, n, m, _, _ in cells]
    model = None
    if fit:
        ns = np.array([s[0] for s in samples])
        ms = np.array([s[1] for s in samples])
        ts = np.array([s[2] for s in samples])
        model = fit_work_model(ns, ms, ts)
    return Table2Result(node_sizes, list(batch_dims), times, model, samples)


def _take_rows(constraints, budget: int):
    """Prefix of the constraint list totalling at least ``budget`` rows."""
    out, rows = [], 0
    for c in constraints:
        out.append(c)
        rows += c.dimension
        if rows >= budget:
            break
    return out


def format_table2(result: Table2Result) -> str:
    headers = ["batch\\atoms"] + [str(s) for s in result.node_sizes]
    rows = []
    for i, m in enumerate(result.batch_dims):
        rows.append([m] + [float(result.times[i, j]) for j in range(len(result.node_sizes))])
    text = render_table(
        headers, rows, title="Table 2: seconds per scalar constraint (host-measured)"
    )
    if result.model is not None:
        c = result.model.coefficients
        text += (
            "\nEquation 1 fit: t = "
            f"{c[0]:.3e} + {c[1]:.3e}·n + {c[2]:.3e}·n² + {c[3]:.3e}·m + {c[4]:.3e}·n·m"
        )
        text += f"\npaper checks satisfied: {result.model.satisfies_paper_checks()}"
    text += f"\nmeasured optimum batch per node size: {result.best_batch_per_size()}"
    return text


def figure6_series(result: Table2Result) -> dict[str, np.ndarray]:
    """Figure 6's two projected views of the Table 2 surface."""
    return {
        "batch_dims": np.asarray(result.batch_dims, dtype=float),
        "node_sizes": np.asarray(result.node_sizes, dtype=float),
        "time_vs_batch": result.times,        # one curve per node size
        "time_vs_size": result.times.T,       # one curve per batch dim
    }
