"""High-level facade: one object from constraints to solved structure.

:class:`StructureEstimator` wires together the pieces a downstream user
would otherwise assemble by hand — decomposition (user-supplied,
automatic, or none), constraint assignment, the solver, and the
convergence loop — behind a scikit-style interface:

    est = StructureEstimator(n_atoms, constraints, decomposition="graph")
    solution = est.solve(initial_coords, prior_sigma=5.0)
    solution.estimate.coords        # the structure
    solution.report.converged       # convergence diagnostics
    est.hierarchy                   # the decomposition used
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro import obs
from repro.constraints.base import Constraint
from repro.core.convergence import ConvergenceReport
from repro.core.flat import FlatSolver
from repro.core.hier_solver import HierarchicalSolver
from repro.core.hierarchy import Hierarchy, assign_constraints, flat_hierarchy
from repro.core.state import StructureEstimate
from repro.core.update import UpdateOptions
from repro.errors import HierarchyError

DECOMPOSITIONS = ("flat", "graph", "rcb")


def build_hierarchy(
    decomposition: str,
    constraints: Sequence[Constraint],
    coords: np.ndarray,
    max_leaf_atoms: int = 16,
) -> Hierarchy:
    """An automatic decomposition of ``coords.shape[0]`` atoms.

    ``"flat"`` is one monolithic node; ``"rcb"`` bisects ``coords``
    recursively; ``"graph"`` partitions the constraint graph.
    """
    n_atoms = coords.shape[0]
    if decomposition == "flat":
        return flat_hierarchy(n_atoms)
    if decomposition == "rcb":
        from repro.core.decompose import recursive_coordinate_bisection

        return recursive_coordinate_bisection(coords, max_leaf_atoms)
    if decomposition == "graph":
        from repro.core.decompose import graph_partition_hierarchy

        return graph_partition_hierarchy(n_atoms, constraints, max_leaf_atoms)
    raise HierarchyError(
        f"unknown decomposition {decomposition!r}; choose one of {DECOMPOSITIONS}"
    )


@dataclass(frozen=True)
class Solution:
    """A solved structure with its convergence history."""

    estimate: StructureEstimate
    report: ConvergenceReport

    @property
    def coords(self) -> np.ndarray:
        return self.estimate.coords

    @property
    def converged(self) -> bool:
        return self.report.converged

    @property
    def quarantined_constraints(self) -> int:
        """Constraints excluded after terminal update failure (0 = clean)."""
        return self.report.quarantined_constraints


class StructureEstimator:
    """Estimate a structure from uncertain measurements.

    Parameters
    ----------
    n_atoms:
        Number of atoms in the structure.
    constraints:
        The measurement set (any mix of constraint types).
    decomposition:
        * a :class:`Hierarchy` — use it as given;
        * ``"graph"`` — partition the constraint graph (§5 proposal;
          needs initial coordinates only at solve time);
        * ``"rcb"`` — recursive coordinate bisection of the initial
          coordinates;
        * ``"flat"`` — no hierarchy (the baseline organization).
    batch_size:
        Scalar constraint rows per observation vector (the paper's m).
    max_leaf_atoms:
        Leaf granularity for the automatic decomposers.
    options:
        Per-batch update options (Joseph form, local iterations, retry
        policy, ...).

    A durable run (one that a crash can resume) goes through a
    :class:`~repro.core.session.SolveSession` with a store instead.
    """

    def __init__(
        self,
        n_atoms: int,
        constraints: Sequence[Constraint],
        decomposition: Hierarchy | str = "graph",
        batch_size: int = 16,
        max_leaf_atoms: int = 16,
        options: UpdateOptions = UpdateOptions(),
    ):
        if n_atoms < 1:
            raise HierarchyError("need at least one atom")
        if isinstance(decomposition, str) and decomposition not in DECOMPOSITIONS:
            raise HierarchyError(
                f"unknown decomposition {decomposition!r}; choose a Hierarchy or "
                f"one of {DECOMPOSITIONS}"
            )
        self.n_atoms = int(n_atoms)
        self.constraints = list(constraints)
        self.batch_size = int(batch_size)
        self.max_leaf_atoms = int(max_leaf_atoms)
        self.options = options
        self._decomposition = decomposition
        self.hierarchy: Hierarchy | None = (
            decomposition if isinstance(decomposition, Hierarchy) else None
        )

    # ------------------------------------------------------------- set-up
    def _ensure_hierarchy(self, coords: np.ndarray) -> Hierarchy:
        if self.hierarchy is None:
            self.hierarchy = build_hierarchy(
                self._decomposition, self.constraints, coords, self.max_leaf_atoms
            )
        return self.hierarchy

    # -------------------------------------------------------------- solve
    def solve(
        self,
        initial: np.ndarray | StructureEstimate,
        prior_sigma: float = 10.0,
        max_cycles: int = 50,
        tol: float = 1e-5,
        gauge_invariant: bool = True,
        anneal: tuple[float, float] | None = None,
    ) -> Solution:
        """Iterate constraint cycles from ``initial`` to an equilibrium.

        ``initial`` is either a ``(p, 3)`` coordinate guess (a diagonal
        prior with ``prior_sigma`` is attached) or a full
        :class:`StructureEstimate`.  ``anneal=(start, decay)`` enables the
        variance-annealing schedule, recommended for floppy structures far
        from their data (see :mod:`repro.core.convergence`).
        """
        if isinstance(initial, StructureEstimate):
            estimate = initial
        else:
            estimate = StructureEstimate.from_coords(
                np.asarray(initial, dtype=np.float64), sigma=prior_sigma
            )
        if estimate.n_atoms != self.n_atoms:
            raise HierarchyError(
                f"initial estimate has {estimate.n_atoms} atoms, expected {self.n_atoms}"
            )
        hierarchy = self._ensure_hierarchy(estimate.coords)
        if len(hierarchy) == 1:
            solver = FlatSolver(self.constraints, self.batch_size, self.options)
        else:
            assign_constraints(hierarchy, self.constraints)
            solver = HierarchicalSolver(hierarchy, self.batch_size, self.options)
        decomposition = (
            self._decomposition
            if isinstance(self._decomposition, str)
            else "custom"
        )
        with obs.span(
            "solve",
            cat="solve",
            decomposition=decomposition,
            n_atoms=self.n_atoms,
            n_constraints=len(self.constraints),
            max_cycles=max_cycles,
        ):
            report = solver.solve(
                estimate,
                max_cycles=max_cycles,
                tol=tol,
                gauge_invariant=gauge_invariant,
                anneal=anneal,
            )
        return Solution(estimate=report.estimate, report=report)

    # ---------------------------------------------------------- diagnostics
    def bound_violations(self, coords: np.ndarray, slack: float = 0.0) -> int:
        """Count distance-bound constraints violated at ``coords``."""
        from repro.constraints.bounds import DistanceBoundConstraint

        return sum(
            1
            for c in self.constraints
            if isinstance(c, DistanceBoundConstraint) and not c.satisfied(coords, slack)
        )
