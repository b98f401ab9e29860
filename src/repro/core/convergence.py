"""Iteration of constraint cycles to an equilibrium point.

Because the measurement functions are nonlinear, one pass over the
constraints does not reach the maximum-a-posteriori structure; the paper
re-initializes the covariance matrix and repeats the cycle of updates
until the estimate converges.  This module implements that outer loop and
its diagnostics, which the §5 convergence/ordering ablation uses.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable, Sequence

import numpy as np

from repro.core.state import StructureEstimate
from repro.errors import ConvergenceError


@dataclass
class ConvergenceReport:
    """History of an iterated solve.

    Attributes
    ----------
    estimate:
        Final structure estimate (mean from the last cycle; covariance from
        the last cycle's posterior).
    cycles:
        Number of cycles executed.
    deltas:
        Per-cycle mean displacement: RMS coordinate change between
        successive cycle posteriors.  Monotone decay indicates stable
        convergence; the ordering ablation compares how fast different
        constraint orders drive this down.
    converged:
        Whether ``deltas[-1] <= tol``.
    quarantine:
        :class:`~repro.faults.QuarantineRecord` entries for constraint
        batches excluded after terminal update failure, across all cycles
        (empty for a clean solve).
    retries:
        :class:`~repro.faults.RetryReport` entries for every batch update
        that needed at least one regularization retry.
    """

    estimate: StructureEstimate
    cycles: int
    deltas: list[float] = field(default_factory=list)
    converged: bool = False
    quarantine: list = field(default_factory=list)
    retries: list = field(default_factory=list)

    @property
    def quarantined_constraints(self) -> int:
        """Total constraints quarantined over the whole solve."""
        return sum(q.n_constraints for q in self.quarantine)

    @property
    def quarantined_rows(self) -> int:
        """Total scalar constraint rows quarantined over the whole solve."""
        return sum(q.n_rows for q in self.quarantine)

    def cycles_to(self, threshold: float) -> int | None:
        """First cycle index (1-based) whose delta fell below ``threshold``."""
        for i, d in enumerate(self.deltas):
            if d <= threshold:
                return i + 1
        return None


def iterate_to_convergence(
    run_cycle: Callable[[StructureEstimate, int, Sequence[float]], object],
    initial: StructureEstimate,
    max_cycles: int = 50,
    tol: float = 1e-6,
    gauge_invariant: bool = False,
    deltas: Sequence[float] | None = None,
) -> ConvergenceReport:
    """Repeat ``run_cycle(start, cycle, deltas)`` until the mean stops moving.

    Every cold solve runs this loop.  Each cycle starts from the previous
    cycle's mean, copied, over the *prior* covariance (the paper's
    scheme): a fresh linearization of the full constraint set about the
    latest structure, so the posterior covariance never collapses from
    repeatedly counting the same data.  All cycles of a fresh solve share
    one private copy of ``initial.covariance``, made here once, which is
    safe because a cycle must not write its input (the solvers'
    ``run_cycle`` never does).  ``cycle`` is the 1-based cycle number
    and ``deltas`` the displacements of the cycles before it.  The
    callback returns the solver's cycle result (a ``HierCycleResult`` or
    ``FlatCycleResult``): its ``estimate``, and the ``quarantined`` and
    ``retries`` the loop collects into the report's ledger, in cycle
    order.

    ``gauge_invariant=True`` measures each cycle's displacement after
    optimal rigid superposition onto the previous mean.  Distance-only
    data leaves the global rotation/translation free, so a structure can
    be perfectly converged in *shape* while its frame still drifts cycle
    to cycle; the raw metric would never see that as converged.

    A resumed solve passes the ``deltas`` of the cycles finished before
    the interruption (empty if none was) and, as ``initial``, the
    interrupted cycle's input, which the caller saved privately: its
    covariance is shared as is, not copied.  The loop finishes that
    cycle, number ``len(deltas) + 1``, even past ``max_cycles``.
    """
    if deltas is None:
        if max_cycles < 1:
            raise ConvergenceError("max_cycles must be >= 1")
        prior_cov = initial.covariance.copy()
        deltas = []
    else:
        prior_cov = initial.covariance
        deltas = list(deltas)
    first = len(deltas) + 1
    current = initial
    quarantine: list = []
    retries: list = []
    converged = False
    for cycle in range(first, max(first, max_cycles) + 1):
        start = StructureEstimate(current.mean.copy(), prior_cov)
        result = run_cycle(start, cycle, tuple(deltas))
        quarantine.extend(result.quarantined)
        retries.extend(result.retries)
        nxt = result.estimate
        if gauge_invariant:
            # Deferred import: molecules.superpose is a leaf module (numpy
            # only), but importing it via the package would be circular.
            from repro.molecules.superpose import superposed_rmsd

            delta = superposed_rmsd(nxt.coords, current.coords)
        else:
            diff = nxt.mean - current.mean
            delta = float(np.sqrt(diff @ diff / max(1, nxt.n_atoms)))
        deltas.append(delta)
        current = nxt
        if delta <= tol:
            converged = True
            break
    return ConvergenceReport(
        current, len(deltas), deltas, converged, quarantine, retries
    )


def annealing_schedule(
    start: float, decay: float, cycle: int, floor: float = 1.0
) -> float:
    """Geometric noise-inflation schedule: ``max(floor, start · decay^cycle)``.

    Tight nonlinear constraints can trap the sequential estimator in a
    *frustrated equilibrium* — a structure where most constraints are
    satisfied exactly and the rest cannot improve without passing through
    higher-residual states.  Inflating every measurement variance early
    (soft constraints → smooth, convex-ish landscape) and tightening
    geometrically recovers the behaviour of the paper's conformational
    search preprocessing within the estimator itself.
    """
    if start < 1.0 or not 0.0 < decay < 1.0:
        raise ConvergenceError("annealing needs start >= 1 and 0 < decay < 1")
    return max(floor, start * decay**cycle)


def solve_to_convergence(
    solver,
    estimate: StructureEstimate,
    max_cycles: int = 50,
    tol: float = 1e-6,
    gauge_invariant: bool = False,
    anneal: tuple[float, float] | None = None,
) -> ConvergenceReport:
    """Iterate ``solver.run_cycle(start, options)`` to convergence.

    The one ``solve`` of :class:`~repro.core.hier_solver.HierarchicalSolver`
    and :class:`~repro.core.flat.FlatSolver`.  ``anneal=(start, decay)``
    inflates every measurement variance of cycle ``k`` (0-based) by
    :func:`annealing_schedule`; ``None`` runs every cycle at the solver's
    own options.
    """

    def run(start: StructureEstimate, cycle: int, deltas):
        options = solver.options
        if anneal is not None:
            scale = annealing_schedule(anneal[0], anneal[1], cycle - 1)
            options = replace(options, noise_scale=options.noise_scale * scale)
        return solver.run_cycle(start, options)

    return iterate_to_convergence(run, estimate, max_cycles, tol, gauge_invariant)
