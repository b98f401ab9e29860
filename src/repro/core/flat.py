"""The flat (non-hierarchical) solver — the paper's baseline.

One cycle treats the whole molecule as a single state vector and applies
every constraint batch in sequence with the Figure 1 update.  Complexity
per scalar constraint is O(n²) in the full state dimension, which is what
the hierarchical decomposition beats (Table 1).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro import obs
from repro.constraints.base import Constraint
from repro.constraints.batch import make_batches
from repro.core.convergence import ConvergenceReport, solve_to_convergence
from repro.core.state import StructureEstimate
from repro.core.update import UpdateOptions, apply_batches
from repro.faults.report import QuarantineRecord, RetryReport
from repro.linalg.counters import Recorder, current_recorder, recording
from repro.util.timer import Timer


@dataclass(frozen=True)
class FlatCycleResult:
    """Outcome of one flat cycle: posterior, timing and event recorder."""

    estimate: StructureEstimate
    seconds: float
    recorder: Recorder
    n_constraint_rows: int
    quarantined: tuple[QuarantineRecord, ...] = ()
    retries: tuple[RetryReport, ...] = ()

    @property
    def seconds_per_constraint(self) -> float:
        return self.seconds / max(1, self.n_constraint_rows)


class FlatSolver:
    """Applies all constraints to the global estimate in fixed-size batches.

    Parameters
    ----------
    constraints:
        Constraint set, applied in the given order.
    batch_size:
        Target scalar rows per observation vector (the paper's ``m``).
    options:
        Per-batch update options.
    """

    def __init__(
        self,
        constraints: Sequence[Constraint],
        batch_size: int = 16,
        options: UpdateOptions = UpdateOptions(),
    ):
        self.constraints = list(constraints)
        self.batch_size = int(batch_size)
        self.options = options
        self.batches = make_batches(self.constraints, self.batch_size)
        self.n_constraint_rows = sum(b.dimension for b in self.batches)

    def run_cycle(
        self, estimate: StructureEstimate, options: UpdateOptions | None = None
    ) -> FlatCycleResult:
        """One complete cycle over the constraint set (paper's measured unit).

        ``options`` overrides the solver's defaults for this cycle only
        (used by the annealing schedule).  The cycle never writes
        ``estimate``: its first batch copies before it downdates.
        """
        opts = options if options is not None else self.options
        outer = current_recorder()
        rec = outer if outer is not None else Recorder()
        quarantined: list[QuarantineRecord] = []
        retries: list[RetryReport] = []
        timer = Timer()
        with obs.span(
            "cycle",
            cat="solve",
            solver="flat",
            rows=self.n_constraint_rows,
            n_batches=len(self.batches),
        ), recording(rec):
            with timer, rec.tagged("flat"):
                current = apply_batches(
                    estimate, self.batches, None, opts, "flat", quarantined, retries
                )
        obs.inc("solve.cycles")
        obs.observe_latency("cycle.seconds", timer.elapsed)
        return FlatCycleResult(
            current,
            timer.elapsed,
            rec,
            self.n_constraint_rows,
            quarantined=tuple(quarantined),
            retries=tuple(retries),
        )

    def solve(
        self,
        estimate: StructureEstimate,
        max_cycles: int = 50,
        tol: float = 1e-6,
        gauge_invariant: bool = False,
        anneal: tuple[float, float] | None = None,
    ) -> ConvergenceReport:
        """Iterate cycles to convergence (see :mod:`repro.core.convergence`)."""
        return solve_to_convergence(
            self, estimate, max_cycles, tol, gauge_invariant, anneal
        )
