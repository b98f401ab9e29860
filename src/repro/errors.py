"""Exception hierarchy for the :mod:`repro` library.

All library-raised exceptions derive from :class:`ReproError` so callers can
catch everything from this package with a single ``except`` clause while
still being able to discriminate failure modes.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class DimensionError(ReproError, ValueError):
    """An array argument has an incompatible shape or dimension."""


class NotPositiveDefiniteError(ReproError, ValueError):
    """A matrix expected to be (semi-)positive definite is not.

    Raised by Cholesky-based routines when factorization fails; usually a
    symptom of an inconsistent or degenerate constraint set, or of numerical
    drift in a covariance matrix.

    Attributes
    ----------
    condition_estimate:
        1-norm condition-number estimate of the offending matrix
        (``inf`` for exactly singular input, ``None`` if unavailable).
    regularization:
        Relative diagonal regularization that had been applied when the
        factorization was attempted (0.0 = unregularized attempt).
    """

    def __init__(
        self,
        message: str,
        *,
        condition_estimate: float | None = None,
        regularization: float | None = None,
    ):
        super().__init__(message)
        self.condition_estimate = condition_estimate
        self.regularization = regularization


class ConstraintError(ReproError, ValueError):
    """A constraint is malformed (bad indices, non-positive variance, ...)."""


class HierarchyError(ReproError, ValueError):
    """A structure hierarchy violates a tree invariant.

    Examples: a node's atom set is not the disjoint union of its children's
    sets, or a constraint is assigned to a node that does not contain all of
    its atoms.
    """


class AssignmentError(ReproError, ValueError):
    """Processor assignment is infeasible or violates an invariant."""


class SimulationError(ReproError, RuntimeError):
    """The machine simulator reached an inconsistent state."""


class ConvergenceError(ReproError, RuntimeError):
    """An iterative solve failed to converge within its iteration budget."""


class WorkModelError(ReproError, ValueError):
    """The work-estimation regression failed its positivity checks."""


class InjectedFaultError(ReproError, RuntimeError):
    """A fault deliberately injected by :mod:`repro.faults` surfaced.

    Also raised by the update's fault detectors when a poisoned (non-finite)
    intermediate is caught before it can contaminate the committed state.
    """


class WorkerCrashError(ReproError, RuntimeError):
    """A parallel worker died (or was made to die) before finishing its task.

    Executors translate both injected crashes and real broken-pool events
    into this type; it is also what they raise when a task keeps failing
    after the resubmission budget is exhausted.
    """


class BatchUpdateError(ReproError, RuntimeError):
    """A constraint-batch update failed terminally despite retries.

    Carries the structured :class:`repro.faults.RetryReport` describing
    every attempt, so callers can quarantine the batch and keep going.
    """

    def __init__(self, message: str, report=None):
        super().__init__(message)
        self.report = report


class CheckpointError(ReproError, RuntimeError):
    """A session store directory is missing, corrupt, or of another version."""


class SessionError(ReproError, RuntimeError):
    """A solve session was used out of order (e.g. re-solve before solve)."""


class TraceAnalysisError(ReproError, RuntimeError):
    """A recorded trace cannot support the requested analysis.

    Examples: no solver cycles recorded, or node spans lacking the
    ``parent_nid`` attribute when no hierarchy was supplied to rebuild
    the dependency DAG.
    """


class ScenarioError(ReproError, ValueError):
    """A fuzz scenario spec is invalid or cannot be materialized."""
