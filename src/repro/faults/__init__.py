"""Fault injection, retry, quarantine and durable runs.

The robustness layer of the estimator (see ``docs/robustness.md``):

* :class:`FaultInjector` / :func:`fault_injection` — seeded,
  deterministic fault injection with hook points in the linalg kernels,
  the Cholesky factorization, the solvers and the executors;
* :class:`RetryReport` / :class:`QuarantineRecord` — structured records
  of how failures were absorbed (escalating-regularization retries,
  terminally quarantined constraint batches);
* :class:`SessionStore` — the on-disk state a
  :class:`~repro.core.session.SolveSession` streams, so a killed cold
  solve or warm re-solve resumes from its last finished node.
"""

from repro.faults.injector import (
    CHANNELS,
    FaultConfig,
    FaultInjector,
    current_injector,
    fault_injection,
)
from repro.faults.report import QuarantineRecord, RetryAttempt, RetryReport


def __getattr__(name: str):
    # SessionStore needs repro.core.state / repro.io, which import the
    # kernels, which import this package's injector — load it lazily so the
    # low-level hook sites can import repro.faults.injector cycle-free.
    if name == "SessionStore":
        from repro.faults import checkpoint

        return getattr(checkpoint, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

__all__ = [
    "CHANNELS",
    "FaultConfig",
    "FaultInjector",
    "QuarantineRecord",
    "RetryAttempt",
    "RetryReport",
    "SessionStore",
    "current_injector",
    "fault_injection",
]
