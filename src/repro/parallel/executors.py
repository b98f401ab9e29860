"""Executor abstraction: serial, thread-pool and process-pool backends.

The scheduler's one surface is :meth:`Executor.submit` — one task, one
future.  The dependency-driven loop in
:mod:`repro.parallel.scheduler` keeps the ready-count bookkeeping, draws
the injected-crash decision (one per original submission, preserving the
deterministic draw order of
:meth:`~repro.faults.FaultInjector.crash_schedule`) and owns
resubmission.

Tasks are picklable descriptions for the process backend, or plain
closures for the serial/thread backends; ``needs_pickling`` tells the
scheduler whether results cross an address-space boundary (which is what
decides whether the shared-memory estimate plane pays off).

Recovery contract (exercised by ``tests/test_executor_recovery.py``): a
task lost to a crashed worker — injected by :mod:`repro.faults`, or a
real dead process taking its pool down — surfaces on its future as
:class:`~repro.errors.WorkerCrashError` or ``BrokenProcessPool``.  The
scheduler then calls :meth:`Executor.recover` for a broken pool and
resubmits, up to ``max_resubmits`` rounds per task, after which
``WorkerCrashError`` propagates.  Tasks must therefore be idempotent,
which the solver's pure node updates are.  Any exception other than a
crash propagates unchanged.
"""

from __future__ import annotations

import abc
import concurrent.futures
import os
from typing import Callable, TypeVar

from repro import obs
from repro.errors import WorkerCrashError
from repro.faults.injector import current_injector

T = TypeVar("T")
R = TypeVar("R")


def _call_with_faults(fn: Callable[[T], R], item: T, crash: bool, mode: str) -> R:
    """Worker-side shim: optionally die before running the real task."""
    if crash:
        if mode == "kill":
            os._exit(113)  # hard death: the process pool loses this worker
        raise WorkerCrashError("injected worker crash")
    return fn(item)


class Executor(abc.ABC):
    """Minimal executor interface used by the tree scheduler.

    ``max_resubmits`` bounds how many times the scheduler resubmits a
    task lost to crashed workers.
    """

    max_resubmits: int = 3

    #: True when tasks/results cross an address-space boundary (pickled).
    needs_pickling: bool = False

    #: Genuine backend concurrency; pool backends set it per instance.
    n_workers: int = 1

    @abc.abstractmethod
    def submit(
        self, fn: Callable[[T], R], item: T, crash: bool = False
    ) -> "concurrent.futures.Future[R]":
        """Submit one task; the returned future resolves to ``fn(item)``.

        ``crash`` is an injected-crash decision drawn by the caller (one
        per submission); the worker-side shim applies it.  Crash failures
        surface as :class:`~repro.errors.WorkerCrashError` (or
        ``BrokenProcessPool`` for a hard-killed process worker) on the
        future; the caller owns resubmission.
        """

    def recover(self) -> None:
        """Restore the backend after a broken-pool failure (no-op by default)."""

    def close(self) -> None:
        """Release executor resources (no-op by default)."""

    def __enter__(self) -> "Executor":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


class SerialExecutor(Executor):
    """Executes tasks inline; the reference behaviour all backends must match."""

    def submit(self, fn, item, crash=False):
        future: concurrent.futures.Future = concurrent.futures.Future()
        try:
            future.set_result(_call_with_faults(fn, item, crash, "raise"))
        except BaseException as exc:
            future.set_exception(exc)
        return future


class ThreadExecutor(Executor):
    """Thread-pool backend.

    NumPy's BLAS kernels drop the GIL, so the solver's dominant ``m-m`` /
    ``sys`` work genuinely overlaps across subtrees on a multi-core host;
    pure-Python bookkeeping serializes on the GIL (the repro-band caveat).
    Injected crashes always take the soft (exception) form — a hard exit
    would kill the whole interpreter.
    """

    def __init__(self, n_workers: int, max_resubmits: int = 3):
        if n_workers < 1:
            raise ValueError("n_workers must be >= 1")
        self.n_workers = n_workers
        self.max_resubmits = max_resubmits
        self._pool = concurrent.futures.ThreadPoolExecutor(max_workers=n_workers)

    def submit(self, fn, item, crash=False):
        return self._pool.submit(_call_with_faults, fn, item, crash, "raise")

    def close(self) -> None:
        self._pool.shutdown(wait=True)


class ProcessExecutor(Executor):
    """Process-pool backend: true parallelism, pickled task boundaries.

    ``fn`` and the items must be picklable (the scheduler ships module-level
    functions plus plain data).  Worker start-up is expensive; this backend
    pays off only for long subtree solves.

    A worker that dies mid-task (``os._exit``, OOM-kill, injected
    ``crash_mode="kill"`` fault) breaks the whole ``concurrent.futures``
    pool: every unfinished future fails with ``BrokenProcessPool``, and
    :meth:`recover` rebuilds the pool for the caller's resubmissions.
    """

    needs_pickling = True

    def __init__(self, n_workers: int, max_resubmits: int = 3):
        if n_workers < 1:
            raise ValueError("n_workers must be >= 1")
        self.n_workers = n_workers
        self.max_resubmits = max_resubmits
        self._pool = concurrent.futures.ProcessPoolExecutor(max_workers=n_workers)

    def submit(self, fn, item, crash=False):
        injector = current_injector()
        mode = injector.config.crash_mode if injector is not None else "raise"
        return self._pool.submit(_call_with_faults, fn, item, crash, mode)

    def recover(self) -> None:
        """Replace a broken pool; queued segments/tasks are the caller's to resubmit."""
        obs.inc("executor.pool_rebuilds")
        obs.instant(
            "executor.pool_rebuild", cat="executor", workers=self.n_workers
        )
        self._pool.shutdown(wait=False, cancel_futures=True)
        self._pool = concurrent.futures.ProcessPoolExecutor(
            max_workers=self.n_workers
        )

    def close(self) -> None:
        self._pool.shutdown(wait=True)
