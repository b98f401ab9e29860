"""Parallel execution of the hierarchical solve.

Two complementary runtimes live here:

* **Real executors** (:mod:`repro.parallel.executors`) run independent
  subtree solves concurrently on the host using threads (NumPy's BLAS
  releases the GIL inside the heavy kernels) or processes (full
  isolation, pickled estimates).  On a multi-core host this delivers
  genuine tree-axis parallelism; correctness is identical to the serial
  solver by construction.
* **The simulated machine** (:mod:`repro.machine`) prices the same task
  graph on the paper's 1996 platforms; see that package for why.

:class:`~repro.parallel.scheduler.ParallelHierarchicalSolver` is the
public entry point: a drop-in replacement for
:class:`~repro.core.hier_solver.HierarchicalSolver` that dispatches each
node to an executor the moment its children are done, with process
backends exchanging estimates through the shared-memory plane
(:mod:`repro.parallel.shm`) instead of pickle.
"""

from repro.parallel.executors import (
    Executor,
    ProcessExecutor,
    SerialExecutor,
    ThreadExecutor,
)
from repro.parallel.scheduler import ParallelHierarchicalSolver
from repro.parallel.shm import EstimateHandle, SharedEstimatePlane
from repro.parallel.dynamic import dynamic_assignment_schedule

__all__ = [
    "EstimateHandle",
    "Executor",
    "ParallelHierarchicalSolver",
    "ProcessExecutor",
    "SerialExecutor",
    "SharedEstimatePlane",
    "ThreadExecutor",
    "dynamic_assignment_schedule",
]
