"""Parallel execution of the hierarchical solve: the runtime only.

The executors (:mod:`repro.parallel.executors`) run independent subtree
solves concurrently on the host using threads (NumPy's BLAS releases
the GIL inside the heavy kernels) or processes (full isolation,
estimates in shared memory).  On a multi-core host this delivers
genuine tree-axis parallelism; correctness is identical to the serial
solver by construction.  Pricing the same task graph on the paper's
1996 platforms, with the §4.3 static and §5 dynamic scheduling
policies, is the simulator's job (:mod:`repro.machine`), and this
package does not import it.

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

__all__ = [
    "EstimateHandle",
    "Executor",
    "ParallelHierarchicalSolver",
    "ProcessExecutor",
    "SerialExecutor",
    "SharedEstimatePlane",
    "ThreadExecutor",
]
