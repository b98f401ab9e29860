"""Instrumented dense/sparse linear-algebra kernels.

Every kernel used by the estimation core routes through this package so
that each invocation is recorded as a :class:`~repro.linalg.counters.KernelEvent`
carrying the operation category (the six categories of the paper's
Tables 3-6: dense-sparse products ``d-s``, Cholesky ``chol``, triangular
system solves ``sys``, dense matrix products ``m-m``, matrix-vector
products ``m-v`` and vector operations ``vec``), a FLOP count, and memory
traffic.  Those traces feed both the host-time experiments (Tables 1-2)
and the machine simulator (Tables 3-6).
"""

from repro.linalg.counters import (
    KernelEvent,
    OpCategory,
    Recorder,
    current_recorder,
    recording,
)
from repro.linalg.sparse import CSRMatrix
from repro.linalg.kernels import (
    add_diagonal,
    axpy,
    gemm,
    gemv,
    outer_update,
    vec_add,
    vec_scale,
    vec_sub,
)
from repro.linalg.cholesky import cholesky_factor, cholesky_solve
from repro.linalg.triangular import solve_lower, solve_upper
from repro.linalg.blocked import tiled_gemm
from repro.linalg.fast import (
    add_diagonal_inplace,
    complete_upper,
    gather_cht,
    mirror_lower,
    spmm_support,
    symm,
    syrk_downdate,
    trsm_right,
)
from repro.linalg.parallel_kernels import ParallelKernels
from repro.linalg.profile import TraceProfile, format_profile, profile_recorder
from repro.linalg.workspace import Workspace, get_workspace

__all__ = [
    "CSRMatrix",
    "KernelEvent",
    "OpCategory",
    "ParallelKernels",
    "Recorder",
    "TraceProfile",
    "Workspace",
    "add_diagonal",
    "add_diagonal_inplace",
    "axpy",
    "cholesky_factor",
    "cholesky_solve",
    "complete_upper",
    "current_recorder",
    "format_profile",
    "gather_cht",
    "gemm",
    "gemv",
    "get_workspace",
    "mirror_lower",
    "outer_update",
    "profile_recorder",
    "recording",
    "solve_lower",
    "solve_upper",
    "spmm_support",
    "symm",
    "syrk_downdate",
    "tiled_gemm",
    "trsm_right",
    "vec_add",
    "vec_scale",
    "vec_sub",
]
