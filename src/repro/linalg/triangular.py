"""Triangular system solves, instrumented as ``sys`` events.

Computing the filter gain ``K = C⁻Hᵗ S⁻¹`` is done as two triangular
solves against the Cholesky factor of ``S`` with the n×m right-hand side
``C⁻Hᵗ`` — the paper's step 4, O(m²·n).  The many independent right-hand
side columns give these solves a wide parallel axis, which is why ``sys``
scales well in Tables 3-6 while the factorization itself does not.

The solves call LAPACK ``trtrs`` as ``scipy.linalg.solve_triangular``
does, minus its argument wrappers: a factor that is not
Fortran-contiguous is passed transposed, with the transposed system.
The bits depend on that choice, so it is copied exactly.
"""

from __future__ import annotations

import numpy as np
from scipy.linalg import LinAlgError
from scipy.linalg.lapack import dtrtrs

from repro.errors import DimensionError
from repro.linalg.counters import OpCategory, emit, timed


def _check(tri: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray, int, int]:
    tri = np.asarray(tri, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if tri.ndim != 2 or tri.shape[0] != tri.shape[1]:
        raise DimensionError("triangular solve expects a square triangular matrix")
    m = tri.shape[0]
    if b.shape[0] != m:
        raise DimensionError(f"rhs has {b.shape[0]} rows, expected {m}")
    k = 1 if b.ndim == 1 else b.shape[1]
    return tri, b, m, k


def _trtrs(tri: np.ndarray, b: np.ndarray, lower: bool) -> np.ndarray:
    """``scipy.linalg.solve_triangular(tri, b, lower=lower)``, minus its wrappers."""
    if tri.flags.f_contiguous:
        x, info = dtrtrs(tri, b, lower=lower)
    else:
        x, info = dtrtrs(tri.T, b, lower=not lower, trans=1)
    if info > 0:
        raise LinAlgError(f"singular matrix: resolution failed at diagonal {info - 1}")
    if info < 0:
        raise ValueError(f"illegal value in {-info}-th argument of internal trtrs")
    return x


def solve_lower(lower: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve ``L y = b`` with ``L`` lower triangular; a ``sys`` event."""
    lower, b, m, k = _check(lower, b)
    t0 = timed()
    out = _trtrs(lower, b, lower=True)
    seconds = timed() - t0
    emit(OpCategory.SYSTEM, float(m) * m * k, 8.0 * (lower.size + 2 * b.size), (m, k), seconds, parallel_rows=k, op="solve_lower")
    return out


def solve_upper(upper: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve ``U y = b`` with ``U`` upper triangular; a ``sys`` event."""
    upper, b, m, k = _check(upper, b)
    t0 = timed()
    out = _trtrs(upper, b, lower=False)
    seconds = timed() - t0
    emit(OpCategory.SYSTEM, float(m) * m * k, 8.0 * (upper.size + 2 * b.size), (m, k), seconds, parallel_rows=k, op="solve_upper")
    return out
