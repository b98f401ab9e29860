"""Cholesky factorization and solves, instrumented as ``chol``/``sys`` events.

The update algorithm factors the innovation covariance ``S = H C⁻ Hᵗ + R``
(an m×m symmetric positive-definite matrix, small when constraints are
batched moderately) and then solves against the n×m matrix ``C⁻Hᵗ`` to
obtain the gain.  Factorization is a ``chol`` event; the paired triangular
solves are ``sys`` events emitted by :mod:`repro.linalg.triangular`.

The factorization is LAPACK ``potrf``, called as ``scipy.linalg.cholesky``
calls it (so bitwise the same) minus that wrapper's argument handling,
which costs several times a 16×16 factorization.  Its event records the
count of 16-wide panels as ``parallel_rows``, the width the machine
simulator's cost model reads: the paper observes Cholesky parallelizes
poorly because the factored matrices are small and the panel
factorization is a serial dependency chain.
"""

from __future__ import annotations

import numpy as np
from scipy.linalg.lapack import dpotrf

from repro.errors import DimensionError, NotPositiveDefiniteError
from repro.faults.injector import current_injector
from repro.linalg.counters import OpCategory, emit, timed
from repro.linalg.triangular import solve_lower, solve_upper


def condition_estimate(s: np.ndarray) -> float:
    """Cheap 1-norm condition-number estimate of ``s`` for diagnostics.

    Exactly singular (or non-finite) input yields ``inf``; the value is
    only used in error messages and reports, never in the solve path.
    """
    try:
        cond = float(np.linalg.cond(s, 1))
    except np.linalg.LinAlgError:
        return float("inf")
    return cond if np.isfinite(cond) else float("inf")


def _not_pd(message: str, s: np.ndarray, regularization: float) -> NotPositiveDefiniteError:
    cond = condition_estimate(s)
    return NotPositiveDefiniteError(
        f"{message} (condition estimate {cond:.3e}, "
        f"attempted regularization {regularization:.3e})",
        condition_estimate=cond,
        regularization=regularization,
    )


def cholesky_factor(s: np.ndarray, regularization: float = 0.0) -> np.ndarray:
    """Lower Cholesky factor ``L`` with ``L Lᵗ = s``; a ``chol`` event.

    Raises :class:`NotPositiveDefiniteError` if ``s`` is not positive
    definite; ``regularization`` is the relative diagonal jitter the
    caller already applied to ``s``, reported in the error for diagnosis
    (the retry layer in :mod:`repro.core.update` passes its escalation
    level here).
    """
    s = np.asarray(s, dtype=np.float64)
    if s.ndim != 2 or s.shape[0] != s.shape[1]:
        raise DimensionError("cholesky_factor expects a square matrix")
    injector = current_injector()
    if injector is not None:
        injector.maybe_fail_cholesky()
    m = s.shape[0]
    t0 = timed()
    lower, info = dpotrf(s, lower=1, clean=1)
    if info > 0:
        message = f"{info}-th leading minor of the array is not positive definite"
        raise _not_pd(message, s, regularization)
    if info < 0:
        raise ValueError(
            f"LAPACK reported an illegal value in {-info}-th argument "
            'on entry to "POTRF".'
        )
    seconds = timed() - t0
    flops = m**3 / 3.0
    emit(OpCategory.CHOLESKY, flops, 8.0 * 2 * s.size, (m,), seconds,
         parallel_rows=max(1, m // 16), op="cholesky_factor")
    return lower


def cholesky_solve(lower: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve ``(L Lᵗ) x = b`` given the lower factor; two ``sys`` events."""
    y = solve_lower(lower, b)
    return solve_upper(lower.T, y)
