"""Instrumented dense kernels (GEMM, GEMV, vector ops).

Each function computes with NumPy's BLAS-backed primitives and emits a
:class:`~repro.linalg.counters.KernelEvent` with the canonical FLOP count
and approximate memory traffic for the operation.  The estimation core
calls only these wrappers, never raw ``@``, so that every arithmetic step
is attributable to one of the paper's six operation categories.
"""

from __future__ import annotations

import numpy as np

from repro.errors import DimensionError
from repro.faults.injector import current_injector
from repro.linalg.counters import OpCategory, emit, timed


def _maybe_poison(out: np.ndarray, site: str) -> np.ndarray:
    """NaN-poisoning hook for the fault injector (no-op when inactive)."""
    injector = current_injector()
    if injector is None:
        return out
    return injector.maybe_poison(out, site)


def gemm(a: np.ndarray, b: np.ndarray, category: OpCategory = OpCategory.MATMAT) -> np.ndarray:
    """Dense matrix product ``a (p×q) @ b (q×r)``; 2·p·q·r FLOPs.

    ``category`` defaults to ``m-m`` but callers may re-attribute (e.g. the
    combination procedure counts its gain product under ``m-m`` as well).
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.ndim != 2 or b.ndim != 2 or a.shape[1] != b.shape[0]:
        raise DimensionError(f"gemm dimension mismatch: {a.shape} @ {b.shape}")
    p, q = a.shape
    r = b.shape[1]
    t0 = timed()
    out = a @ b
    seconds = timed() - t0
    emit(category, 2.0 * p * q * r, 8.0 * (a.size + b.size + out.size), (p, q, r), seconds, parallel_rows=p, op="gemm")
    return _maybe_poison(out, "gemm")


def gemv(a: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Dense matrix-vector product ``a (p×q) @ x (q,)``; an ``m-v`` event."""
    a = np.asarray(a, dtype=np.float64)
    x = np.asarray(x, dtype=np.float64)
    if a.ndim != 2 or x.ndim != 1 or a.shape[1] != x.shape[0]:
        raise DimensionError(f"gemv dimension mismatch: {a.shape} @ {x.shape}")
    p, q = a.shape
    t0 = timed()
    out = a @ x
    seconds = timed() - t0
    emit(OpCategory.MATVEC, 2.0 * p * q, 8.0 * (a.size + x.size + out.size), (p, q), seconds, parallel_rows=p, op="gemv")
    return _maybe_poison(out, "gemv")


def outer_update(c: np.ndarray, k: np.ndarray, cht: np.ndarray) -> np.ndarray:
    """Covariance downdate ``C⁺ = C − K · CHᵗᵀ`` as one fused ``m-m`` event.

    ``c`` is (n×n), ``k`` is the gain (n×m), ``cht`` is ``C⁻Hᵗ`` (n×m).
    The product ``K @ chtᵀ`` costs 2·n²·m FLOPs and dominates the update
    (the paper's step 6); the subtraction is counted with it since they are
    fused in a tiled implementation.
    """
    c = np.asarray(c, dtype=np.float64)
    k = np.asarray(k, dtype=np.float64)
    cht = np.asarray(cht, dtype=np.float64)
    n = c.shape[0]
    if c.shape != (n, n) or k.shape != cht.shape or k.shape[0] != n:
        raise DimensionError(
            f"outer_update dimension mismatch: C{c.shape}, K{k.shape}, CHt{cht.shape}"
        )
    m = k.shape[1]
    t0 = timed()
    out = c - k @ cht.T
    seconds = timed() - t0
    flops = 2.0 * n * n * m + n * n
    emit(OpCategory.MATMAT, flops, 8.0 * (c.size + k.size + cht.size + out.size), (n, m), seconds, parallel_rows=n, op="outer_update")
    return _maybe_poison(out, "outer_update")


def add_diagonal(a: np.ndarray, d: np.ndarray | float) -> np.ndarray:
    """Return ``a + diag(d)``; a ``vec`` event (O(m) work on an m×m matrix)."""
    a = np.asarray(a, dtype=np.float64)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DimensionError("add_diagonal expects a square matrix")
    m = a.shape[0]
    t0 = timed()
    out = a.copy()
    idx = np.arange(m)
    out[idx, idx] += d
    seconds = timed() - t0
    emit(OpCategory.VECTOR, float(m), 8.0 * (a.size + m), (m,), seconds, parallel_rows=m, op="add_diagonal")
    return out


def axpy(alpha: float, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """``alpha·x + y`` on vectors; a ``vec`` event."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.shape != y.shape or x.ndim != 1:
        raise DimensionError(f"axpy shape mismatch: {x.shape} vs {y.shape}")
    t0 = timed()
    out = alpha * x + y
    seconds = timed() - t0
    emit(OpCategory.VECTOR, 2.0 * x.size, 8.0 * 3 * x.size, (x.size,), seconds, parallel_rows=x.size, op="axpy")
    return out


def vec_add(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Element-wise vector sum; a ``vec`` event."""
    return axpy(1.0, x, y)


def vec_sub(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Element-wise vector difference ``x − y``; a ``vec`` event."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.shape != y.shape or x.ndim != 1:
        raise DimensionError(f"vec_sub shape mismatch: {x.shape} vs {y.shape}")
    t0 = timed()
    out = x - y
    seconds = timed() - t0
    emit(OpCategory.VECTOR, float(x.size), 8.0 * 3 * x.size, (x.size,), seconds, parallel_rows=x.size, op="vec_sub")
    return out

