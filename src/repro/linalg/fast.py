"""Symmetry-aware, workspace-reusing BLAS kernels for the fast update path.

The reference kernels in :mod:`repro.linalg.kernels` compute every step
of the measurement update as an out-of-place product on generic dense
matrices.  The covariance math has more structure than that:

* ``C`` is symmetric, so ``C·Hᵗ`` only needs one triangle of ``C``
  (:func:`symm`, BLAS ``dsymm``) — or, when ``H`` touches few state
  columns, a gather of those columns followed by a thin GEMM
  (:func:`gather_cht`);
* the gain solve ``K = C⁻Hᵗ S⁻¹`` factors through ``W = C⁻Hᵗ·L⁻ᵗ``
  (one in-place triangular solve, :func:`trsm_right`, half the FLOPs of
  the reference pair of solves) because ``K·ν = W·(L⁻¹ν)`` and
  ``K·(C⁻Hᵗ)ᵗ = W·Wᵗ``;
* the covariance downdate ``C⁺ = C⁻ − W·Wᵗ`` is a rank-m *symmetric*
  update (:func:`syrk_downdate`, BLAS ``dsyrk``): only the lower
  triangle is computed, then mirrored — halving the dominant ``2·n²·m``
  FLOPs of the reference ``outer_update`` and making re-symmetrization
  unnecessary (the mirror is exact by construction).

Half storage.  Every reader of ``C`` here (:func:`symm`,
:func:`gather_cht`) reads only its upper triangle ``C[i, j], j ≥ i``, in
either memory order.  :func:`syrk_downdate` can leave a matrix that way:
with ``mirror=False`` it writes only that triangle of a C-ordered
covariance (the lower triangle of its Fortran-ordered transpose view,
which is the ``dsyrk`` target) and leaves the strict lower triangle
stale.  A solver batch loop feeds each posterior straight into its next
batch, so it carries the covariance *half-stored* and restores the full
matrix once, after its last batch, with :func:`complete_upper`; a plain
``apply_batch`` call restores every posterior it returns the same way.
Mirroring only copies values, so every result stays bitwise identical
to mirroring after every batch.

All kernels emit :class:`~repro.linalg.counters.KernelEvent` records with
*corrected* FLOP/byte accounting: FLOPs count what the symmetric
algorithm actually executes (e.g. ``n²·m`` for the downdate) and bytes
count one triangle where only one triangle is touched.  Buffers come
from the per-thread :class:`~repro.linalg.workspace.Workspace` arena;
see that module's docstring for the aliasing rules.
"""

from __future__ import annotations

import numpy as np
from scipy.linalg import blas as _blas

from repro.errors import DimensionError
from repro.faults.injector import current_injector
from repro.linalg.counters import OpCategory, emit, timed

__all__ = [
    "add_diagonal_inplace",
    "complete_upper",
    "gather_cht",
    "mirror_lower",
    "spmm_support",
    "symm",
    "syrk_downdate",
    "trsm_right",
]



def symm(
    c: np.ndarray,
    b: np.ndarray,
    out: np.ndarray | None = None,
    category: OpCategory = OpCategory.MATMAT,
) -> np.ndarray:
    """``C @ B`` with ``C`` symmetric, via BLAS ``dsymm``.

    ``C`` is (n×n) symmetric and only its upper triangle is read, so it
    may be half-stored (see the module docstring); ``B`` is (n×m).
    ``out``, if given, must be an (n×m) Fortran-contiguous buffer
    that aliases neither operand; the product is written into it in
    place.  FLOPs are the full ``2·n²·m`` (``dsymm`` performs them), but
    the byte count credits the symmetric read: one triangle of ``C``.
    """
    c = np.asarray(c, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if c.ndim != 2 or c.shape[0] != c.shape[1]:
        raise DimensionError("symm expects a square symmetric left operand")
    if b.ndim != 2 or b.shape[0] != c.shape[0]:
        raise DimensionError(f"symm dimension mismatch: {c.shape} @ {b.shape}")
    n, m = b.shape
    t0 = timed()
    # dsymm reads C's upper triangle: directly when C is Fortran-ordered,
    # else as the lower triangle of its transpose, which for a C-ordered
    # C is a Fortran-contiguous view that BLAS takes without a copy.
    cf, lower = (c, 0) if c.flags.f_contiguous else (np.asfortranarray(c.T), 1)
    bf = b if b.flags.f_contiguous else np.asfortranarray(b)
    if out is None:
        res = _blas.dsymm(1.0, cf, bf, side=0, lower=lower)
    else:
        if out.shape != (n, m) or not out.flags.f_contiguous:
            raise DimensionError("symm out buffer must be Fortran-ordered (n, m)")
        res = _blas.dsymm(
            1.0, cf, bf, beta=0.0, c=out, side=0, lower=lower, overwrite_c=1
        )
    seconds = timed() - t0
    flops = 2.0 * n * n * m
    nbytes = 8.0 * (n * (n + 1) / 2.0 + 2.0 * n * m)
    emit(category, flops, nbytes, (n, m), seconds, parallel_rows=n, op="symm")
    return res


def gather_cht(
    c: np.ndarray,
    h_support: np.ndarray,
    support: np.ndarray,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """``C·Hᵗ`` exploiting the Jacobian's column support; a ``d-s`` event.

    ``H`` (m×n) has non-zeros only in the ``s = len(support)`` state
    columns listed in ``support``; ``h_support`` is its (m×s) dense
    restriction.  Then ``C·Hᵗ = (H_s · C[support, :])ᵗ`` — a thin
    (m×s)·(s×n) GEMM instead of an O(n²·m) product.  Only ``C``'s upper
    triangle is read, so it may be half-stored (see the module
    docstring): each gathered row ``i`` is the contiguous ``C[i, i:]``
    plus the strided column ``C[:i, i]`` above the diagonal.  ``out``, if
    given, is a C-contiguous (m×n) buffer; the Fortran-contiguous
    transpose view of the result (shape (n, m)) is returned either way.
    """
    c = np.asarray(c, dtype=np.float64)
    h_support = np.asarray(h_support, dtype=np.float64)
    n = c.shape[0]
    m, s = h_support.shape
    if c.ndim != 2 or c.shape[1] != n:
        raise DimensionError("gather_cht expects a square symmetric covariance")
    if support.shape != (s,):
        raise DimensionError(
            f"support size {support.shape} does not match h_support {h_support.shape}"
        )
    t0 = timed()
    cs = c[support, :]  # (s, n) row gather; C symmetric so rows == columns
    # Left of the diagonal those rows may be stale; take them from the
    # columns above it instead.
    for r, i in enumerate(support.tolist()):
        cs[r, :i] = c[:i, i]
    if out is None:
        cht_t = np.dot(h_support, cs)
    else:
        if out.shape != (m, n) or not out.flags.c_contiguous:
            raise DimensionError("gather_cht out buffer must be C-ordered (m, n)")
        cht_t = np.dot(h_support, cs, out=out)
    seconds = timed() - t0
    flops = 2.0 * n * s * m
    nbytes = 8.0 * (2.0 * n * s + s * m + n * m)
    emit(
        OpCategory.DENSE_SPARSE, flops, nbytes, (n, s, m), seconds,
        parallel_rows=n, op="gather_cht",
    )
    return cht_t.T


def spmm_support(
    h_support: np.ndarray, cht: np.ndarray, support: np.ndarray
) -> np.ndarray:
    """``H·(C⁻Hᵗ)`` through the support restriction; a ``d-s`` event.

    ``H`` reads only the ``s`` supported rows of ``cht`` (n×m), so the
    innovation covariance is the thin product ``H_s · cht[support]`` —
    (m×s)·(s×m), O(m²·s) instead of O(m²·n).
    """
    h_support = np.asarray(h_support, dtype=np.float64)
    m, s = h_support.shape
    if cht.ndim != 2 or cht.shape[1] != m or support.shape != (s,):
        raise DimensionError(
            f"spmm_support shape mismatch: H_s{h_support.shape}, cht{cht.shape}"
        )
    t0 = timed()
    out = np.dot(h_support, cht[support, :])
    seconds = timed() - t0
    flops = 2.0 * m * s * m
    nbytes = 8.0 * (m * s + 2.0 * s * m + m * m)
    emit(
        OpCategory.DENSE_SPARSE, flops, nbytes, (m, s), seconds,
        parallel_rows=m, op="spmm_support",
    )
    return out


def trsm_right(
    lower: np.ndarray, b: np.ndarray, transpose: bool = True
) -> np.ndarray:
    """In-place right triangular solve against a lower Cholesky factor.

    With ``transpose=True`` solves ``X·Lᵗ = B`` (the whitening step
    ``W = C⁻Hᵗ·L⁻ᵗ``), else ``X·L = B``.  ``B`` is (n×m) and is
    overwritten when Fortran-contiguous (workspace buffers are); the
    result is returned either way.  One ``sys`` event of ``n·m²`` FLOPs —
    half the reference path, which runs two solves.
    """
    lower = np.asarray(lower, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if lower.ndim != 2 or lower.shape[0] != lower.shape[1]:
        raise DimensionError("trsm_right expects a square triangular matrix")
    m = lower.shape[0]
    if b.ndim != 2 or b.shape[1] != m:
        raise DimensionError(f"trsm_right rhs has {b.shape} columns, expected {m}")
    n = b.shape[0]
    t0 = timed()
    out = _blas.dtrsm(
        1.0, lower, b, side=1, lower=1, trans_a=1 if transpose else 0,
        overwrite_b=1 if b.flags.f_contiguous else 0,
    )
    seconds = timed() - t0
    flops = float(n) * m * m
    nbytes = 8.0 * (m * (m + 1) / 2.0 + 2.0 * n * m)
    emit(
        OpCategory.SYSTEM, flops, nbytes, (m, n), seconds,
        parallel_rows=n, op="trsm",
    )
    return out


def mirror_lower(a: np.ndarray) -> np.ndarray:
    """Copy the strict lower triangle of ``a`` onto its upper (in place).

    Each step copies one partial row/column; the destination slice is
    the contiguous one for the array's memory order, so the loop is n−1
    contiguous writes fed by strided reads.  Returns ``a``.
    """
    n = a.shape[0]
    if a.flags.f_contiguous:
        for j in range(1, n):
            a[:j, j] = a[j, :j]
    else:
        for i in range(n - 1):
            a[i, i + 1 :] = a[i + 1 :, i]
    return a


def syrk_downdate(
    c_out: np.ndarray, w: np.ndarray, mirror: bool = True
) -> np.ndarray:
    """Rank-m symmetric downdate ``C ← C − W·Wᵗ`` in place; an ``m-m`` event.

    ``c_out`` is an (n×n) Fortran-contiguous matrix updated in place:
    BLAS ``dsyrk`` computes only the lower triangle (``n²·m`` FLOPs —
    half the reference ``outer_update``), which is then mirrored onto
    the upper, so the result is exactly symmetric and needs no separate
    re-symmetrization pass.  ``mirror=False`` skips the mirror and leaves
    ``c_out`` half-stored: only its lower triangle is read and written
    (see the module docstring).
    """
    c_out = np.asarray(c_out)
    w = np.asarray(w, dtype=np.float64)
    n = c_out.shape[0]
    if c_out.ndim != 2 or c_out.shape != (n, n):
        raise DimensionError("syrk_downdate expects a square target matrix")
    if not c_out.flags.f_contiguous or c_out.dtype != np.float64:
        raise DimensionError("syrk_downdate target must be Fortran-ordered float64")
    if w.ndim != 2 or w.shape[0] != n:
        raise DimensionError(f"syrk_downdate shape mismatch: C{c_out.shape}, W{w.shape}")
    m = w.shape[1]
    t0 = timed()
    res = _blas.dsyrk(-1.0, w, beta=1.0, c=c_out, trans=0, lower=1, overwrite_c=1)
    if res is not c_out and not np.shares_memory(res, c_out):
        # BLAS had to copy (non-contiguous W path); fold the result back.
        c_out[:, :] = res
    if mirror:
        mirror_lower(c_out)
    seconds = timed() - t0
    flops = float(n) * n * m + float(n) * n
    nbytes = 8.0 * (n * (n + 1) + n * m)
    emit(
        OpCategory.MATMAT, flops, nbytes, (n, m), seconds,
        parallel_rows=n, op="syrk_downdate",
    )
    injector = current_injector()
    if injector is not None:
        poisoned = injector.maybe_poison(c_out, "syrk_downdate")
        if poisoned is not c_out:
            c_out[:, :] = poisoned
    return c_out


def complete_upper(c: np.ndarray) -> np.ndarray:
    """Restore a half-stored matrix in place; an ``m-m`` event of no FLOPs.

    ``c`` holds only its upper triangle (the C-ordered covariance whose
    downdates ran with ``mirror=False``); its strict lower triangle is
    overwritten with the mirror image, so ``c`` is exactly symmetric on
    return.  The bytes are the triangle read plus the triangle written.
    """
    n = c.shape[0]
    if c.ndim != 2 or c.shape != (n, n):
        raise DimensionError("complete_upper expects a square matrix")
    t0 = timed()
    mirror_lower(c.T)
    seconds = timed() - t0
    emit(
        OpCategory.MATMAT, 0.0, 8.0 * n * (n - 1), (n,), seconds,
        parallel_rows=n, op="mirror",
    )
    return c


def add_diagonal_inplace(a: np.ndarray, d: np.ndarray | float) -> np.ndarray:
    """``a += diag(d)`` in place; a ``vec`` event of O(m) work.

    Unlike the reference :func:`~repro.linalg.kernels.add_diagonal`, no
    full-matrix copy is made, so the byte count is the 2·m diagonal
    elements actually touched.
    """
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DimensionError("add_diagonal_inplace expects a square matrix")
    m = a.shape[0]
    t0 = timed()
    idx = np.arange(m)
    a[idx, idx] += d
    seconds = timed() - t0
    emit(
        OpCategory.VECTOR, float(m), 8.0 * 2 * m, (m,), seconds,
        parallel_rows=m, op="add_diagonal_inplace",
    )
    return a
