"""A minimal CSR sparse matrix tailored to measurement Jacobians.

The Jacobian ``H`` of a batch of localized constraints is extremely sparse:
a distance constraint touches 6 of the ``n`` state variables, so a batch of
``m`` constraints has at most ``12·m`` non-zeros regardless of ``n``.  The
paper's step-1/step-2 costs (forming ``H`` in O(m), dense-sparse products
in O(m·n)) depend on exploiting that sparsity, so we implement a dedicated
CSR type rather than densifying.

Only the operations the update algorithm needs are provided; they are
vectorized over rows where profitable and instrumented as ``d-s`` events.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import DimensionError
from repro.linalg.counters import OpCategory, emit, timed


@dataclass(frozen=True)
class CSRMatrix:
    """Compressed sparse row matrix with float64 data.

    Attributes
    ----------
    data, indices, indptr:
        Standard CSR arrays: ``data[indptr[i]:indptr[i+1]]`` are the values
        of row ``i`` at columns ``indices[indptr[i]:indptr[i+1]]``.
    shape:
        ``(rows, cols)``.
    """

    data: np.ndarray
    indices: np.ndarray
    indptr: np.ndarray
    shape: tuple[int, int]

    def __post_init__(self) -> None:
        rows, cols = self.shape
        if self.indptr.shape != (rows + 1,):
            raise DimensionError(
                f"indptr must have length rows+1={rows + 1}, got {self.indptr.shape[0]}"
            )
        if self.indptr[0] != 0 or self.indptr[-1] != self.data.shape[0]:
            raise DimensionError("indptr must start at 0 and end at nnz")
        if np.any(np.diff(self.indptr) < 0):
            raise DimensionError("indptr must be non-decreasing")
        if self.data.shape != self.indices.shape:
            raise DimensionError("data and indices must have equal length")
        if self.data.shape[0] and (
            self.indices.min() < 0 or self.indices.max() >= cols
        ):
            raise DimensionError("column index out of range")

    # ------------------------------------------------------------ builders
    @staticmethod
    def from_coo(
        rows: np.ndarray,
        cols: np.ndarray,
        vals: np.ndarray,
        shape: tuple[int, int],
    ) -> "CSRMatrix":
        """Build from coordinate triplets, summing duplicate entries."""
        rows = np.asarray(rows, dtype=np.int64)
        cols = np.asarray(cols, dtype=np.int64)
        vals = np.asarray(vals, dtype=np.float64)
        if not (rows.shape == cols.shape == vals.shape):
            raise DimensionError("rows, cols, vals must have identical shapes")
        nrows, ncols = shape
        if rows.size and (rows.min() < 0 or rows.max() >= nrows):
            raise DimensionError("row index out of range")
        if cols.size and (cols.min() < 0 or cols.max() >= ncols):
            raise DimensionError("column index out of range")
        # Sort lexicographically by (row, col), then merge duplicates.
        order = np.lexsort((cols, rows))
        rows, cols, vals = rows[order], cols[order], vals[order]
        if rows.size:
            keep = np.empty(rows.size, dtype=bool)
            keep[0] = True
            keep[1:] = (rows[1:] != rows[:-1]) | (cols[1:] != cols[:-1])
            group_ids = np.cumsum(keep) - 1
            summed = np.zeros(int(group_ids[-1]) + 1, dtype=np.float64)
            np.add.at(summed, group_ids, vals)
            rows, cols, vals = rows[keep], cols[keep], summed
        indptr = np.zeros(nrows + 1, dtype=np.int64)
        np.add.at(indptr, rows + 1, 1)
        np.cumsum(indptr, out=indptr)
        return CSRMatrix(vals, cols.astype(np.int64), indptr, shape)

    @staticmethod
    def trusted(
        data: np.ndarray,
        indices: np.ndarray,
        indptr: np.ndarray,
        shape: tuple[int, int],
    ) -> "CSRMatrix":
        """Wrap pre-validated CSR arrays, skipping the ``__post_init__`` checks.

        Hot-path builder for the planned assembler
        (:mod:`repro.constraints.plan`): the structure is validated once at
        plan-build time and only ``data`` is rewritten per relinearization,
        so re-running the O(nnz) invariant checks on every batch would put
        them back on the path this class exists to keep cheap.  Callers are
        responsible for structural validity.
        """
        mat = object.__new__(CSRMatrix)
        object.__setattr__(mat, "data", data)
        object.__setattr__(mat, "indices", indices)
        object.__setattr__(mat, "indptr", indptr)
        object.__setattr__(mat, "shape", shape)
        return mat

    @staticmethod
    def from_dense(a: np.ndarray, tol: float = 0.0) -> "CSRMatrix":
        """Build from a dense array, dropping entries with ``|a| <= tol``."""
        a = np.asarray(a, dtype=np.float64)
        if a.ndim != 2:
            raise DimensionError("from_dense expects a 2-D array")
        rows, cols = np.nonzero(np.abs(a) > tol)
        return CSRMatrix.from_coo(rows, cols, a[rows, cols], a.shape)

    # ------------------------------------------------------------ basics
    @property
    def nnz(self) -> int:
        return int(self.data.shape[0])

    def to_dense(self) -> np.ndarray:
        out = np.zeros(self.shape, dtype=np.float64)
        row_counts = np.diff(self.indptr)
        row_ids = np.repeat(np.arange(self.shape[0]), row_counts)
        out[row_ids, self.indices] = self.data
        return out

    def column_support(self) -> np.ndarray:
        """Sorted unique column indices that carry any non-zero."""
        return np.unique(self.indices)

    # ------------------------------------------------------- dense-sparse
    def matmul_dense(self, b: np.ndarray) -> np.ndarray:
        """Sparse @ dense: ``self (m×n) @ b (n×k) -> (m×k)``; a ``d-s`` event.

        Implemented as a gather of the rows of ``b`` addressed by the CSR
        column indices, followed by a segment reduction — fully vectorized,
        no per-row Python loop.
        """
        b = np.asarray(b, dtype=np.float64)
        if b.ndim == 1:
            return self.matvec(b)
        m, n = self.shape
        if b.shape[0] != n:
            raise DimensionError(f"dimension mismatch: {self.shape} @ {b.shape}")
        k = b.shape[1]
        t0 = timed()
        gathered = b[self.indices, :] * self.data[:, None]  # (nnz, k)
        out = np.zeros((m, k), dtype=np.float64)
        row_counts = np.diff(self.indptr)
        row_ids = np.repeat(np.arange(m), row_counts)
        np.add.at(out, row_ids, gathered)
        seconds = timed() - t0
        flops = 2.0 * self.nnz * k
        nbytes = 8.0 * (self.nnz * (k + 1) + out.size)
        emit(OpCategory.DENSE_SPARSE, flops, nbytes, (m, n, k), seconds, parallel_rows=m, op="spmm")
        return out

    def rmatmul_dense(self, a: np.ndarray) -> np.ndarray:
        """Dense @ sparseᵗ: ``a (k×n) @ selfᵗ (n×m) -> (k×m)``; a ``d-s`` event.

        This is the ``C⁻ Hᵗ`` product of the update algorithm (with ``a``
        symmetric it equals ``(H C⁻)ᵗ``).  Scatter-based: each stored
        ``H[i, j]`` contributes ``a[:, j]·H[i,j]`` to output column ``i``.
        """
        a = np.asarray(a, dtype=np.float64)
        if a.ndim != 2:
            raise DimensionError("rmatmul_dense expects a 2-D left operand")
        m, n = self.shape
        if a.shape[1] != n:
            raise DimensionError(f"dimension mismatch: {a.shape} @ {self.shape}ᵗ")
        k = a.shape[0]
        t0 = timed()
        row_counts = np.diff(self.indptr)
        row_ids = np.repeat(np.arange(m), row_counts)
        contrib = a[:, self.indices] * self.data[None, :]  # (k, nnz)
        out = np.zeros((k, m), dtype=np.float64)
        np.add.at(out.T, row_ids, contrib.T)
        seconds = timed() - t0
        flops = 2.0 * self.nnz * k
        nbytes = 8.0 * (self.nnz * (k + 1) + out.size)
        emit(OpCategory.DENSE_SPARSE, flops, nbytes, (k, n, m), seconds, parallel_rows=k, op="rspmm")
        return out

    def matvec(self, x: np.ndarray) -> np.ndarray:
        """Sparse @ vector, an ``m-v`` event (used for ``H·dx`` terms)."""
        x = np.asarray(x, dtype=np.float64)
        m, n = self.shape
        if x.shape != (n,):
            raise DimensionError(f"dimension mismatch: {self.shape} @ {x.shape}")
        t0 = timed()
        prod = self.data * x[self.indices]
        out = np.zeros(m, dtype=np.float64)
        row_counts = np.diff(self.indptr)
        row_ids = np.repeat(np.arange(m), row_counts)
        np.add.at(out, row_ids, prod)
        seconds = timed() - t0
        emit(OpCategory.MATVEC, 2.0 * self.nnz, 8.0 * (2 * self.nnz + m), (m, n), seconds, parallel_rows=m, op="spmv")
        return out

    def restrict_columns(self, columns: np.ndarray) -> "CSRMatrix":
        """Reindex onto the column subset ``columns`` (sorted unique indices).

        Every stored column index must appear in ``columns``; the result has
        ``len(columns)`` columns.  With :meth:`column_support` it is the
        reference for the support restriction a
        :class:`~repro.constraints.plan.BatchPlan` precomputes.
        """
        columns = np.asarray(columns, dtype=np.int64)
        pos = np.searchsorted(columns, self.indices)
        if np.any(pos >= columns.size) or np.any(columns[np.minimum(pos, columns.size - 1)] != self.indices):
            raise DimensionError("matrix has non-zeros outside the requested columns")
        return CSRMatrix(self.data.copy(), pos.astype(np.int64), self.indptr.copy(), (self.shape[0], int(columns.size)))
