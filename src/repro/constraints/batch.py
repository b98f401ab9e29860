"""Batch assembly: constraints → (z, h(x), sparse H, R).

The update procedure consumes constraints in vector batches of dimension
``m`` (the paper's batch factor).  :func:`assemble_batch` evaluates the
measurement functions at the current coordinates and scatters every
constraint's small dense Jacobian into one sparse CSR Jacobian over the
node's state columns.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain
from typing import Sequence

import numpy as np

from repro.constraints.base import Constraint
from repro.errors import ConstraintError
from repro.linalg.counters import OpCategory, emit, timed
from repro.linalg.sparse import CSRMatrix


@dataclass(frozen=True)
class ConstraintBatch:
    """An immutable ordered group of constraints applied as one update.

    ``dimension`` is the total number of scalar measurement rows, i.e. the
    batch factor ``m`` of the paper's complexity analysis.
    """

    constraints: tuple[Constraint, ...]

    def __post_init__(self) -> None:
        if not self.constraints:
            raise ConstraintError("a batch must contain at least one constraint")
        # Constraints are immutable once batched, so the row count and atom
        # set are computed once here instead of per call — make_batches, the
        # schedulers and the batch planner all consult them on hot paths.
        object.__setattr__(
            self, "_dimension", sum(c.dimension for c in self.constraints)
        )
        object.__setattr__(self, "_atoms", None)

    @property
    def dimension(self) -> int:
        return self._dimension

    def atoms(self) -> np.ndarray:
        """Sorted unique global atom indices touched by the batch (cached)."""
        cached = self._atoms
        if cached is None:
            cached = np.unique(
                np.fromiter(
                    chain.from_iterable(c.atoms for c in self.constraints),
                    dtype=np.int64,
                )
            )
            object.__setattr__(self, "_atoms", cached)
        return cached


def make_batches(constraints: Sequence[Constraint], m: int) -> list[ConstraintBatch]:
    """Greedily pack ``constraints`` (in order) into batches of ≈``m`` rows.

    A batch is closed as soon as its row count reaches ``m``; a single
    constraint wider than ``m`` still forms its own batch.  Order within
    and across batches preserves the input order, which matters for the
    constraint-ordering convergence experiments.
    """
    if m < 1:
        raise ConstraintError("batch dimension m must be >= 1")
    batches: list[ConstraintBatch] = []
    current: list[Constraint] = []
    rows = 0
    for c in constraints:
        current.append(c)
        rows += c.dimension
        if rows >= m:
            batches.append(ConstraintBatch(tuple(current)))
            current, rows = [], 0
    if current:
        batches.append(ConstraintBatch(tuple(current)))
    return batches


def assemble_batch(
    batch: ConstraintBatch,
    coords: np.ndarray,
    atom_to_column: np.ndarray | None = None,
    n_columns: int | None = None,
) -> tuple[np.ndarray, np.ndarray, CSRMatrix, np.ndarray]:
    """Evaluate and linearize a batch at ``coords``.

    Parameters
    ----------
    coords:
        Full ``(p, 3)`` coordinate array (global atom indexing).
    atom_to_column:
        Optional map from global atom id to *local atom slot*; state column
        for coordinate ``c`` of atom ``a`` is then ``3·atom_to_column[a]+c``.
        ``None`` means the identity (global flat state).
    n_columns:
        Width of the Jacobian; defaults to ``3·p`` for the identity map.

    Returns
    -------
    (z, h, H, r):
        Stacked targets, stacked measurement values ``h(x)``, the sparse
        ``(m × n_columns)`` Jacobian, and the diagonal noise variances.

    The per-constraint function/Jacobian evaluation is recorded as a single
    ``vec`` event (the paper's step 1, O(m) work).
    """
    p = coords.shape[0]
    if atom_to_column is None:
        n = 3 * p if n_columns is None else n_columns
    else:
        if n_columns is None:
            raise ConstraintError("n_columns is required with an atom_to_column map")
        n = n_columns
    t0 = timed()
    m = batch.dimension
    z = np.empty(m, dtype=np.float64)
    h = np.empty(m, dtype=np.float64)
    r = np.empty(m, dtype=np.float64)
    rows_list: list[np.ndarray] = []
    cols_list: list[np.ndarray] = []
    vals_list: list[np.ndarray] = []
    row0 = 0
    for c in batch.constraints:
        d = c.dimension
        # Use residual() so angle-wrapping constraints report small errors:
        # store z as h + residual, which downstream turns back into z − h.
        hv = c.evaluate(coords)
        h[row0 : row0 + d] = hv
        z[row0 : row0 + d] = hv + c.residual(coords)
        r[row0 : row0 + d] = c.variance
        jac = c.jacobian(coords)  # (d, 3·na)
        na = len(c.atoms)
        atom_ids = np.asarray(c.atoms, dtype=np.int64)
        if atom_to_column is not None:
            slots = atom_to_column[atom_ids]
            if np.any(slots < 0):
                raise ConstraintError(
                    f"constraint touches atoms outside the local column map: {c.atoms}"
                )
        else:
            slots = atom_ids
        cols = (3 * slots[:, None] + np.arange(3)[None, :]).ravel()  # (3·na,)
        rr, cc = np.meshgrid(np.arange(row0, row0 + d), cols, indexing="ij")
        rows_list.append(rr.ravel())
        cols_list.append(cc.ravel())
        vals_list.append(jac.ravel())
        row0 += d
    H = CSRMatrix.from_coo(
        np.concatenate(rows_list),
        np.concatenate(cols_list),
        np.concatenate(vals_list),
        (m, n),
    )
    seconds = timed() - t0
    emit(OpCategory.VECTOR, 40.0 * m, 8.0 * (3 * m + H.nnz), (m,), seconds, parallel_rows=m)
    return z, h, H, r
