"""Compile-once / evaluate-many batch assembly (the ``vector`` tier).

:func:`repro.constraints.batch.assemble_batch` re-derives everything on
every call: it loops over the batch's constraints in Python, calls each
scalar ``evaluate``/``residual``/``jacobian`` triple, rebuilds the COO
triplets and re-sorts them into a fresh CSR structure — although the
*structure* (which state columns each measurement row touches) is a pure
function of the constraint set and the column map, identical on every
cycle and every local relinearization pass.

A :class:`BatchPlan` factors that invariant part out.  Building a plan
(once per batch) groups the constraints by exact type, packs each
vectorizable group's atom indices and targets into arrays (the group
protocol documented on :class:`~repro.constraints.base.Constraint`), and
precomputes, with one NumPy pass per group of constraints that share an
atom count and a row count rather than one per constraint:

* the CSR ``indices``/``indptr`` of the batch Jacobian, identical to what
  ``assemble_batch`` produces (the same (row, column)-sorted layout);
* scatter positions mapping each group's stacked ``jac`` values into the
  CSR ``data`` array;
* the column support and the scatter positions of the dense support
  restriction ``H[:, support]`` consumed by the fast kernels, so no
  update scans ``H`` for its support;
* the stacked measurement variances ``r``.

:meth:`BatchPlan.assemble` then rewrites only values: one vectorized
``linearize_many`` call per constraint type, two scatters, no sorting,
no per-constraint Python loop.  Types that do not implement the group
protocol (e.g. :class:`~repro.constraints.base.LinearConstraint`) fall
back to their scalar methods inside the same plan, so the tier handles
arbitrary constraint mixes.

Plans are cached in the per-thread workspace arena keyed by constraint
*identity* (:meth:`repro.linalg.workspace.Workspace.plan_for`), so they
survive cycles, ``local_iterations`` and warm session re-solves, and an
edit that replaces a constraint object invalidates exactly the plans
that contained it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.constraints.base import Constraint
from repro.constraints.batch import ConstraintBatch
from repro.errors import ConstraintError
from repro.linalg.counters import OpCategory, emit, timed
from repro.linalg.sparse import CSRMatrix

__all__ = ["BatchPlan"]

#: Flop estimate per row for the scalar-fallback path (matches the legacy
#: assembler's accounting in :func:`repro.constraints.batch.assemble_batch`).
_SCALAR_FLOPS_PER_ROW = 40.0

#: Coordinate offsets within an atom's three state columns.
_ARANGE3 = np.arange(3)


@dataclass(frozen=True)
class _VectorGroup:
    """One same-type constraint group linearized in a single call."""

    ctype: type[Constraint]
    rows: np.ndarray  # (rows_g,) global batch row of each packed row
    pack: object  # ctype.pack_group(...) result, built once
    data_pos: np.ndarray  # (rows_g · width,) positions into the CSR data
    flops_per_row: float


@dataclass(frozen=True)
class _ScalarItem:
    """One constraint without the group protocol (scalar fallback)."""

    constraint: Constraint
    row0: int
    dimension: int
    data_pos: np.ndarray


def _has_group_protocol(ctype: type) -> bool:
    """Exact-class check: a subclass that overrides the scalar methods but
    not the group protocol must fall back to its own scalar path."""
    return "linearize_many" in ctype.__dict__ and "pack_group" in ctype.__dict__


class BatchPlan:
    """Precomputed sparsity structure + packed groups for one batch.

    Parameters mirror :func:`~repro.constraints.batch.assemble_batch`,
    except that ``n_columns`` is always required (there are no coordinates
    at build time to infer the identity-map width from).
    """

    def __init__(
        self,
        batch: ConstraintBatch,
        atom_to_column: np.ndarray | None = None,
        n_columns: int | None = None,
    ) -> None:
        if n_columns is None:
            raise ConstraintError("n_columns is required to build a BatchPlan")
        t0 = timed()
        # Strong references pin the constraint objects while the plan is
        # cached, keeping id()-based cache keys collision-free.
        cs = self.constraints = batch.constraints
        m = batch.dimension
        n = int(n_columns)
        self.m = m
        self.n = n

        # Constraint c owns rows [row0, row0 + d) of the batch and the
        # d·w entries of the CSR data from offset on, w = 3·(atom count).
        # Its variance holds one entry per row, so it gives d.
        variances = [c.variance for c in cs]
        dims = [len(v) for v in variances]
        n_atoms = [len(c.atoms) for c in cs]
        d_arr = np.array(dims, dtype=np.int64)
        w_arr = 3 * np.array(n_atoms, dtype=np.int64)
        sizes = d_arr * w_arr
        ends = sizes.cumsum()
        nnz = int(ends[-1])
        offsets = ends - sizes
        variance = np.concatenate(variances, dtype=np.float64)

        # One pass per group of constraints that share an atom count and
        # a row count.  CSR stores each row's columns sorted; rank[v] is
        # where local Jacobian column v lands within its sorted row.
        shapes: dict[tuple[int, int], list[int]] = {}
        for i, key in enumerate(zip(n_atoms, dims)):
            shapes.setdefault(key, []).append(i)
        indices = np.empty(nnz, dtype=np.int64)
        data_pos = np.empty(nnz, dtype=np.int64)
        first_bad = len(cs)
        for (na, d), members in shapes.items():
            atoms = np.array([cs[i].atoms for i in members], dtype=np.int64)
            if atom_to_column is not None:
                atoms = atom_to_column[atoms]
                if atoms.min() < 0:
                    bad = int((atoms < 0).any(axis=1).argmax())
                    first_bad = min(first_bad, members[bad])
            w = 3 * na
            cols = (3 * atoms[:, :, None] + _ARANGE3).reshape(len(members), w)
            order = cols.argsort(axis=1, kind="stable")
            rank = order.argsort(axis=1, kind="stable")
            # (g, d): the data offset of each member's rows; (g, d, w): the
            # entries, scattered in place at the members' nnz offsets.
            row_starts = offsets[members][:, None] + np.arange(0, d * w, w)
            entries = row_starts[:, :, None] + np.arange(w)
            indices[entries] = np.sort(cols, axis=1)[:, None, :]
            data_pos[entries] = row_starts[:, :, None] + rank[:, None, :]
        if first_bad < len(cs):
            raise ConstraintError(
                "constraint touches atoms outside the local column map: "
                f"{cs[first_bad].atoms}"
            )

        row_widths = np.repeat(w_arr, d_arr)
        indptr = np.zeros(m + 1, dtype=np.int64)
        np.cumsum(row_widths, out=indptr[1:])
        support = np.unique(indices)
        # Dense-restriction scatter: H[:, support].to_dense().ravel()[pos].
        pos_in_support = support.searchsorted(indices)
        row_ids = np.repeat(np.arange(m, dtype=np.int64), row_widths)
        dense_pos = row_ids * support.shape[0] + pos_in_support

        # The structural arrays are shared by every CSRMatrix this plan
        # emits and by the cached plan itself: freeze them.
        for arr in (indices, indptr, support, dense_pos, variance):
            arr.setflags(write=False)
        self.indices = indices
        self.indptr = indptr
        self.support = support
        self.dense_pos = dense_pos
        self.variance = variance
        self.nnz = nnz

        # Same-type groups in order of first appearance; a constraint type
        # without the group protocol (key None) takes the scalar fallback.
        types = [type(c) for c in cs]
        key_of = {t: t if _has_group_protocol(t) else None for t in set(types)}
        by_type: dict[type | None, list[int]] = {}
        for i, t in enumerate(types):
            by_type.setdefault(key_of[t], []).append(i)
        if len(by_type) == 1:
            # One type, like every helix batch: the group is the batch.
            select = {key_of[types[0]]: (np.arange(m, dtype=np.int64), data_pos)}
        else:
            code_of = {key: code for code, key in enumerate(by_type)}
            codes = np.array([code_of[key_of[t]] for t in types])
            row_code = np.repeat(codes, d_arr)
            entry_code = np.repeat(codes, sizes)
            select = {
                key: (np.flatnonzero(row_code == code), data_pos[entry_code == code])
                for key, code in code_of.items()
            }
        self.vector_groups: tuple[_VectorGroup, ...] = tuple(
            _VectorGroup(
                ctype=key,
                rows=select[key][0],
                pack=key.pack_group([cs[i] for i in members]),
                data_pos=select[key][1],
                flops_per_row=float(
                    getattr(key, "_VECTOR_FLOPS_PER_ROW", _SCALAR_FLOPS_PER_ROW)
                ),
            )
            for key, members in by_type.items()
            if key is not None
        )
        scalar = by_type.get(None, [])
        row0 = d_arr.cumsum() - d_arr if scalar else None
        self.scalar_items: tuple[_ScalarItem, ...] = tuple(
            _ScalarItem(
                cs[i], int(row0[i]), dims[i], data_pos[offsets[i] : ends[i]]
            )
            for i in scalar
        )
        seconds = timed() - t0
        # Plan builds are dominated by the per-constraint sort/scatter
        # precompute: O(nnz) index traffic, negligible flops.
        emit(
            OpCategory.VECTOR,
            4.0 * nnz,
            8.0 * (4 * nnz + 2 * m),
            (m,),
            seconds,
            parallel_rows=m,
            op="plan_build",
        )

    # ----------------------------------------------------------- evaluate
    def assemble(
        self, coords: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, CSRMatrix, np.ndarray, np.ndarray, np.ndarray]:
        """Relinearize the batch at ``coords`` through the cached structure.

        Returns ``(z, h, H, r, support, h_s)`` where the first four match
        :func:`~repro.constraints.batch.assemble_batch` and the trailing
        pair is the precomputed column support with the dense restriction
        ``H[:, support]`` the fast kernels consume directly.  ``r`` is the
        plan's cached (read-only) variance array; callers scale it into a
        fresh array, never in place.
        """
        t0 = timed()
        m = self.m
        z = np.empty(m, dtype=np.float64)
        h = np.empty(m, dtype=np.float64)
        data = np.empty(self.nnz, dtype=np.float64)
        flops = 0.0
        for g in self.vector_groups:
            hg, zg, jac = g.ctype.linearize_many(coords, g.pack)
            h[g.rows] = hg
            z[g.rows] = zg
            data[g.data_pos] = jac.ravel()
            flops += g.flops_per_row * hg.shape[0]
        for item in self.scalar_items:
            c = item.constraint
            hv = c.evaluate(coords)
            h[item.row0 : item.row0 + item.dimension] = hv
            z[item.row0 : item.row0 + item.dimension] = hv + c.residual(coords)
            data[item.data_pos] = c.jacobian(coords).ravel()
            flops += _SCALAR_FLOPS_PER_ROW * item.dimension
        big_h = CSRMatrix.trusted(data, self.indices, self.indptr, (m, self.n))
        h_s = np.zeros((m, self.support.shape[0]), dtype=np.float64)
        h_s.ravel()[self.dense_pos] = data
        seconds = timed() - t0
        # Honest traffic estimate: z/h writes, the Jacobian values written
        # twice (CSR data + dense restriction), and the coordinate gathers.
        emit(
            OpCategory.VECTOR,
            flops,
            8.0 * (2 * self.nnz + 5 * m),
            (m,),
            seconds,
            parallel_rows=m,
            op="assemble_planned",
        )
        return z, h, big_h, self.variance, self.support, h_s
