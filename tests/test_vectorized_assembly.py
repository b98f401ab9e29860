"""Planned assembly tier: vectorized linearization vs the scalar loop.

Three layers of agreement, each tighter than the solver-level harness in
``test_fast_kernels.py``:

* property-based (hypothesis): each type's ``linearize_many`` matches the
  scalar ``evaluate``/``residual``/``jacobian`` to rtol 1e-12, including
  the degenerate geometries the scalar code special-cases (coincident
  distance pairs, collinear angles/torsions);
* structural: a :class:`~repro.constraints.plan.BatchPlan` produces the
  *same* CSR sparsity (``indptr``/``indices`` equal, not just close) as
  ``assemble_batch`` and scatters values into identical positions;
* lifecycle: plans are cached per constraint identity in the workspace
  arena, survive warm :meth:`~repro.core.session.SolveSession.resolve`
  untouched, and an edit rebuilds exactly the plans whose batch changed.
"""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.constraints import (
    AngleConstraint,
    BatchPlan,
    DistanceBoundConstraint,
    DistanceConstraint,
    LinearConstraint,
    PositionConstraint,
    TorsionConstraint,
)
from repro.constraints.batch import assemble_batch, make_batches
from repro.core.session import SolveSession
from repro.core.update import UpdateOptions
from repro.errors import ConstraintError
from repro.linalg import get_workspace
from repro.linalg.counters import OpCategory, recording

RTOL = 1e-12
ATOL = 1e-12

coord_strategy = st.floats(-5.0, 5.0, allow_nan=False, allow_infinity=False)


def coords_array(n):
    return st.lists(
        st.tuples(coord_strategy, coord_strategy, coord_strategy),
        min_size=n,
        max_size=n,
    ).map(lambda rows: np.array(rows, dtype=np.float64))


def _separated(coords, pairs, min_dist=1e-3):
    return all(np.linalg.norm(coords[i] - coords[j]) > min_dist for i, j in pairs)


def _angle_conditioned(coords, i, j, k):
    """arccos amplifies a one-ulp dot-product difference by 1/sin(θ); only
    compare the two paths where the angle itself is well-conditioned.
    (Exactly-degenerate geometry is still tested explicitly below — there
    both paths clip identically.)"""
    u = coords[i] - coords[j]
    v = coords[k] - coords[j]
    nu, nv = np.linalg.norm(u), np.linalg.norm(v)
    if min(nu, nv) < 1e-3:
        return False
    return abs(float(u @ v)) / (nu * nv) < 1.0 - 1e-6


def _torsion_conditioned(coords, i, j, k, l):
    b1 = coords[j] - coords[i]
    b2 = coords[k] - coords[j]
    b3 = coords[l] - coords[k]
    n1 = np.cross(b1, b2)
    n2 = np.cross(b2, b3)
    return min(np.linalg.norm(n1), np.linalg.norm(n2), np.linalg.norm(b2)) > 1e-3


def _assert_group_matches_scalar(ctype, constraints, coords):
    """linearize_many over a pack == the scalar loop, row for row.

    ``atol`` floor: the scalar loop routes dot products through BLAS
    ``ddot`` while the packed path uses ``einsum``, so entries that
    cancel to exactly ±0.0 scalar-side may keep a ~1e-17 rounding
    residue vector-side.  Everything else must agree to rtol 1e-12.
    """
    pack = ctype.pack_group(constraints)
    h, z, jac = ctype.linearize_many(coords, pack)
    row0 = 0
    for c in constraints:
        d = c.dimension
        hv = c.evaluate(coords)
        np.testing.assert_allclose(h[row0 : row0 + d], hv, rtol=RTOL, atol=ATOL)
        np.testing.assert_allclose(
            z[row0 : row0 + d], hv + c.residual(coords), rtol=RTOL, atol=ATOL
        )
        np.testing.assert_allclose(
            jac[row0 : row0 + d].reshape(d, -1),
            c.jacobian(coords),
            rtol=RTOL,
            atol=ATOL,
        )
        row0 += d


class TestLinearizeManyProperties:
    @given(coords_array(4))
    @settings(max_examples=60, deadline=None)
    def test_distance(self, coords):
        assume(_separated(coords, [(0, 1), (2, 3), (0, 3)]))
        cs = [
            DistanceConstraint(0, 1, 1.5, 0.1),
            DistanceConstraint(2, 3, 0.7, 0.2),
            DistanceConstraint(0, 3, 2.5, 0.3),
        ]
        _assert_group_matches_scalar(DistanceConstraint, cs, coords)

    @given(coords_array(4))
    @settings(max_examples=60, deadline=None)
    def test_angle(self, coords):
        assume(_angle_conditioned(coords, 0, 1, 2))
        assume(_angle_conditioned(coords, 1, 2, 3))
        cs = [
            AngleConstraint(0, 1, 2, 1.9, 0.1),
            AngleConstraint(1, 2, 3, 2.1, 0.2),
        ]
        _assert_group_matches_scalar(AngleConstraint, cs, coords)

    @given(coords_array(5))
    @settings(max_examples=60, deadline=None)
    def test_torsion(self, coords):
        assume(_torsion_conditioned(coords, 0, 1, 2, 3))
        assume(_torsion_conditioned(coords, 1, 2, 3, 4))
        cs = [
            TorsionConstraint(0, 1, 2, 3, 0.3, 0.1),
            TorsionConstraint(1, 2, 3, 4, -2.9, 0.2),
        ]
        _assert_group_matches_scalar(TorsionConstraint, cs, coords)

    @given(coords_array(3))
    @settings(max_examples=60, deadline=None)
    def test_position(self, coords):
        cs = [
            PositionConstraint(0, np.array([0.5, -1.0, 2.0]), 0.1),
            PositionConstraint(2, np.array([-3.0, 0.0, 1.0]), 0.2),
        ]
        _assert_group_matches_scalar(PositionConstraint, cs, coords)

    @given(coords_array(4))
    @settings(max_examples=60, deadline=None)
    def test_bounds(self, coords):
        assume(_separated(coords, [(0, 1), (2, 3), (0, 3)]))
        cs = [
            DistanceBoundConstraint(0, 1, 1.0, 4.0, 0.1),
            DistanceBoundConstraint(2, 3, None, 2.0, 0.2),
            DistanceBoundConstraint(0, 3, 0.5, None, 0.3),
        ]
        _assert_group_matches_scalar(DistanceBoundConstraint, cs, coords)

    def test_coincident_distance_pair(self):
        """Both paths fall back to the same arbitrary unit direction."""
        coords = np.array([[1.0, 2.0, 3.0], [1.0, 2.0, 3.0]])
        _assert_group_matches_scalar(
            DistanceConstraint, [DistanceConstraint(0, 1, 1.0, 0.1)], coords
        )

    def test_collinear_angle(self):
        coords = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [2.0, 0.0, 0.0]])
        _assert_group_matches_scalar(
            AngleConstraint, [AngleConstraint(0, 1, 2, 2.0, 0.1)], coords
        )

    def test_collinear_torsion(self):
        coords = np.array(
            [
                [0.0, 0.0, 0.0],
                [1.0, 0.0, 0.0],
                [2.0, 0.0, 0.0],
                [3.0, 1.0, 0.0],
            ]
        )
        _assert_group_matches_scalar(
            TorsionConstraint, [TorsionConstraint(0, 1, 2, 3, 0.5, 0.1)], coords
        )

    def test_bound_exactly_at_the_edge_is_inactive(self):
        """The scalar path uses strict inequalities; so must the pack."""
        coords = np.array([[0.0, 0.0, 0.0], [2.0, 0.0, 0.0]])
        _assert_group_matches_scalar(
            DistanceBoundConstraint,
            [DistanceBoundConstraint(0, 1, 2.0, 2.0, 0.1)],
            coords,
        )


def _chain_constraints(rng, p):
    coords = rng.normal(0, 2, (p, 3))
    cs = [PositionConstraint(0, coords[0], 0.02)]
    for i in range(p - 1):
        d = float(np.linalg.norm(coords[i] - coords[i + 1]))
        cs.append(DistanceConstraint(i, i + 1, d, 0.05))
    for i in range(p - 2):
        cs.append(AngleConstraint(i, i + 1, i + 2, 1.9, 0.05))
    for i in range(p - 3):
        cs.append(TorsionConstraint(i, i + 1, i + 2, i + 3, 0.3, 0.1))
    cs.append(DistanceBoundConstraint(0, p - 1, 1.0, 10.0, 0.2))
    a = rng.normal(0, 1, (2, 6))
    cs.append(
        LinearConstraint((1, 3), a, a @ coords[[1, 3]].ravel(), np.array([0.1, 0.1]))
    )
    return coords, cs


class TestBatchPlanStructure:
    def test_plan_matches_assemble_batch(self, rng):
        coords, cs = _chain_constraints(rng, 9)
        for batch in make_batches(cs, 6):
            z0, h0, big0, r0 = assemble_batch(batch, coords)
            plan = BatchPlan(batch, n_columns=3 * coords.shape[0])
            z, h, big, r, support, h_s = plan.assemble(coords)
            np.testing.assert_array_equal(big.indptr, big0.indptr)
            np.testing.assert_array_equal(big.indices, big0.indices)
            np.testing.assert_allclose(big.data, big0.data, rtol=RTOL, atol=ATOL)
            np.testing.assert_allclose(h, h0, rtol=RTOL, atol=ATOL)
            np.testing.assert_allclose(z, z0, rtol=RTOL, atol=ATOL)
            np.testing.assert_array_equal(r, r0)
            np.testing.assert_array_equal(support, big0.column_support())
            np.testing.assert_allclose(
                h_s,
                big0.restrict_columns(big0.column_support()).to_dense(),
                rtol=RTOL,
                atol=ATOL,
            )

    def test_plan_with_column_map(self, rng):
        coords, cs = _chain_constraints(rng, 7)
        atom_to_column = np.arange(coords.shape[0])[::-1].copy()
        n = 3 * coords.shape[0]
        for batch in make_batches(cs, 5):
            z0, h0, big0, r0 = assemble_batch(batch, coords, atom_to_column, n)
            plan = BatchPlan(batch, atom_to_column=atom_to_column, n_columns=n)
            z, h, big, r, _, _ = plan.assemble(coords)
            np.testing.assert_array_equal(big.indptr, big0.indptr)
            np.testing.assert_array_equal(big.indices, big0.indices)
            np.testing.assert_allclose(big.data, big0.data, rtol=RTOL, atol=ATOL)

    def test_relinearization_rewrites_only_data(self, rng):
        coords, cs = _chain_constraints(rng, 8)
        batch = make_batches(cs, len(cs))[0]
        plan = BatchPlan(batch, n_columns=3 * coords.shape[0])
        _, _, big1, _, _, _ = plan.assemble(coords)
        indices1, indptr1 = big1.indices, big1.indptr
        _, _, big2, _, _, _ = plan.assemble(coords + 0.1)
        assert big2.indices is indices1 and big2.indptr is indptr1
        z0, _, big0, _ = assemble_batch(batch, coords + 0.1)
        np.testing.assert_allclose(big2.data, big0.data, rtol=RTOL, atol=ATOL)

    @pytest.mark.parametrize("mapped", [False, True])
    def test_interleaved_shapes_match_assemble_batch(self, rng, mapped):
        """Every constraint shape, interleaved so that neither the (atom
        count, row count) groups nor the type groups are contiguous in
        batch order, and a scalar-fallback LinearConstraint among them."""
        p = 12
        coords = rng.normal(0, 2, (p, 3))
        a = rng.normal(0, 1, (2, 6))
        lin = LinearConstraint((8, 2), a, a @ coords[[8, 2]].ravel(), np.array([0.1, 0.2]))
        cs = [
            DistanceConstraint(3, 1, 2.0, 0.05),
            AngleConstraint(0, 4, 7, 1.9, 0.05),
            lin,
            TorsionConstraint(9, 2, 5, 11, 0.3, 0.1),
            PositionConstraint(6, coords[6], 0.02),
            DistanceBoundConstraint(10, 0, 1.0, 10.0, 0.2),
            DistanceConstraint(7, 2, 2.5, 0.05),
            TorsionConstraint(1, 3, 8, 6, 0.4, 0.1),
            AngleConstraint(11, 5, 9, 2.1, 0.05),
            PositionConstraint(4, coords[4] + 0.1, 0.02),
            LinearConstraint((5, 10), a, a @ coords[[5, 10]].ravel(), np.array([0.3, 0.1])),
            DistanceBoundConstraint(2, 9, 1.0, 3.0, 0.2),
            DistanceConstraint(0, 11, 4.0, 0.05),
        ]
        batch = make_batches(cs, 1000)[0]
        if mapped:
            # Two unused slots in front, atoms in reverse order.
            atom_to_column = 2 + np.arange(p)[::-1]
            n = 3 * (p + 2)
            z0, h0, big0, r0 = assemble_batch(batch, coords, atom_to_column, n)
        else:
            atom_to_column, n = None, 3 * p
            z0, h0, big0, r0 = assemble_batch(batch, coords)
        plan = BatchPlan(batch, atom_to_column=atom_to_column, n_columns=n)
        assert [g.ctype for g in plan.vector_groups] == [
            DistanceConstraint,
            AngleConstraint,
            TorsionConstraint,
            PositionConstraint,
            DistanceBoundConstraint,
        ]
        assert [item.constraint for item in plan.scalar_items] == [cs[2], cs[10]]
        z, h, big, r, support, h_s = plan.assemble(coords)
        np.testing.assert_array_equal(big.indptr, big0.indptr)
        np.testing.assert_array_equal(big.indices, big0.indices)
        np.testing.assert_allclose(big.data, big0.data, rtol=RTOL, atol=ATOL)
        np.testing.assert_allclose(h, h0, rtol=RTOL, atol=ATOL)
        np.testing.assert_allclose(z, z0, rtol=RTOL, atol=ATOL)
        np.testing.assert_array_equal(r, r0)
        np.testing.assert_array_equal(support, big0.column_support())
        np.testing.assert_allclose(
            h_s,
            big0.restrict_columns(big0.column_support()).to_dense(),
            rtol=RTOL,
            atol=ATOL,
        )

    def test_out_of_map_error_names_the_first_constraint_in_batch_order(self, rng):
        """The angle comes first in batch order although its shape group
        comes after the distances'."""
        cs = [
            DistanceConstraint(0, 1, 1.5, 0.05),
            AngleConstraint(0, 4, 1, 1.9, 0.05),
            DistanceConstraint(5, 1, 1.5, 0.05),
        ]
        batch = make_batches(cs, 1000)[0]
        atom_to_column = np.array([0, 1, 2, 3, -1, -1], dtype=np.int64)
        with pytest.raises(ConstraintError, match=r"column map: \(0, 4, 1\)$"):
            BatchPlan(batch, atom_to_column=atom_to_column, n_columns=12)

    def test_plan_build_is_one_vec_event(self, rng):
        coords, cs = _chain_constraints(rng, 8)
        batch = make_batches(cs, len(cs))[0]
        with recording() as rec:
            plan = BatchPlan(batch, n_columns=3 * coords.shape[0])
        (event,) = rec.events
        assert event.category is OpCategory.VECTOR
        assert event.flops == 4.0 * plan.nnz
        assert event.bytes == 8.0 * (4 * plan.nnz + 2 * plan.m)
        assert event.shape == (plan.m,) and event.parallel_rows == plan.m

    def test_structural_arrays_are_frozen(self, rng):
        coords, cs = _chain_constraints(rng, 6)
        batch = make_batches(cs, len(cs))[0]
        plan = BatchPlan(batch, n_columns=3 * coords.shape[0])
        for arr in (plan.indices, plan.indptr, plan.support, plan.variance):
            assert not arr.flags.writeable


class TestBatchHelpers:
    def test_dimension_and_atoms_are_cached(self, rng):
        _, cs = _chain_constraints(rng, 6)
        batch = make_batches(cs, 1000)[0]
        assert batch.dimension == sum(c.dimension for c in batch.constraints)
        atoms = batch.atoms()
        assert batch.atoms() is atoms

    def test_default_packing_is_legacy_order(self, rng):
        """Ordering experiments depend on batches following input order."""
        _, cs = _chain_constraints(rng, 8)
        flat = [c for b in make_batches(cs, 4) for c in b.constraints]
        assert flat == cs


class TestPlanCacheLifecycle:
    def test_warm_full_resolve_rebuilds_nothing(self, helix2_problem):
        ws = get_workspace()
        ws.clear()
        session = SolveSession(
            helix2_problem.hierarchy,
            helix2_problem.constraints,
            options=UpdateOptions(kernel_impl="vector"),
        )
        session.solve(helix2_problem.initial_estimate(0), max_cycles=2, tol=0.0)
        assert ws.plan_builds > 0
        ws.plan_builds = ws.plan_hits = 0
        session.resolve(scope="full")
        assert ws.plan_builds == 0
        assert ws.plan_hits > 0

    def test_edit_rebuilds_only_affected_plans(self, helix2_problem):
        ws = get_workspace()
        ws.clear()
        session = SolveSession(
            helix2_problem.hierarchy,
            helix2_problem.constraints,
            options=UpdateOptions(kernel_impl="vector"),
        )
        session.solve(helix2_problem.initial_estimate(0), max_cycles=2, tol=0.0)
        cid, old = next(
            (cid, c)
            for cid, c in session.constraints.items()
            if isinstance(c, DistanceConstraint)
        )
        ws.plan_builds = 0
        session.update_constraints(
            {
                cid: DistanceConstraint(
                    old.i, old.j, old.distance * 1.01, old.sigma2
                )
            }
        )
        session.resolve()
        # only the one batch containing the edited constraint replans
        assert ws.plan_builds == 1

    def test_lru_eviction(self, rng):
        from repro.linalg import Workspace

        coords, cs = _chain_constraints(rng, 6)
        ws = Workspace()
        ws.plan_capacity = 2
        n = 3 * coords.shape[0]
        batches = make_batches(cs, 3)[:3]
        for b in batches:
            ws.plan_for(b, n_columns=n)
        assert ws.plan_builds == 3
        ws.plan_for(batches[0], n_columns=n)  # evicted → rebuilt
        assert ws.plan_builds == 4
        ws.plan_for(batches[2], n_columns=n)  # still resident → hit
        assert ws.plan_hits == 1


class TestVectorImplEndToEnd:
    def test_flat_solve_matches_reference(
        self, square_estimate, square_constraints
    ):
        from repro.core.update import apply_batch

        batch = make_batches(square_constraints, 100)[0]
        ref = apply_batch(
            square_estimate, batch, options=UpdateOptions(kernel_impl="reference")
        )
        vec = apply_batch(
            square_estimate, batch, options=UpdateOptions(kernel_impl="vector")
        )
        np.testing.assert_allclose(vec.mean, ref.mean, rtol=1e-10, atol=1e-12)
        np.testing.assert_allclose(
            vec.covariance, ref.covariance, rtol=1e-10, atol=1e-12
        )

    def test_out_of_map_atom_raises_like_scalar_path(self, rng):
        from repro.errors import ConstraintError

        coords, cs = _chain_constraints(rng, 6)
        batch = make_batches(cs, len(cs))[0]
        atom_to_column = np.full(coords.shape[0], -1, dtype=np.int64)
        with pytest.raises(ConstraintError, match="outside the local column map"):
            BatchPlan(batch, atom_to_column=atom_to_column, n_columns=9)
