"""Fast symmetric kernels: unit tests and vector-vs-reference properties.

The production tier (``UpdateOptions.kernel_impl="vector"``: planned
assembly feeding the kernels of :mod:`repro.linalg.fast`) must agree
with the reference tier to rtol 1e-10 on full solves — helix workloads,
random SPD problems, mixed constraint types, every executor backend —
while its building blocks (``symm``, ``trsm_right``, ``syrk_downdate``,
the workspace arena) each match their NumPy references exactly.  The
plan side is pinned too: a solve served from cached plans is bitwise
the freshly compiled one, and each batch compiles one plan, Joseph form
and local iterations included.
"""

import threading

import numpy as np
import pytest

from repro.core.flat import FlatSolver
from repro.core.hier_solver import HierarchicalSolver
from repro.core.state import StructureEstimate
from repro.core.update import KERNEL_IMPLS, UpdateOptions, apply_batch, apply_batches
from repro.constraints import (
    AngleConstraint,
    DistanceBoundConstraint,
    DistanceConstraint,
    LinearConstraint,
    PositionConstraint,
    TorsionConstraint,
)
from repro.constraints.batch import make_batches
from repro.errors import DimensionError
from repro.linalg import (
    Workspace,
    add_diagonal_inplace,
    complete_upper,
    gather_cht,
    get_workspace,
    mirror_lower,
    recording,
    spmm_support,
    symm,
    syrk_downdate,
    trsm_right,
)
from repro.linalg.counters import OpCategory
from repro.parallel import (
    ParallelHierarchicalSolver,
    ProcessExecutor,
    SerialExecutor,
    ThreadExecutor,
)

RTOL = 1e-10
ATOL = 1e-12
# Full hierarchical cycles accumulate over ~1500 constraint rows, so
# near-zero entries need an absolute floor; 1e-10 absolute on O(10)
# coordinates is still ~1e-11 relative agreement.
SOLVE_ATOL = 1e-10

EXECUTORS = {
    "serial": SerialExecutor,
    "thread": lambda: ThreadExecutor(2),
    "process": lambda: ProcessExecutor(2),
}


def _spd(rng, n):
    a = rng.normal(0, 1, (n, n))
    return a @ a.T / n + np.eye(n)


# --------------------------------------------------------------- unit kernels
class TestSymm:
    def test_matches_dense_product(self, rng):
        c = _spd(rng, 12)
        b = rng.normal(0, 1, (12, 5))
        assert np.allclose(symm(c, b), c @ b, rtol=1e-13)

    def test_writes_into_out_buffer(self, rng):
        c = _spd(rng, 9)
        b = rng.normal(0, 1, (9, 4))
        out = np.empty((9, 4), order="F")
        res = symm(c, b, out=out)
        assert res is out or np.shares_memory(res, out)
        assert np.allclose(out, c @ b)

    def test_c_ordered_symmetric_input_needs_no_copy(self, rng):
        c = np.ascontiguousarray(_spd(rng, 8))
        b = rng.normal(0, 1, (8, 3))
        assert np.allclose(symm(c, b), c @ b)

    def test_rejects_bad_shapes(self, rng):
        with pytest.raises(DimensionError):
            symm(rng.normal(0, 1, (3, 4)), rng.normal(0, 1, (4, 2)))
        with pytest.raises(DimensionError):
            symm(_spd(rng, 4), rng.normal(0, 1, (5, 2)))


class TestTrsm:
    def test_solves_against_transposed_factor(self, rng):
        s = _spd(rng, 6)
        lower = np.linalg.cholesky(s)
        b = rng.normal(0, 1, (10, 6))
        w = trsm_right(lower, b.copy())
        assert np.allclose(w @ lower.T, b, rtol=1e-12)

    def test_no_transpose_form(self, rng):
        s = _spd(rng, 5)
        lower = np.linalg.cholesky(s)
        b = rng.normal(0, 1, (7, 5))
        k = trsm_right(lower, b.copy(), transpose=False)
        assert np.allclose(k @ lower, b, rtol=1e-12)

    def test_overwrites_fortran_rhs_in_place(self, rng):
        s = _spd(rng, 4)
        lower = np.linalg.cholesky(s)
        b = np.asfortranarray(rng.normal(0, 1, (6, 4)))
        w = trsm_right(lower, b)
        assert np.shares_memory(w, b)


class TestSyrkDowndate:
    def test_matches_outer_product_downdate(self, rng):
        c = np.asfortranarray(_spd(rng, 10))
        w = rng.normal(0, 1, (10, 3))
        expected = c - w @ w.T
        res = syrk_downdate(c, w)
        assert np.allclose(res, expected, rtol=1e-12)

    def test_result_exactly_symmetric(self, rng):
        c = np.asfortranarray(_spd(rng, 17))
        res = syrk_downdate(c, rng.normal(0, 1, (17, 4)))
        assert (res == res.T).all()

    def test_works_on_transpose_view_of_c_ordered(self, rng):
        base = np.ascontiguousarray(_spd(rng, 8))
        expected = base - np.outer(base[:, 0], base[:, 0])
        w = base[:, :1].copy()
        syrk_downdate(base.T, w)  # F-contiguous view; symmetric downdate
        assert np.allclose(base, expected, rtol=1e-12)

    def test_rejects_non_fortran_target(self, rng):
        with pytest.raises(DimensionError):
            syrk_downdate(np.ascontiguousarray(_spd(rng, 5)), rng.normal(0, 1, (5, 2)))


class TestSmallKernels:
    def test_mirror_lower_both_orders(self, rng):
        for order in ("C", "F"):
            a = np.array(rng.normal(0, 1, (11, 11)), order=order)
            mirror_lower(a)
            assert (a == a.T).all()

    def test_gather_cht_matches_full_product(self, rng):
        n, m = 14, 4
        c = _spd(rng, n)
        support = np.array([1, 5, 9])
        h = np.zeros((m, n))
        h[:, support] = rng.normal(0, 1, (m, support.size))
        cht = gather_cht(c, h[:, support], support)
        assert np.allclose(cht, c @ h.T, rtol=1e-12)

    def test_spmm_support_matches_full_product(self, rng):
        n, m = 12, 3
        c = _spd(rng, n)
        support = np.array([0, 4, 7, 11])
        h = np.zeros((m, n))
        h[:, support] = rng.normal(0, 1, (m, support.size))
        cht = c @ h.T
        assert np.allclose(
            spmm_support(h[:, support], cht, support), h @ cht, rtol=1e-12
        )

    def test_add_diagonal_inplace(self, rng):
        a = rng.normal(0, 1, (6, 6))
        expected = a + np.diag(np.arange(6.0))
        res = add_diagonal_inplace(a, np.arange(6.0))
        assert res is a
        assert np.allclose(a, expected)

    def test_kernels_emit_events(self, rng):
        c = np.asfortranarray(_spd(rng, 6))
        with recording() as rec:
            symm(c, rng.normal(0, 1, (6, 2)))
            syrk_downdate(c, rng.normal(0, 1, (6, 2)))
        cats = [e.category for e in rec.events]
        assert OpCategory.MATMAT in cats
        assert len(cats) == 2
        assert all(e.flops > 0 and e.bytes > 0 for e in rec.events)


def _stale_lower(c):
    """``c`` half-stored: its strict lower triangle overwritten with NaN."""
    half = np.array(c, order="C")
    half[np.tril_indices(c.shape[0], -1)] = np.nan
    return half


class TestHalfStorage:
    """Readers of a half-stored covariance never touch its stale triangle."""

    @pytest.mark.parametrize("n", [1, 6, 21, 64, 200, 700])
    @pytest.mark.parametrize("m", [1, 5, 16])
    def test_symm_reads_only_the_upper_triangle(self, rng, n, m):
        c = _spd(rng, n)
        b = np.asfortranarray(rng.normal(0, 1, (n, m)))
        assert np.array_equal(symm(_stale_lower(c), b), symm(c, b))

    @pytest.mark.parametrize(
        "support",
        [[0], [0, 1, 2], [3, 4, 5, 21, 22, 23], [1, 9, 17, 38], [39, 40, 41]],
    )
    def test_gather_cht_reads_only_the_upper_triangle(self, rng, support):
        n, m = 42, 4
        c = _spd(rng, n)
        support = np.array(support)
        h_s = rng.normal(0, 1, (m, support.size))
        full = gather_cht(c, h_s, support)
        assert np.array_equal(gather_cht(_stale_lower(c), h_s, support), full)

    @pytest.mark.parametrize("n", [42, 256, 257, 600])
    def test_gather_cht_paths_equal_the_full_row_gather(self, rng, n):
        """Small nodes fill the stale part of the gathered rows with one
        masked copy, large ones row by row; either way the product is the
        one over the rows of the full matrix, bit for bit."""
        c = _spd(rng, n)
        c = np.triu(c) + np.triu(c, 1).T  # exactly symmetric
        support = np.sort(rng.choice(n, 19, replace=False))
        h_s = rng.normal(0, 1, (5, support.size))
        expected = np.dot(h_s, c[support, :]).T
        assert np.array_equal(gather_cht(_stale_lower(c), h_s, support), expected)
        assert np.array_equal(gather_cht(c, h_s, support), expected)

    def test_unmirrored_downdate_then_completion_equals_mirrored(self, rng):
        c = _spd(rng, 13)
        w = rng.normal(0, 1, (13, 3))
        mirrored = syrk_downdate(np.asfortranarray(c), w)
        half = np.array(c, order="C")
        syrk_downdate(half.T, w, mirror=False)
        assert not np.array_equal(half, half.T)  # the lower triangle is stale
        assert np.array_equal(np.triu(half), np.triu(mirrored))
        assert complete_upper(half) is half
        assert np.array_equal(half, mirrored)

    def test_completion_is_an_m_m_event_without_flops(self, rng):
        with recording() as rec:
            complete_upper(_stale_lower(_spd(rng, 9)))
        (event,) = rec.events
        assert event.category is OpCategory.MATMAT
        assert event.flops == 0.0 and event.bytes == 8.0 * 9 * 8


# ----------------------------------------------------------------- workspace
class TestWorkspace:
    def test_same_key_reuses_buffer(self):
        ws = Workspace()
        a = ws.take("x", (4, 3))
        b = ws.take("x", (4, 3))
        assert a is b
        assert ws.hits == 1 and ws.misses == 1

    def test_distinct_names_never_alias(self):
        ws = Workspace()
        a = ws.take("a", (5, 5))
        b = ws.take("b", (5, 5))
        assert not np.shares_memory(a, b)

    def test_alternating_shapes_both_stay_cached(self):
        ws = Workspace()
        a1 = ws.take("x", (3, 3))
        b1 = ws.take("x", (2, 7))
        assert ws.take("x", (3, 3)) is a1
        assert ws.take("x", (2, 7)) is b1

    def test_order_is_part_of_the_key(self):
        ws = Workspace()
        f = ws.take("x", (3, 4), order="F")
        c = ws.take("x", (3, 4), order="C")
        assert f.flags.f_contiguous and c.flags.c_contiguous
        assert not np.shares_memory(f, c)

    def test_clear_and_nbytes(self):
        ws = Workspace()
        ws.take("x", (10, 10))
        assert ws.nbytes() == 800
        ws.clear()
        assert ws.nbytes() == 0

    def test_per_thread_arenas(self):
        arenas = []

        def grab():
            arenas.append(get_workspace())

        t = threading.Thread(target=grab)
        t.start()
        t.join()
        assert arenas[0] is not get_workspace()


# ------------------------------------------------- vector vs reference solves
def _random_problem(rng, p=10):
    coords = rng.normal(0, 2, (p, 3))
    constraints = [
        PositionConstraint(0, coords[0], 0.02),
        PositionConstraint(p - 1, coords[p - 1], 0.02),
    ]
    for _ in range(3 * p):
        i, j = rng.choice(p, size=2, replace=False)
        d = float(np.linalg.norm(coords[i] - coords[j]))
        constraints.append(DistanceConstraint(int(i), int(j), d, 0.05))
    grp = (1, 2)
    a = rng.normal(0, 1, (2, 6))
    constraints.append(
        LinearConstraint(grp, a, a @ coords[list(grp)].ravel(), np.array([0.1, 0.1]))
    )
    cov = _spd(rng, 3 * p)
    estimate = StructureEstimate(
        (coords + rng.normal(0, 0.3, coords.shape)).ravel(), cov
    )
    return estimate, constraints


def _run_flat(estimate, constraints, impl, **kwargs):
    options = UpdateOptions(kernel_impl=impl, **kwargs)
    est = estimate
    for batch in make_batches(constraints, 8):
        est = apply_batch(est, batch, options=options)
    return est


class TestFastMatchesReference:
    """The vector tier, which runs the fast kernels, against the reference
    tier: symmetric in-place kernels change nothing but time."""

    def test_invalid_impl_rejected(self):
        assert KERNEL_IMPLS == ("reference", "vector")
        assert UpdateOptions().kernel_impl == "vector"
        for impl in ("wat", "fast"):
            with pytest.raises(DimensionError, match="kernel_impl"):
                UpdateOptions(kernel_impl=impl)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_random_spd_problems(self, seed):
        rng = np.random.default_rng(seed)
        estimate, constraints = _random_problem(rng)
        ref = _run_flat(estimate, constraints, "reference")
        vec = _run_flat(estimate, constraints, "vector")
        assert np.allclose(vec.mean, ref.mean, rtol=RTOL, atol=ATOL)
        assert np.allclose(vec.covariance, ref.covariance, rtol=RTOL, atol=ATOL)

    def test_joseph_branch(self, rng):
        estimate, constraints = _random_problem(rng)
        ref = _run_flat(estimate, constraints, "reference", joseph=True)
        vec = _run_flat(estimate, constraints, "vector", joseph=True)
        assert np.allclose(vec.covariance, ref.covariance, rtol=RTOL, atol=ATOL)

    def test_local_iterations(self, rng):
        estimate, constraints = _random_problem(rng)
        ref = _run_flat(estimate, constraints, "reference", local_iterations=3)
        vec = _run_flat(estimate, constraints, "vector", local_iterations=3)
        assert np.allclose(vec.mean, ref.mean, rtol=RTOL, atol=ATOL)

    def test_fast_posterior_is_exactly_symmetric(self, rng):
        estimate, constraints = _random_problem(rng)
        vec = _run_flat(estimate, constraints, "vector")
        assert (vec.covariance == vec.covariance.T).all()

    def test_posterior_does_not_alias_workspace(self, rng):
        """A returned posterior must survive later batches untouched."""
        estimate, constraints = _random_problem(rng)
        batches = make_batches(constraints, 8)
        first = apply_batch(estimate, batches[0], options=UpdateOptions())
        snapshot = first.covariance.copy()
        apply_batch(first, batches[1], options=UpdateOptions())
        assert (first.covariance == snapshot).all()

    def test_helix_hierarchical_solve(self, helix2_problem):
        est = helix2_problem.initial_estimate(0)
        ref = HierarchicalSolver(
            helix2_problem.hierarchy,
            batch_size=16,
            options=UpdateOptions(kernel_impl="reference"),
        ).run_cycle(est)
        vec = HierarchicalSolver(
            helix2_problem.hierarchy,
            batch_size=16,
            options=UpdateOptions(kernel_impl="vector"),
        ).run_cycle(est)
        assert np.allclose(
            vec.estimate.mean, ref.estimate.mean, rtol=RTOL, atol=SOLVE_ATOL
        )
        assert np.allclose(
            vec.estimate.covariance,
            ref.estimate.covariance,
            rtol=RTOL,
            atol=SOLVE_ATOL,
        )

    def test_reference_impl_is_deterministic(self, helix2_problem):
        est = helix2_problem.initial_estimate(0)
        opts = UpdateOptions(kernel_impl="reference")
        a = HierarchicalSolver(
            helix2_problem.hierarchy, batch_size=16, options=opts
        ).run_cycle(est)
        b = HierarchicalSolver(
            helix2_problem.hierarchy, batch_size=16, options=opts
        ).run_cycle(est)
        assert np.array_equal(a.estimate.mean, b.estimate.mean)
        assert np.array_equal(a.estimate.covariance, b.estimate.covariance)

    @pytest.mark.parametrize("backend", sorted(EXECUTORS))
    @pytest.mark.parametrize("impl", KERNEL_IMPLS)
    def test_all_backends_match_serial_reference(
        self, helix2_problem, backend, impl
    ):
        est = helix2_problem.initial_estimate(0)
        ref = HierarchicalSolver(
            helix2_problem.hierarchy,
            batch_size=16,
            options=UpdateOptions(kernel_impl="reference"),
        ).run_cycle(est)
        with EXECUTORS[backend]() as ex:
            par = ParallelHierarchicalSolver(
                helix2_problem.hierarchy,
                batch_size=16,
                options=UpdateOptions(kernel_impl=impl),
                executor=ex,
            ).run_cycle(est)
        assert np.allclose(
            par.estimate.mean, ref.estimate.mean, rtol=RTOL, atol=SOLVE_ATOL
        )
        assert np.allclose(
            par.estimate.covariance,
            ref.estimate.covariance,
            rtol=RTOL,
            atol=SOLVE_ATOL,
        )
        if impl == "reference":
            # same kernels, same order: bitwise, not just close
            assert np.array_equal(par.estimate.mean, ref.estimate.mean)


def _mixed_problem(rng, p=8):
    """A chain touching every group-protocol type plus scalar fallbacks."""
    coords = rng.normal(0, 2, (p, 3))
    constraints = [PositionConstraint(0, coords[0], 0.02)]
    for i in range(p - 1):
        d = float(np.linalg.norm(coords[i] - coords[i + 1]))
        constraints.append(DistanceConstraint(i, i + 1, d, 0.05))
    for i in range(p - 2):
        u = coords[i] - coords[i + 1]
        v = coords[i + 2] - coords[i + 1]
        ang = float(
            np.arccos(
                np.clip(u @ v / (np.linalg.norm(u) * np.linalg.norm(v)), -1, 1)
            )
        )
        constraints.append(AngleConstraint(i, i + 1, i + 2, ang, 0.05))
    for i in range(p - 3):
        constraints.append(TorsionConstraint(i, i + 1, i + 2, i + 3, 0.3, 0.1))
    constraints.append(DistanceBoundConstraint(0, p - 1, 1.0, None, 0.2))
    constraints.append(DistanceBoundConstraint(1, p - 2, None, 2.0, 0.2))
    grp = (2, 4)
    a = rng.normal(0, 1, (2, 6))
    constraints.append(
        LinearConstraint(grp, a, a @ coords[list(grp)].ravel(), np.array([0.1, 0.1]))
    )
    cov = _spd(rng, 3 * p)
    estimate = StructureEstimate(
        (coords + rng.normal(0, 0.2, coords.shape)).ravel(), cov
    )
    return estimate, constraints


class TestVectorMatchesFastAndReference:
    """The plan side of the vector tier: planned assembly feeding the fast
    kernels changes nothing but time, whether a batch's plan is freshly
    compiled or served from the arena's cache."""

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_random_spd_problems(self, seed):
        """A warm re-solve, every plan a cache hit, is bitwise the cold one."""
        rng = np.random.default_rng(seed)
        estimate, constraints = _random_problem(rng)
        ref = _run_flat(estimate, constraints, "reference")
        cold = _run_flat(estimate, constraints, "vector")
        warm = _run_flat(estimate, constraints, "vector")
        assert np.allclose(cold.mean, ref.mean, rtol=RTOL, atol=ATOL)
        assert np.allclose(cold.covariance, ref.covariance, rtol=RTOL, atol=ATOL)
        assert np.array_equal(warm.mean, cold.mean)
        assert np.array_equal(warm.covariance, cold.covariance)

    @pytest.mark.parametrize("seed", [0, 1])
    def test_mixed_constraint_types(self, seed):
        rng = np.random.default_rng(seed)
        estimate, constraints = _mixed_problem(rng)
        ref = _run_flat(estimate, constraints, "reference")
        vec = _run_flat(estimate, constraints, "vector")
        assert np.allclose(vec.mean, ref.mean, rtol=RTOL, atol=ATOL)
        assert np.allclose(vec.covariance, ref.covariance, rtol=RTOL, atol=ATOL)

    def test_joseph_branch(self, rng):
        """The Joseph form still assembles each batch through its plan."""
        estimate, constraints = _random_problem(rng)
        ref = _run_flat(estimate, constraints, "reference", joseph=True)
        ws = get_workspace()
        ws.clear()
        ws.plan_builds = ws.plan_hits = 0
        vec = _run_flat(estimate, constraints, "vector", joseph=True)
        assert ws.plan_builds == len(make_batches(constraints, 8))
        assert np.allclose(vec.mean, ref.mean, rtol=RTOL, atol=ATOL)
        assert np.allclose(vec.covariance, ref.covariance, rtol=RTOL, atol=ATOL)

    def test_local_iterations_relinearize_through_the_plan(self, rng):
        """Every relinearization pass re-evaluates the batch's one plan."""
        estimate, constraints = _random_problem(rng)
        ref = _run_flat(estimate, constraints, "reference", local_iterations=3)
        ws = get_workspace()
        ws.clear()
        ws.plan_builds = ws.plan_hits = 0
        vec = _run_flat(estimate, constraints, "vector", local_iterations=3)
        assert ws.plan_builds == len(make_batches(constraints, 8))
        assert np.allclose(vec.mean, ref.mean, rtol=RTOL, atol=ATOL)

    def test_vector_posterior_does_not_alias_workspace(self, rng):
        """Re-running a batch (a plan hit on the same arena buffers) leaves
        the posterior it returned before untouched."""
        estimate, constraints = _random_problem(rng)
        batches = make_batches(constraints, 8)
        opts = UpdateOptions(kernel_impl="vector")
        first = apply_batch(estimate, batches[0], options=opts)
        snapshot = first.covariance.copy()
        again = apply_batch(estimate, batches[0], options=opts)
        apply_batch(first, batches[1], options=opts)
        assert (first.covariance == snapshot).all()
        assert (again.covariance == snapshot).all()

    def test_plan_cache_reused_across_solves(self, rng):
        """Re-solving the same constraints must hit, not rebuild, plans."""
        estimate, constraints = _random_problem(rng)
        ws = get_workspace()
        ws.clear()
        ws.plan_builds = ws.plan_hits = 0
        _run_flat(estimate, constraints, "vector")
        builds = ws.plan_builds
        assert builds == len(make_batches(constraints, 8))
        assert ws.plan_hits == 0
        _run_flat(estimate, constraints, "vector")
        assert ws.plan_builds == builds
        assert ws.plan_hits == builds

    def test_helix_hierarchical_solve(self, helix2_problem):
        """A second cycle of one solver hits every plan and is bitwise the
        first."""
        est = helix2_problem.initial_estimate(0)
        ref = HierarchicalSolver(
            helix2_problem.hierarchy,
            batch_size=16,
            options=UpdateOptions(kernel_impl="reference"),
        ).run_cycle(est)
        solver = HierarchicalSolver(
            helix2_problem.hierarchy,
            batch_size=16,
            options=UpdateOptions(kernel_impl="vector"),
        )
        cold = solver.run_cycle(est)
        warm = solver.run_cycle(est)
        assert np.allclose(
            cold.estimate.mean, ref.estimate.mean, rtol=RTOL, atol=SOLVE_ATOL
        )
        assert np.allclose(
            cold.estimate.covariance,
            ref.estimate.covariance,
            rtol=RTOL,
            atol=SOLVE_ATOL,
        )
        assert np.array_equal(warm.estimate.mean, cold.estimate.mean)
        assert np.array_equal(warm.estimate.covariance, cold.estimate.covariance)

    @pytest.mark.parametrize("seed", [0, 3, 7])
    def test_fuzzed_vector_identity(self, seed):
        """The fuzz catalogue's parallel ≡ serial check covers the vector
        tier: a fuzzed scenario's own options are vector, and a thread
        backend reproduces its serial cycle bitwise."""
        from repro.scenarios import generate_scenario
        from repro.scenarios.invariants import check_backend_identity

        scenario = generate_scenario(seed)
        assert scenario.options.kernel_impl == "vector"
        with ThreadExecutor(2) as ex:
            result = check_backend_identity(scenario, {"thread": ex})
        assert result.ok, result.detail


class TestConsumeEstimate:
    """``consume_estimate`` recycles dead intermediates bitwise-identically.

    Solver batch loops pass ``consume_estimate=True`` for their own
    intermediates so the covariance downdate runs in place instead of
    copying the full n×n prior first.  The arithmetic is the same dsyrk
    on the same values, so the posterior must be bitwise equal to the
    copying path — and the flag must stay advisory for the pinned
    reference tier.
    """

    @pytest.mark.parametrize("impl", ["vector"])
    def test_consumed_chain_bitwise_equals_copying_chain(self, rng, impl):
        estimate, constraints = _random_problem(rng)
        batches = make_batches(constraints, 8)
        opts = UpdateOptions(kernel_impl=impl)
        mid_a = apply_batch(estimate, batches[0], options=opts)
        out_a = apply_batch(mid_a, batches[1], options=opts)
        mid_b = apply_batch(estimate, batches[0], options=opts)
        out_b = apply_batch(
            mid_b, batches[1], options=opts, consume_estimate=True
        )
        assert (out_a.mean == out_b.mean).all()
        assert (out_a.covariance == out_b.covariance).all()
        # The consumed intermediate's buffer was recycled as the posterior.
        assert out_b.covariance is mid_b.covariance

    def test_reference_tier_ignores_the_flag(self, rng):
        estimate, constraints = _random_problem(rng)
        batches = make_batches(constraints, 8)
        opts = UpdateOptions(kernel_impl="reference")
        mid = apply_batch(estimate, batches[0], options=opts)
        snapshot = mid.covariance.copy()
        out = apply_batch(mid, batches[1], options=opts, consume_estimate=True)
        assert (mid.covariance == snapshot).all()
        assert out.covariance is not mid.covariance

    @pytest.mark.parametrize("impl", ["vector"])
    def test_default_still_preserves_the_input(self, rng, impl):
        estimate, constraints = _random_problem(rng)
        batches = make_batches(constraints, 8)
        opts = UpdateOptions(kernel_impl=impl)
        mid = apply_batch(estimate, batches[0], options=opts)
        snapshot = mid.covariance.copy()
        apply_batch(mid, batches[1], options=opts)
        assert (mid.covariance == snapshot).all()

    @pytest.mark.parametrize(
        "opts",
        [
            UpdateOptions(kernel_impl="vector"),
            UpdateOptions(kernel_impl="vector", local_iterations=2),
        ],
        ids=["vector", "local_iterations"],
    )
    def test_half_stored_chain_bitwise_equals_full_chain(self, rng, opts):
        """The batch loops' opt-in: no mirror per batch, one at the end."""
        estimate, constraints = _random_problem(rng)
        batches = make_batches(constraints, 8)
        full = estimate
        for batch in batches:
            full = apply_batch(full, batch, options=opts)
            assert np.array_equal(full.covariance, full.covariance.T)
        half = estimate
        for step, batch in enumerate(batches):
            half = apply_batch(
                half, batch, options=opts, consume_estimate=step > 0,
                half_stored=True,
            )
            assert not np.array_equal(half.covariance, half.covariance.T)
        complete_upper(half.covariance)
        assert (half.mean == full.mean).all()
        assert (half.covariance == full.covariance).all()
        looped = apply_batches(estimate, batches, None, opts, "flat", [], [])
        assert (looped.covariance == full.covariance).all()
        # The caller's prior is never consumed or half-stored.
        assert (estimate.covariance == estimate.covariance.T).all()

    @pytest.mark.parametrize(
        "opts",
        [UpdateOptions(kernel_impl="reference"), UpdateOptions(joseph=True)],
        ids=["reference", "joseph"],
    )
    def test_full_matrix_updates_ignore_the_half_stored_flag(self, rng, opts):
        estimate, constraints = _random_problem(rng)
        out = estimate
        for batch in make_batches(constraints, 8):
            out = apply_batch(out, batch, options=opts, half_stored=True)
            assert (out.covariance == out.covariance.T).all()

    @pytest.mark.parametrize("impl", ["vector"])
    def test_local_iterations_consume_their_own_intermediates(self, rng, impl):
        """Iterations ≥2 own the running covariance even without the flag."""
        estimate, constraints = _random_problem(rng)
        batches = make_batches(constraints, 8)
        one = UpdateOptions(kernel_impl=impl, local_iterations=3)
        snapshot = estimate.covariance.copy()
        out = apply_batch(estimate, batches[0], options=one)
        assert (estimate.covariance == snapshot).all()
        assert np.all(np.isfinite(out.covariance))


class TestSolversReturnExactlySymmetricCovariances:
    """Half storage never leaves a batch loop, on any solver or backend."""

    @pytest.mark.parametrize("impl", ["vector"])
    def test_serial_solvers(self, helix2_problem, impl):
        est = helix2_problem.initial_estimate(0)
        opts = UpdateOptions(kernel_impl=impl)
        hier = HierarchicalSolver(helix2_problem.hierarchy, 16, options=opts)
        flat = FlatSolver(helix2_problem.constraints, 16, options=opts)
        for res in (hier.run_cycle(est), flat.run_cycle(est)):
            cov = res.estimate.covariance
            assert np.array_equal(cov, cov.T)

    @pytest.mark.parametrize("backend", sorted(EXECUTORS))
    @pytest.mark.parametrize("impl", ["vector"])
    def test_parallel_solver(self, helix2_problem, backend, impl):
        est = helix2_problem.initial_estimate(0)
        with EXECUTORS[backend]() as ex:
            res = ParallelHierarchicalSolver(
                helix2_problem.hierarchy,
                batch_size=16,
                options=UpdateOptions(kernel_impl=impl),
                executor=ex,
            ).run_cycle(est)
        cov = res.estimate.covariance
        assert np.array_equal(cov, cov.T)


class TestFastMatchesReferenceFuzzShapes:
    """Vector-vs-reference agreement over fuzzer-generated shapes.

    The hand-built problems above are all even-dimensioned, batch-16 and
    dense-support; the scenario generator covers the shapes they miss —
    odd state dims, rank-1 (single-row) batches, tiny leaf-only pools —
    on every topology family.
    """

    @pytest.mark.parametrize("seed", [0, 2, 3, 4, 6, 7, 8])
    def test_fuzzed_scenario_agrees(self, seed):
        from repro.scenarios import generate_scenario
        from repro.scenarios.invariants import check_vector_vs_reference

        result = check_vector_vs_reference(generate_scenario(seed))
        assert result.ok, result.detail

    @pytest.mark.parametrize("n_atoms", [5, 7, 13])
    def test_odd_state_dims(self, n_atoms):
        from dataclasses import replace

        from repro.scenarios import build_scenario, spec_from_seed
        from repro.scenarios.invariants import check_vector_vs_reference

        spec = replace(spec_from_seed(1), n_atoms=n_atoms, faults=None)
        result = check_vector_vs_reference(build_scenario(spec))
        assert result.ok, result.detail

    def test_rank_one_batches(self):
        """batch_size=1 exercises the m=1 corner of every kernel."""
        from dataclasses import replace

        from repro.scenarios import build_scenario, spec_from_seed
        from repro.scenarios.invariants import check_vector_vs_reference

        spec = replace(spec_from_seed(2), batch_size=1, faults=None)
        result = check_vector_vs_reference(build_scenario(spec))
        assert result.ok, result.detail

    def test_empty_support_constraint(self, rng):
        """An all-zero linear constraint has an empty column support; the
        gathered-GEMM branch must handle s=0 like the reference path."""
        estimate, constraints = _random_problem(rng, p=5)
        constraints.append(
            LinearConstraint(
                (0, 3), np.zeros((2, 6)), np.zeros(2), np.array([0.5, 0.5])
            )
        )
        ref = _run_flat(estimate, constraints, "reference")
        vec = _run_flat(estimate, constraints, "vector")
        assert np.allclose(vec.mean, ref.mean, rtol=RTOL, atol=ATOL)
        assert np.allclose(vec.covariance, ref.covariance, rtol=RTOL, atol=ATOL)

    def test_leaf_only_tiny_pool(self):
        from dataclasses import replace

        from repro.scenarios import build_scenario, spec_from_seed
        from repro.scenarios.invariants import check_vector_vs_reference

        spec = replace(
            spec_from_seed(3), topology="chain", leaf_only=True, faults=None
        )
        result = check_vector_vs_reference(build_scenario(spec))
        assert result.ok, result.detail


class TestDependencyDispatch:
    def test_four_threads_match_serial(self, helix2_problem):
        est = helix2_problem.initial_estimate(0)
        serial = HierarchicalSolver(
            helix2_problem.hierarchy, batch_size=16
        ).run_cycle(est)
        with ThreadExecutor(4) as ex:
            par = ParallelHierarchicalSolver(
                helix2_problem.hierarchy,
                batch_size=16,
                executor=ex,
            ).run_cycle(est)
        assert np.array_equal(serial.estimate.mean, par.estimate.mean)
        assert np.array_equal(serial.estimate.covariance, par.estimate.covariance)
