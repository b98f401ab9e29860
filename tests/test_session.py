"""Tests for the incremental dirty-path re-solve session.

The load-bearing property throughout: a warm re-solve restricted to the
dirty path is *bit-identical* to a cold full pass over the edited
problem from the same warm start, on every backend.
"""

from contextlib import nullcontext

import numpy as np
import pytest

from repro.constraints import DistanceConstraint, PositionConstraint
from repro.core.hier_solver import HierarchicalSolver
from repro.core.hierarchy import assign_constraints
from repro.core.session import SessionResolveResult, SolveSession
from repro.core.state import StructureEstimate
from repro.errors import CheckpointError, HierarchyError, SessionError
from repro.faults import CheckpointManager, SessionStore
from repro.molecules.rna import build_helix
from repro.parallel import ParallelHierarchicalSolver, ProcessExecutor, ThreadExecutor


def _leaf_delta(problem, leaf_index: int = 0) -> DistanceConstraint:
    """A constraint wholly inside one leaf (the minimal dirty path)."""
    leaf = problem.hierarchy.leaves()[leaf_index]
    i, j = int(leaf.atoms[0]), int(leaf.atoms[-1])
    d = float(np.linalg.norm(problem.true_coords[i] - problem.true_coords[j]))
    return DistanceConstraint(i, j, d, 0.01)


def _cold_reference(session: SolveSession, length: int = 2) -> StructureEstimate:
    """Full cold pass over the session's *current* constraint set.

    Built on a fresh hierarchy with ``assign_constraints`` — the code
    path a from-scratch solve would take — starting from the session's
    warm-start cycle input.  This is the oracle every warm dirty-path
    result must match bitwise.
    """
    problem = build_helix(length)
    constraints = list(session.constraints.values())
    assign_constraints(problem.hierarchy, constraints)
    solver = HierarchicalSolver(
        problem.hierarchy, session.batch_size, session.options
    )
    start = StructureEstimate(
        session._cycle_input.mean.copy(), session._cycle_input.covariance.copy()
    )
    return solver.run_cycle(start).estimate


def _assert_estimates_equal(a: StructureEstimate, b: StructureEstimate) -> None:
    assert np.array_equal(a.mean, b.mean)
    assert np.array_equal(a.covariance, b.covariance)


def _assert_row_count_current(session: SolveSession) -> None:
    """The solver's row count, kept by the edit methods, matches the tree."""
    assert session.solver.n_constraint_rows == sum(
        n.n_constraint_rows for n in session.hierarchy.nodes
    )


@pytest.fixture
def booted_session(helix2_problem):
    """A serial session bootstrapped to a warm state (3 cycles)."""
    est = helix2_problem.initial_estimate(0)
    session = SolveSession(helix2_problem.hierarchy, helix2_problem.constraints)
    session.solve(est, max_cycles=3, tol=0.0)
    return helix2_problem, session


class TestDeltaRouting:
    def test_add_marks_leaf_to_root_path(self, booted_session):
        problem, session = booted_session
        delta = _leaf_delta(problem)
        (cid,) = session.add_constraints([delta])
        leaf = problem.hierarchy.leaves()[0]
        expected = {n.nid for n in problem.hierarchy.ancestor_path(leaf)}
        assert session.dirty_nids == expected
        assert session.owner_of(cid) == leaf.nid
        _assert_row_count_current(session)

    def test_cross_leaf_constraint_owned_by_lca(self, booted_session):
        problem, session = booted_session
        leaves = problem.hierarchy.leaves()
        i, j = int(leaves[0].atoms[0]), int(leaves[-1].atoms[0])
        (cid,) = session.add_constraints([DistanceConstraint(i, j, 5.0, 0.1)])
        lca = problem.hierarchy.lowest_common_ancestor(leaves[0], leaves[-1])
        assert session.owner_of(cid) == lca.nid

    def test_remove_marks_owner_path(self, booted_session):
        problem, session = booted_session
        (cid,) = session.add_constraints([_leaf_delta(problem)])
        session.resolve()
        assert session.dirty_nids == frozenset()
        session.remove_constraints([cid])
        leaf = problem.hierarchy.leaves()[0]
        expected = {n.nid for n in problem.hierarchy.ancestor_path(leaf)}
        assert session.dirty_nids == expected
        assert cid not in session.constraints
        _assert_row_count_current(session)

    def test_update_across_owners_marks_both_paths(self, booted_session):
        problem, session = booted_session
        (cid,) = session.add_constraints([_leaf_delta(problem, leaf_index=0)])
        session.resolve()
        moved = _leaf_delta(problem, leaf_index=1)
        session.update_constraints({cid: moved})
        leaves = problem.hierarchy.leaves()
        expected = {
            n.nid for n in problem.hierarchy.ancestor_path(leaves[0])
        } | {n.nid for n in problem.hierarchy.ancestor_path(leaves[1])}
        assert session.dirty_nids == expected
        assert session.owner_of(cid) == leaves[1].nid
        _assert_row_count_current(session)
        # An in-place update that changes the constraint's row count.
        atom = int(leaves[1].atoms[0])
        session.update_constraints(
            {cid: PositionConstraint(atom, problem.true_coords[atom], 0.01)}
        )
        _assert_row_count_current(session)

    def test_unknown_cid_rejected(self, booted_session):
        _, session = booted_session
        missing = session._next_cid + 5
        with pytest.raises(SessionError, match="unknown constraint id"):
            session.remove_constraints([missing])
        with pytest.raises(SessionError, match="unknown constraint id"):
            session.update_constraints({missing: DistanceConstraint(0, 1, 1.0, 0.1)})


class TestWarmResolveBitIdentity:
    def test_add_matches_cold_solve_of_edited_problem(self, booted_session):
        problem, session = booted_session
        session.add_constraints([_leaf_delta(problem)])
        result = session.resolve()
        assert result.n_dirty < len(problem.hierarchy.nodes)
        assert result.cache_hits > 0
        _assert_estimates_equal(result.estimate, _cold_reference(session))

    def test_dirty_scope_matches_full_scope(self, booted_session):
        problem, session = booted_session
        session.add_constraints([_leaf_delta(problem)])
        warm = session.resolve()
        # Replaying every node from the same warm start must reproduce
        # the dirty-path result exactly.
        full = session.resolve(scope="full")
        assert full.n_dirty == len(problem.hierarchy.nodes)
        _assert_estimates_equal(warm.estimate, full.estimate)

    def test_remove_matches_cold_solve(self, booted_session):
        problem, session = booted_session
        # Drop one of the original constraints.
        cid = next(iter(session.constraints))
        session.remove_constraints([cid])
        result = session.resolve()
        _assert_estimates_equal(result.estimate, _cold_reference(session))

    def test_stacked_deltas_compose(self, booted_session):
        problem, session = booted_session
        for leaf_index in (0, 1, 2):
            session.add_constraints([_leaf_delta(problem, leaf_index)])
            result = session.resolve()
            _assert_estimates_equal(result.estimate, _cold_reference(session))

    def test_update_in_place_matches_cold_solve(self, booted_session):
        problem, session = booted_session
        (cid,) = session.add_constraints([_leaf_delta(problem)])
        session.resolve()
        loosened = DistanceConstraint(
            session.constraints[cid].i, session.constraints[cid].j,
            session.constraints[cid].distance, 0.5,
        )
        session.update_constraints({cid: loosened})
        result = session.resolve()
        _assert_estimates_equal(result.estimate, _cold_reference(session))

    def test_empty_dirty_resolve_is_noop(self, booted_session):
        _, session = booted_session
        before = session.estimate
        result = session.resolve()  # nothing staged
        assert result.n_dirty == 0
        _assert_estimates_equal(result.estimate, before)

    @pytest.mark.parametrize("backend", ["thread", "process"])
    def test_parallel_backends_match_serial(self, helix2_problem, backend):
        est = helix2_problem.initial_estimate(0)
        executor = (
            ThreadExecutor(4) if backend == "thread" else ProcessExecutor(2)
        )
        with executor, SolveSession(
            helix2_problem.hierarchy, helix2_problem.constraints,
            executor=executor,
        ) as session:
            session.solve(est, max_cycles=3, tol=0.0)
            session.add_constraints([_leaf_delta(helix2_problem)])
            result = session.resolve()
            _assert_estimates_equal(result.estimate, _cold_reference(session))

    def test_result_metadata(self, booted_session):
        problem, session = booted_session
        session.add_constraints([_leaf_delta(problem)])
        result = session.resolve()
        assert isinstance(result, SessionResolveResult)
        assert result.scope == "dirty"
        assert result.generation == session.generation
        assert result.dirty_nids == tuple(sorted(result.dirty_nids))
        assert result.seconds > 0


#: Executor factory per backend; ``None`` is the serial solver.
BACKENDS = {
    "serial": nullcontext,
    "thread": lambda: ThreadExecutor(2),
    "process": lambda: ProcessExecutor(2),
}


class TestSolversNeverWriteTheirInput:
    """``run_cycle`` never writes its input estimate, on any backend.

    This contract is what lets a session pass its warm start to every
    cycle and every resolve without copying it.
    """

    @pytest.mark.parametrize("backend", sorted(BACKENDS))
    def test_read_only_input_gives_the_same_bits(self, helix2_problem, backend):
        est = helix2_problem.initial_estimate(0)
        frozen = est.copy()
        frozen.mean.setflags(write=False)
        frozen.covariance.setflags(write=False)
        with BACKENDS[backend]() as executor:
            solver = (
                HierarchicalSolver(helix2_problem.hierarchy, 16)
                if executor is None
                else ParallelHierarchicalSolver(
                    helix2_problem.hierarchy, 16, executor=executor
                )
            )
            writable = solver.run_cycle(est.copy())
            read_only = solver.run_cycle(frozen)
        _assert_estimates_equal(read_only.estimate, writable.estimate)

    @pytest.mark.parametrize("backend", sorted(BACKENDS))
    def test_session_warm_start_survives_edits_and_resolves(
        self, helix2_problem, backend
    ):
        est = helix2_problem.initial_estimate(0)
        with BACKENDS[backend]() as executor, SolveSession(
            helix2_problem.hierarchy, helix2_problem.constraints,
            executor=executor,
        ) as session:
            session.solve(est, max_cycles=2, tol=0.0)
            warm = session._cycle_input.copy()
            (cid,) = session.add_constraints([_leaf_delta(helix2_problem, 0)])
            session.resolve()
            session.update_constraints({cid: _leaf_delta(helix2_problem, 1)})
            session.resolve()
            session.remove_constraints([cid])
            session.resolve()
            session.resolve(scope="full")
            _assert_estimates_equal(session._cycle_input, warm)


class TestSharedMemoryPinning:
    def test_clean_segments_survive_resolves(self, helix2_problem):
        est = helix2_problem.initial_estimate(0)
        with ProcessExecutor(2) as executor, SolveSession(
            helix2_problem.hierarchy, helix2_problem.constraints,
            executor=executor,
        ) as session:
            session.solve(est, max_cycles=2, tol=0.0)
            plane = session._plane
            assert plane is not None
            for node in helix2_problem.hierarchy.nodes:
                assert plane.has_pinned(node.nid)

            session.add_constraints([_leaf_delta(helix2_problem, leaf_index=0)])
            dirty = set(session.dirty_nids)
            clean_leaf = next(
                n for n in helix2_problem.hierarchy.leaves() if n.nid not in dirty
            )
            name_before = plane.pinned_name(clean_leaf.nid)
            gen_before = plane.pinned_generation(clean_leaf.nid)
            result = session.resolve()

            # The clean leaf's physical segment was reused, not rewritten:
            # same shared-memory name, generation tag untouched.
            assert plane.pinned_name(clean_leaf.nid) == name_before
            assert plane.pinned_generation(clean_leaf.nid) == gen_before
            # Every recomputed node carries the new generation.
            for nid in result.dirty_nids:
                assert plane.pinned_generation(nid) == result.generation
            # No segment leaks: exactly one live segment per node.
            assert len(plane) == len(helix2_problem.hierarchy.nodes)


class TestPersistence:
    def test_store_roundtrip_resolves_identically(self, helix2_problem, tmp_path):
        est = helix2_problem.initial_estimate(0)
        session = SolveSession(
            helix2_problem.hierarchy, helix2_problem.constraints, store=tmp_path
        )
        session.solve(est, max_cycles=3, tol=0.0)
        session.add_constraints([_leaf_delta(helix2_problem)])
        session.resolve()

        # A twin session reloaded from disk sees the same warm state and,
        # given the same further edit, must land on the same bits.
        twin = SolveSession.load(tmp_path)
        assert twin.generation == session.generation
        _assert_row_count_current(twin)
        _assert_estimates_equal(
            twin.cache.load(helix2_problem.hierarchy.root.nid),
            session.cache.load(helix2_problem.hierarchy.root.nid),
        )
        twin.add_constraints([_leaf_delta(helix2_problem, leaf_index=1)])
        session.add_constraints([_leaf_delta(helix2_problem, leaf_index=1)])
        _assert_estimates_equal(
            twin.resolve().estimate, session.resolve().estimate
        )

    def test_load_defaults_config_from_manifest(self, helix2_problem, tmp_path):
        est = helix2_problem.initial_estimate(0)
        session = SolveSession(
            helix2_problem.hierarchy, helix2_problem.constraints,
            batch_size=8, store=tmp_path,
        )
        session.solve(est, max_cycles=2, tol=0.0)
        loaded = SolveSession.load(tmp_path)
        assert loaded.batch_size == 8
        assert loaded.options.kernel_impl == session.options.kernel_impl
        assert len(loaded.constraints) == len(session.constraints)

    def test_killed_resolve_resumes_without_redoing_done_nodes(
        self, helix2_problem, tmp_path
    ):
        est = helix2_problem.initial_estimate(0)
        session = SolveSession(
            helix2_problem.hierarchy, helix2_problem.constraints, store=tmp_path
        )
        session.solve(est, max_cycles=3, tol=0.0)
        session.add_constraints([_leaf_delta(helix2_problem)])
        staged = set(session.dirty_nids)

        original = session.solver._solve_node
        seen = {"n": 0}

        def bombed(node, *args, **kwargs):
            if seen["n"] == 2:
                raise RuntimeError("simulated kill")
            seen["n"] += 1
            return original(node, *args, **kwargs)

        session.solver._solve_node = bombed
        with pytest.raises(RuntimeError, match="simulated kill"):
            session.resolve()

        resumed = SolveSession.load(tmp_path)
        _assert_row_count_current(resumed)
        # Exactly the staged nodes that had not completed remain dirty.
        remaining = resumed.dirty_nids
        assert remaining < frozenset(staged)
        assert len(remaining) == len(staged) - 2
        result = resumed.resolve()
        assert set(result.dirty_nids) == set(remaining)
        _assert_estimates_equal(result.estimate, _cold_reference(resumed))

    def test_resume_never_replays_stale_posterior_for_edited_node(
        self, helix2_problem, tmp_path
    ):
        """The satellite guarantee: after a mid-re-solve kill, the edited
        leaf itself must be among the nodes redone on resume — its cached
        posterior predates the edit."""
        est = helix2_problem.initial_estimate(0)
        session = SolveSession(
            helix2_problem.hierarchy, helix2_problem.constraints, store=tmp_path
        )
        session.solve(est, max_cycles=2, tol=0.0)
        delta = _leaf_delta(helix2_problem)
        session.add_constraints([delta])
        edited_leaf = helix2_problem.hierarchy.leaves()[0].nid

        def bombed(node, *args, **kwargs):
            raise RuntimeError("killed before any node completed")

        session.solver._solve_node = bombed
        with pytest.raises(RuntimeError):
            session.resolve()

        resumed = SolveSession.load(tmp_path)
        assert edited_leaf in resumed.dirty_nids
        result = resumed.resolve()
        _assert_estimates_equal(result.estimate, _cold_reference(resumed))


class TestCheckpointInterplay:
    """The solver-level CheckpointManager vs constraint edits.

    The session layer persists through SessionStore; the classic per-node
    checkpoint remains for plain solves — but it must never replay
    ``completed_cycle_estimate`` state computed under a different
    constraint set.
    """

    def test_dirty_pass_with_checkpoint_rejected(self, helix2_problem, tmp_path):
        solver = HierarchicalSolver(
            helix2_problem.hierarchy, 16, checkpoint=CheckpointManager(tmp_path)
        )
        est = helix2_problem.initial_estimate(0)
        with pytest.raises(HierarchyError, match="SolveSession"):
            solver.run_cycle(est, dirty=frozenset({0}), cache={})

    def test_bind_token_discards_stale_artifacts(self, helix2_problem, tmp_path):
        from repro.io import assigned_constraints_token

        est = helix2_problem.initial_estimate(0)
        HierarchicalSolver(
            helix2_problem.hierarchy, 16, checkpoint=CheckpointManager(tmp_path)
        ).run_cycle(est)
        token = assigned_constraints_token(helix2_problem.hierarchy)

        same = CheckpointManager(tmp_path)
        same.bind(helix2_problem.n_atoms, constraints_token=token)
        assert same.completed_cycle_estimate(0) is not None

        edited = CheckpointManager(tmp_path)
        edited.bind(helix2_problem.n_atoms, constraints_token="sha256:other")
        assert edited.completed_cycle_estimate(0) is None

    def test_interrupted_solve_with_edited_constraints_restarts_clean(
        self, helix2_problem, tmp_path
    ):
        est = helix2_problem.initial_estimate(0)
        killed = HierarchicalSolver(
            helix2_problem.hierarchy, 16, checkpoint=CheckpointManager(tmp_path)
        )
        n_nodes = len(helix2_problem.hierarchy)
        original = killed._solve_node
        seen = {"n": 0}

        def bombed(node, *args, **kwargs):
            if seen["n"] == n_nodes + 4:  # dies inside cycle 2
                raise RuntimeError("simulated kill")
            seen["n"] += 1
            return original(node, *args, **kwargs)

        killed._solve_node = bombed
        with pytest.raises(RuntimeError):
            killed.solve(est, max_cycles=3, tol=0.0)

        # Edit the problem, then resume against the same directory.
        edited = list(helix2_problem.constraints) + [_leaf_delta(helix2_problem)]
        fresh = build_helix(2)
        assign_constraints(fresh.hierarchy, edited)
        baseline = HierarchicalSolver(fresh.hierarchy, 16).solve(
            est, max_cycles=3, tol=0.0
        )

        resumed_problem = build_helix(2)
        assign_constraints(resumed_problem.hierarchy, edited)
        resumed = HierarchicalSolver(
            resumed_problem.hierarchy, 16, checkpoint=CheckpointManager(tmp_path)
        )
        report = resumed.solve(est, max_cycles=3, tol=0.0)
        # The stale cycle-1 output (computed without the new constraint)
        # was discarded, not replayed.
        assert resumed.checkpoint.cycles_replayed == 0
        _assert_estimates_equal(report.estimate, baseline.estimate)
        assert report.deltas == pytest.approx(baseline.deltas)


class TestSessionErrors:
    def test_resolve_before_solve_rejected(self, helix2_problem):
        session = SolveSession(helix2_problem.hierarchy, helix2_problem.constraints)
        with pytest.raises(SessionError, match="no warm state"):
            session.resolve()

    def test_bad_scope_rejected(self, booted_session):
        _, session = booted_session
        with pytest.raises(SessionError, match="scope"):
            session.resolve(scope="everything")

    def test_constraint_outside_hierarchy_rejected(self, booted_session):
        problem, session = booted_session
        with pytest.raises(HierarchyError):
            session.add_constraints(
                [DistanceConstraint(0, problem.n_atoms + 7, 1.0, 0.1)]
            )

    def test_dirty_cycle_without_cache_rejected(self, helix2_problem):
        solver = HierarchicalSolver(helix2_problem.hierarchy, 16)
        est = helix2_problem.initial_estimate(0)
        with pytest.raises(HierarchyError, match="cache"):
            solver.run_cycle(est, dirty=frozenset({0}))

    def test_load_without_manifest_rejected(self, tmp_path):
        with pytest.raises(CheckpointError, match="manifest"):
            SolveSession.load(SessionStore(tmp_path))


class TestKernelPolicy:
    """Table 1/Figure 5 run the fast kernels; Table 2 and the simulator
    calibration stay pinned to the reference kernels (Equation 1's rates
    are defined against the published kernel mix)."""

    def test_table1_defaults_to_fast(self):
        import repro.experiments.exp_table1 as exp_table1

        impls = []
        original = exp_table1.FlatSolver

        class Spy(original):
            def __init__(self, constraints, batch_size=16, options=None, **kw):
                impls.append(options.kernel_impl)
                super().__init__(
                    constraints, batch_size=batch_size, options=options, **kw
                )

        exp_table1.FlatSolver = Spy
        try:
            exp_table1.run_table1(lengths=(1,))
        finally:
            exp_table1.FlatSolver = original
        assert impls == ["fast"]

    def test_table2_pinned_to_reference(self):
        import repro.experiments.exp_table2 as exp_table2

        impls = []
        original = exp_table2.FlatSolver

        class Spy(original):
            def __init__(self, constraints, batch_size=16, options=None, **kw):
                impls.append(options.kernel_impl)
                super().__init__(
                    constraints, batch_size=batch_size, options=options, **kw
                )

        exp_table2.FlatSolver = Spy
        try:
            exp_table2.run_table2(
                lengths=(1,), batch_dims=(4, 8), max_rows_per_cell=32, fit=False
            )
        finally:
            exp_table2.FlatSolver = original
        assert impls and set(impls) == {"reference"}

    def test_calibration_pinned_to_reference(self):
        import inspect

        from repro.experiments import calibration

        src = inspect.getsource(calibration.record_cycle)
        assert 'kernel_impl="reference"' in src
