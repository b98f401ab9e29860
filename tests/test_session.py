"""Tests for the incremental dirty-path re-solve session.

The load-bearing property throughout: a warm re-solve restricted to the
dirty path is *bit-identical* to a cold full pass over the edited
problem from the same warm start, on every backend.
"""

import glob
from contextlib import nullcontext

import numpy as np
import pytest

from repro import obs
from repro.constraints import DistanceConstraint, PositionConstraint
from repro.core.hier_solver import HierarchicalSolver
from repro.core.hierarchy import assign_constraints
from repro.core.session import SessionResolveResult, SolveSession
from repro.core.state import StructureEstimate
from repro.core.update import AnnealSchedule, UpdateOptions
from repro.errors import CheckpointError, HierarchyError, SessionError, WorkerCrashError
from repro.faults import (
    FaultConfig,
    FaultInjector,
    SessionStore,
    fault_injection,
)
from repro.molecules.rna import build_helix
from repro.parallel import (
    ParallelHierarchicalSolver,
    ProcessExecutor,
    SharedEstimatePlane,
    ThreadExecutor,
)


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

    def test_no_segment_churn_after_the_first_cycle(self, helix2_problem):
        """Each node keeps one segment: later cycles and resolves rewrite it
        in place, creating, releasing and allocating nothing."""
        nodes = helix2_problem.hierarchy.nodes
        registry = obs.MetricsRegistry()
        names = ("shm.segments_created", "shm.segments_released", "shm.bytes_allocated")

        def counters():
            return {k: registry.counter(k).value for k in names}

        est = helix2_problem.initial_estimate(0)
        with ProcessExecutor(2) as executor, SolveSession(
            helix2_problem.hierarchy, helix2_problem.constraints,
            executor=executor,
        ) as session, obs.metrics_scope(registry):
            session.solve(est, max_cycles=1, tol=0.0)
            first = counters()
            assert first["shm.segments_created"] == len(nodes)
            assert first["shm.segments_released"] == 0
            segments = {n.nid: session._plane.pinned_name(n.nid) for n in nodes}
            session.solve(est, max_cycles=2, tol=0.0)
            session.add_constraints([_leaf_delta(helix2_problem, 0)])
            session.resolve()
            session.resolve(scope="full")
            assert counters() == first
            assert {n.nid: session._plane.pinned_name(n.nid) for n in nodes} == segments
            assert len(session._plane) == len(nodes)

    def test_clean_children_reach_workers_by_handle(
        self, helix2_problem, monkeypatch
    ):
        """A dirty parent's worker reads each clean child from its pin: the
        dispatcher copies no clean posterior out of shared memory."""
        est = helix2_problem.initial_estimate(0)
        copies = []
        pinned_posterior = SharedEstimatePlane.pinned_posterior

        def spy(plane, nid):
            copies.append(nid)
            return pinned_posterior(plane, nid)

        registry = obs.MetricsRegistry()
        with ProcessExecutor(2) as executor, SolveSession(
            helix2_problem.hierarchy, helix2_problem.constraints,
            executor=executor,
        ) as session:
            session.solve(est, max_cycles=2, tol=0.0)
            session.add_constraints([_leaf_delta(helix2_problem, 0)])
            monkeypatch.setattr(SharedEstimatePlane, "pinned_posterior", spy)
            with obs.metrics_scope(registry):
                result = session.resolve()
        assert copies == []
        assert result.cache_hits > 0
        assert registry.counter("shm.segments_reused").value == result.cache_hits
        assert registry.counter("session.cache_hits").value == result.cache_hits

    def test_failed_resolve_leaves_no_partly_written_pin(self, helix2_problem):
        """A resolve that raises releases its unfinished nodes' segments;
        the session then resolves to a serial twin's bits."""
        twin_problem = build_helix(2)
        est = helix2_problem.initial_estimate(0)
        before = set(glob.glob("/dev/shm/psm_*"))
        with ProcessExecutor(2, max_resubmits=0) as executor, SolveSession(
            helix2_problem.hierarchy, helix2_problem.constraints,
            executor=executor,
        ) as session, SolveSession(
            twin_problem.hierarchy, twin_problem.constraints
        ) as twin:
            session.solve(est, max_cycles=2, tol=0.0)
            twin.solve(twin_problem.initial_estimate(0), max_cycles=2, tol=0.0)
            session.add_constraints([_leaf_delta(helix2_problem, 0)])
            twin.add_constraints([_leaf_delta(twin_problem, 0)])
            plane = session._plane
            inj = FaultInjector(FaultConfig(crash_p=1.0, seed=0))
            with fault_injection(inj), pytest.raises(WorkerCrashError):
                session.resolve()
            pins = [n.nid for n in helix2_problem.hierarchy.nodes if plane.has_pinned(n.nid)]
            assert len(plane) == len(pins) < len(helix2_problem.hierarchy.nodes)
            for nid in session.dirty_nids - set(pins):
                with pytest.raises(SessionError):
                    session.cache.load(nid)
            _assert_estimates_equal(session.resolve().estimate, twin.resolve().estimate)
        assert set(glob.glob("/dev/shm/psm_*")) == before


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

    def test_reloaded_session_resolves_on_process(self, helix2_problem, tmp_path):
        """Clean posteriors a reloaded session holds only host-side are
        copied into pinned segments, so a process resolve reads them by
        handle and lands on the serial session's bits."""
        est = helix2_problem.initial_estimate(0)
        session = SolveSession(
            helix2_problem.hierarchy, helix2_problem.constraints, store=tmp_path
        )
        session.solve(est, max_cycles=2, tol=0.0)
        with ProcessExecutor(2) as executor, SolveSession.load(
            tmp_path, executor=executor
        ) as twin:
            twin.add_constraints([_leaf_delta(helix2_problem, leaf_index=1)])
            session.add_constraints([_leaf_delta(helix2_problem, leaf_index=1)])
            result = twin.resolve()
            _assert_estimates_equal(result.estimate, session.resolve().estimate)
            assert result.cache_hits > 0
            assert all(twin._plane.has_pinned(n.nid) for n in twin.hierarchy.nodes
                       if n.nid in result.dirty_nids)

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

    @pytest.mark.parametrize(
        "options",
        [
            UpdateOptions(schedule=AnnealSchedule(8, 0.5)),
            UpdateOptions(local_iterations=2),
        ],
        ids=["batch-anneal", "local-iterations"],
    )
    def test_reloaded_session_keeps_update_options(self, options, tmp_path):
        """A reload resolves with the options that built its cache."""
        problem = build_helix(2)
        session = SolveSession(
            problem.hierarchy, problem.constraints, options=options, store=tmp_path
        )
        session.solve(problem.initial_estimate(0), max_cycles=2, tol=0.0)
        loaded = SolveSession.load(tmp_path)
        assert loaded.options == options
        session.add_constraints([_leaf_delta(problem)])
        loaded.add_constraints([_leaf_delta(problem)])
        _assert_estimates_equal(loaded.resolve().estimate, session.resolve().estimate)

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


class StoreKill:
    """Make the store's ``kill_at``-th write raise (0-based; ``None``: never).

    Writes are cycle inputs, manifests and node posteriors, in the order
    a session makes them; all run on the dispatching thread, on every
    backend.  ``writes`` counts the writes that went through.
    """

    def __init__(self, monkeypatch, kill_at=None):
        self.kill_at = kill_at
        self.writes = 0
        for name in ("save_cycle_input", "save_manifest", "save_node"):
            original = getattr(SessionStore, name)
            monkeypatch.setattr(SessionStore, name, self._wrap(original))

    def _wrap(self, original):
        def write(store, *args, **kwargs):
            if self.writes == self.kill_at:
                raise RuntimeError("simulated kill")
            self.writes += 1
            return original(store, *args, **kwargs)

        return write


def _uninterrupted(length: int, cycles: int):
    problem = build_helix(length)
    with SolveSession(problem.hierarchy, problem.constraints) as session:
        return session.solve(problem.initial_estimate(0), max_cycles=cycles, tol=0.0)


def _assert_reports_equal(report, baseline) -> None:
    _assert_estimates_equal(report.estimate, baseline.estimate)
    assert report.deltas == baseline.deltas
    assert report.cycles == baseline.cycles


class TestColdResume:
    """A killed cold solve continues from its last finished node, bitwise."""

    @pytest.mark.parametrize("backend", sorted(BACKENDS))
    def test_killed_solve_resumes_bitwise(self, backend, tmp_path, monkeypatch):
        baseline = _uninterrupted(2, 3)
        problem = build_helix(2)
        n_nodes = len(problem.hierarchy.nodes)
        # Cycle 1 writes its input, its manifest and every node; cycle 2
        # dies after its input, its manifest and five nodes.
        kill = StoreKill(monkeypatch, kill_at=(2 + n_nodes) + (2 + 5))
        with BACKENDS[backend]() as executor, SolveSession(
            problem.hierarchy, problem.constraints, executor=executor, store=tmp_path
        ) as session:
            with pytest.raises(RuntimeError, match="simulated kill"):
                session.solve(problem.initial_estimate(0), max_cycles=3, tol=0.0)
        kill.kill_at = None
        with BACKENDS[backend]() as executor, SolveSession.load(
            tmp_path, executor=executor
        ) as resumed:
            assert resumed.unfinished_cycle == 2
            assert len(resumed.dirty_nids) == n_nodes - 5
            report = resumed.solve(problem.initial_estimate(0), max_cycles=3, tol=0.0)
            assert resumed.unfinished_cycle is None
        _assert_reports_equal(report, baseline)

    def test_kill_at_every_store_write_resumes_bitwise(self, tmp_path, monkeypatch):
        baseline = _uninterrupted(1, 2)
        count = StoreKill(monkeypatch)
        problem = build_helix(1)
        SolveSession(problem.hierarchy, problem.constraints, store=tmp_path / "count").solve(
            problem.initial_estimate(0), max_cycles=2, tol=0.0
        )
        # Two cycle inputs, two staged manifests, every node twice and the
        # final manifest.
        assert count.writes == 2 * (2 + len(problem.hierarchy.nodes)) + 1
        for kill_at in range(count.writes):
            directory = tmp_path / f"kill{kill_at}"
            problem = build_helix(1)
            count.kill_at, count.writes = kill_at, 0
            with pytest.raises(RuntimeError, match="simulated kill"):
                SolveSession(problem.hierarchy, problem.constraints, store=directory).solve(
                    problem.initial_estimate(0), max_cycles=2, tol=0.0
                )
            count.kill_at = None
            if SessionStore(directory).has_manifest():
                session = SolveSession.load(directory)
                assert session.unfinished_cycle is not None
            else:
                problem = build_helix(1)
                session = SolveSession(problem.hierarchy, problem.constraints, store=directory)
            report = session.solve(problem.initial_estimate(0), max_cycles=2, tol=0.0)
            _assert_reports_equal(report, baseline)
            assert SolveSession.load(directory).unfinished_cycle is None

    def test_live_session_continues_after_a_failed_write(self, tmp_path, monkeypatch):
        baseline = _uninterrupted(2, 3)
        problem = build_helix(2)
        kill = StoreKill(monkeypatch, kill_at=len(problem.hierarchy.nodes) + 5)
        session = SolveSession(problem.hierarchy, problem.constraints, store=tmp_path)
        with pytest.raises(RuntimeError, match="simulated kill"):
            session.solve(problem.initial_estimate(0), max_cycles=3, tol=0.0)
        kill.kill_at = None
        report = session.solve(problem.initial_estimate(0), max_cycles=3, tol=0.0)
        _assert_reports_equal(report, baseline)

    def test_finished_solve_records_no_unfinished_solve(self, helix2_problem, tmp_path):
        session = SolveSession(
            helix2_problem.hierarchy, helix2_problem.constraints, store=tmp_path
        )
        session.solve(helix2_problem.initial_estimate(0), max_cycles=2, tol=0.0)
        manifest = SessionStore(tmp_path).load_manifest()
        assert manifest["solve"] is None and manifest["staged"] is None
        assert SolveSession.load(tmp_path).unfinished_cycle is None
        # Only the warm start's cycle input is kept.
        assert [p.name for p in tmp_path.glob("cycle_input*")] == [
            f"cycle_input_{manifest['cycle_input']}.npz"
        ]

    def test_unfinished_solve_refuses_resolve_and_edits(
        self, helix2_problem, tmp_path, monkeypatch
    ):
        kill = StoreKill(monkeypatch, kill_at=3)
        session = SolveSession(
            helix2_problem.hierarchy, helix2_problem.constraints, store=tmp_path
        )
        with pytest.raises(RuntimeError):
            session.solve(helix2_problem.initial_estimate(0), max_cycles=2, tol=0.0)
        kill.kill_at = None
        for live in (session, SolveSession.load(tmp_path)):
            with pytest.raises(SessionError, match="solve"):
                live.resolve()
            with pytest.raises(SessionError, match="solve"):
                live.add_constraints([_leaf_delta(helix2_problem)])

    def test_resume_needs_the_same_initial_estimate(
        self, helix2_problem, tmp_path, monkeypatch
    ):
        kill = StoreKill(monkeypatch, kill_at=3)
        with pytest.raises(RuntimeError):
            SolveSession(
                helix2_problem.hierarchy, helix2_problem.constraints, store=tmp_path
            ).solve(helix2_problem.initial_estimate(0), max_cycles=2, tol=0.0)
        kill.kill_at = None
        with pytest.raises(SessionError, match="initial estimate"):
            SolveSession.load(tmp_path).solve(
                helix2_problem.initial_estimate(1), max_cycles=2, tol=0.0
            )

    def test_interrupted_solve_with_edited_constraints_restarts_clean(
        self, tmp_path, monkeypatch
    ):
        """An unfinished solve resumes only for exactly its own problem."""
        problem = build_helix(2)
        est = problem.initial_estimate(0)
        kill = StoreKill(monkeypatch, kill_at=20)
        with pytest.raises(RuntimeError):
            SolveSession(problem.hierarchy, problem.constraints, store=tmp_path).solve(
                est, max_cycles=3, tol=0.0
            )
        kill.kill_at = None
        loaded = SolveSession.load(tmp_path)
        same = build_helix(2)
        assert loaded.resumes(
            same.hierarchy, same.constraints,
            batch_size=16, options=UpdateOptions(), initial=est,
        )
        edited = list(same.constraints) + [_leaf_delta(same)]
        assert not loaded.resumes(
            same.hierarchy, edited, batch_size=16, options=UpdateOptions(), initial=est
        )
        reordered = list(same.constraints[1:]) + [same.constraints[0]]
        assert not loaded.resumes(
            same.hierarchy, reordered, batch_size=16, options=UpdateOptions(), initial=est
        )
        for batch_size, options in (
            (8, UpdateOptions()),
            (16, UpdateOptions(local_iterations=2)),
            (16, UpdateOptions(kernel_impl="reference")),
        ):
            assert not loaded.resumes(
                same.hierarchy, same.constraints,
                batch_size=batch_size, options=options, initial=est,
            )
        assert not loaded.resumes(
            build_helix(1).hierarchy, same.constraints,
            batch_size=16, options=UpdateOptions(), initial=est,
        )


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

    def test_load_rejects_an_older_manifest_version(self, tmp_path):
        """Version 1 manifests did not record the update options."""
        (tmp_path / "session.json").write_text('{"version": 1}')
        with pytest.raises(CheckpointError, match="version"):
            SolveSession.load(tmp_path)

    def test_load_rejects_a_kernel_tier_that_is_gone(self, helix2_problem, tmp_path):
        """Sessions written when "fast" was the default tier name it."""
        import json

        session = SolveSession(
            helix2_problem.hierarchy, helix2_problem.constraints, store=tmp_path
        )
        session.solve(helix2_problem.initial_estimate(0), max_cycles=1, tol=0.0)
        path = tmp_path / "session.json"
        doc = json.loads(path.read_text())
        doc["options"]["kernel_impl"] = "fast"
        path.write_text(json.dumps(doc))
        with pytest.raises(CheckpointError, match="kernel_impl"):
            SolveSession.load(tmp_path)


class TestKernelPolicy:
    """Table 1/Figure 5, Table 2 and the simulator calibration all run the
    reference kernels: Table 1 measures the paper's arithmetic claim on
    the tier its documented numbers came from, and Equation 1's rates are
    defined against the published kernel mix."""

    def test_table1_pinned_to_reference(self):
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
        assert impls == ["reference"]

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
