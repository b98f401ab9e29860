"""Deterministic failure-mode tests for the robustness layer.

Covers: fault-schedule determinism, retry-backoff escalation, quarantine
accounting, crash/resume equivalence of a durable session, and the
enriched Cholesky failure diagnostics.
"""

import numpy as np
import pytest

from repro.constraints import DistanceConstraint, PositionConstraint
from repro.constraints.batch import ConstraintBatch
from repro.core import hier_solver
from repro.core.hier_solver import HierarchicalSolver
from repro.core.session import SolveSession
from repro.core.state import StructureEstimate
from repro.core.update import UpdateOptions, apply_batch
from repro.errors import (
    BatchUpdateError,
    NotPositiveDefiniteError,
    WorkerCrashError,
)
from repro.faults import (
    FaultConfig,
    FaultInjector,
    SessionStore,
    current_injector,
    fault_injection,
)
from repro.linalg.cholesky import cholesky_factor
from repro.molecules.rna import build_helix
from repro.parallel import ParallelHierarchicalSolver, ProcessExecutor, ThreadExecutor


def indefinite_estimate(bad=-1e-4):
    """A 1-atom estimate whose covariance has one negative eigenvalue."""
    cov = np.diag([1.0, 1.0, 1.0])
    cov[0, 0] = bad
    return StructureEstimate(np.zeros(3), cov)


class TestFaultConfig:
    def test_parse_spec(self):
        cfg = FaultConfig.parse("crash=0.05,nan=0.02,seed=7,mode=kill")
        assert cfg.crash_p == 0.05
        assert cfg.nan_p == 0.02
        assert cfg.seed == 7
        assert cfg.crash_mode == "kill"

    def test_parse_rejects_unknown_key(self):
        with pytest.raises(ValueError, match="unknown fault spec key"):
            FaultConfig.parse("explode=1.0")

    def test_rejects_bad_probability(self):
        with pytest.raises(ValueError, match="nan_p"):
            FaultConfig(nan_p=1.5)

    def test_rejects_bad_mode(self):
        with pytest.raises(ValueError, match="crash_mode"):
            FaultConfig(crash_mode="segfault")

    def test_no_injector_active_by_default(self):
        assert current_injector() is None


class TestDeterminism:
    def test_same_seed_same_crash_schedule(self):
        a = FaultInjector(FaultConfig(crash_p=0.3, seed=42))
        b = FaultInjector(FaultConfig(crash_p=0.3, seed=42))
        assert a.crash_schedule(200) == b.crash_schedule(200)

    def test_different_seed_different_schedule(self):
        a = FaultInjector(FaultConfig(crash_p=0.3, seed=1))
        b = FaultInjector(FaultConfig(crash_p=0.3, seed=2))
        assert a.crash_schedule(200) != b.crash_schedule(200)

    def test_channels_draw_independently(self):
        """Drawing on one channel must not perturb another's stream."""
        a = FaultInjector(FaultConfig(nan_p=0.5, crash_p=0.5, seed=9))
        b = FaultInjector(FaultConfig(nan_p=0.5, crash_p=0.5, seed=9))
        a.crash_schedule(50)  # extra draws on the crash channel only
        xa = a.maybe_poison(np.zeros((4, 4)), "gemm")
        xb = b.maybe_poison(np.zeros((4, 4)), "gemm")
        assert np.array_equal(np.isnan(xa), np.isnan(xb))

    def test_faulted_solve_reproducible(self, helix2_problem):
        est = helix2_problem.initial_estimate(0)
        outs = []
        for _ in range(2):
            inj = FaultInjector(FaultConfig(nan_p=0.02, crash_p=0.05, seed=7))
            with fault_injection(inj):
                res = HierarchicalSolver(helix2_problem.hierarchy, 16).run_cycle(est)
            outs.append((res, inj.summary()))
        (r1, s1), (r2, s2) = outs
        assert s1 == s2
        assert np.array_equal(r1.estimate.mean, r2.estimate.mean)
        assert np.array_equal(r1.estimate.covariance, r2.estimate.covariance)

    def test_disabled_injection_bitwise_identical(self, helix2_problem):
        """An all-zero-probability injector must not change a single bit."""
        est = helix2_problem.initial_estimate(0)
        clean = HierarchicalSolver(helix2_problem.hierarchy, 16).run_cycle(est)
        with fault_injection(FaultInjector(FaultConfig(seed=3))):
            idle = HierarchicalSolver(helix2_problem.hierarchy, 16).run_cycle(est)
        assert np.array_equal(clean.estimate.mean, idle.estimate.mean)
        assert np.array_equal(clean.estimate.covariance, idle.estimate.covariance)


class TestRetryBackoff:
    def test_escalation_sequence_is_geometric(self):
        est = indefinite_estimate()
        c = PositionConstraint(0, np.zeros(3), 1e-9)
        log = []
        opts = UpdateOptions(jitter=1e-9, jitter_growth=10.0, max_retries=8)
        post = apply_batch(est, ConstraintBatch((c,)), options=opts, retry_log=log)
        assert len(log) == 1 and log[0].succeeded
        regs = log[0].regularizations()
        assert regs[0] == 0.0  # first attempt is unregularized
        # every subsequent failed attempt escalated by exactly ×10
        for prev, nxt in zip(regs[1:], regs[2:]):
            assert nxt == pytest.approx(prev * 10.0)
        assert log[0].final_regularization > regs[-1]
        assert np.all(np.isfinite(post.mean))

    def test_terminal_failure_raises_batch_update_error(self):
        est = indefinite_estimate(bad=-10.0)  # far beyond the jitter range
        c = PositionConstraint(0, np.zeros(3), 1e-9)
        opts = UpdateOptions(jitter=1e-9, max_retries=3)
        with pytest.raises(BatchUpdateError) as excinfo:
            apply_batch(est, ConstraintBatch((c,)), options=opts)
        report = excinfo.value.report
        assert not report.succeeded
        assert report.n_failures == 4  # initial attempt + 3 retries
        assert report.regularizations() == pytest.approx((0.0, 1e-9, 1e-8, 1e-7))

    def test_jitter_zero_preserves_original_error(self):
        est = indefinite_estimate()
        c = PositionConstraint(0, np.zeros(3), 1e-9)
        with pytest.raises(NotPositiveDefiniteError):
            apply_batch(est, ConstraintBatch((c,)), options=UpdateOptions(jitter=0.0))

    def test_retry_log_empty_for_clean_update(self, rng):
        est = StructureEstimate.from_coords(rng.normal(0, 1, (2, 3)), sigma=1.0)
        log = []
        apply_batch(est, ConstraintBatch((DistanceConstraint(0, 1, 2.0, 0.1),)), retry_log=log)
        assert log == []


class TestQuarantine:
    def test_all_batches_quarantined_under_total_corruption(self, helix2_problem):
        est = helix2_problem.initial_estimate(0)
        solver = HierarchicalSolver(
            helix2_problem.hierarchy, 16, options=UpdateOptions(max_retries=2)
        )
        inj = FaultInjector(FaultConfig(corrupt_p=1.0, seed=0))
        with fault_injection(inj):
            res = solver.run_cycle(est)
        # Every constraint row passes through exactly one batch; with total
        # corruption every batch fails terminally and is quarantined.
        assert sum(q.n_rows for q in res.quarantined) == solver.n_constraint_rows
        assert sum(q.n_constraints for q in res.quarantined) == len(
            helix2_problem.constraints
        )
        # The estimate survives (prior carried through), uncontaminated.
        assert np.all(np.isfinite(res.estimate.mean))
        assert np.all(np.isfinite(res.estimate.covariance))

    def test_solve_reports_quarantine_totals(self, helix2_problem):
        est = helix2_problem.initial_estimate(0)
        solver = HierarchicalSolver(
            helix2_problem.hierarchy, 16, options=UpdateOptions(max_retries=1)
        )
        with fault_injection(FaultInjector(FaultConfig(corrupt_p=1.0, seed=0))):
            report = solver.solve(est, max_cycles=2, tol=0.0)
        # Every batch quarantined → the mean never moves → the solve
        # "converges" (delta exactly 0) after one cycle of pure quarantine.
        assert report.cycles == 1
        assert report.quarantined_constraints == len(helix2_problem.constraints)
        assert report.quarantined_rows == solver.n_constraint_rows
        assert len(report.quarantine) > 0

    @pytest.mark.parametrize("backend", ["thread", "process"])
    def test_parallel_backends_quarantine_like_serial(self, helix2_problem, backend):
        est = helix2_problem.initial_estimate(0)
        opts = UpdateOptions(max_retries=1)
        make = {"thread": ThreadExecutor, "process": ProcessExecutor}[backend]
        with fault_injection(FaultInjector(FaultConfig(corrupt_p=1.0, seed=0))):
            serial = HierarchicalSolver(
                helix2_problem.hierarchy, 16, options=opts
            ).run_cycle(est)
            with make(2) as ex:
                parallel = ParallelHierarchicalSolver(
                    helix2_problem.hierarchy, 16, options=opts, executor=ex
                ).run_cycle(est)
        assert len(serial.quarantined) > 0
        assert parallel.quarantined == serial.quarantined
        assert parallel.retries == serial.retries
        assert np.array_equal(parallel.estimate.mean, serial.estimate.mean)

    def test_serial_node_records_carry_the_process_ledger(self, helix2_problem):
        """Each node's record carries its own ledger, node by node the
        same on the serial solver and the process backend."""
        est = helix2_problem.initial_estimate(0)
        opts = UpdateOptions(max_retries=1)
        with fault_injection(FaultInjector(FaultConfig(corrupt_p=1.0, seed=0))):
            serial = HierarchicalSolver(
                helix2_problem.hierarchy, 16, options=opts
            ).run_cycle(est)
            with ProcessExecutor(2) as ex:
                process = ParallelHierarchicalSolver(
                    helix2_problem.hierarchy, 16, options=opts, executor=ex
                ).run_cycle(est)
        assert [r.nid for r in serial.records] == [r.nid for r in process.records]
        for ours, theirs in zip(serial.records, process.records):
            assert ours.quarantined == theirs.quarantined
            assert ours.retries == theirs.retries
        assert all(r.quarantined for r in serial.records if r.n_batches)

    def test_clean_solve_reports_no_quarantine(self, helix2_problem):
        est = helix2_problem.initial_estimate(0)
        report = HierarchicalSolver(helix2_problem.hierarchy, 16).solve(
            est, max_cycles=2, tol=0.0
        )
        assert report.quarantine == []
        assert report.quarantined_constraints == 0


class TestFaultedSolveCompletes:
    def test_helix_solve_within_2x_rmsd_of_clean(self, helix2_problem):
        """The ISSUE acceptance scenario: crash p=0.05, NaN p=0.02, fixed seed."""
        est = helix2_problem.initial_estimate(0)
        clean = HierarchicalSolver(helix2_problem.hierarchy, 16).solve(
            est, max_cycles=3, tol=0.0
        )
        inj = FaultInjector(FaultConfig(crash_p=0.05, nan_p=0.02, seed=7))
        with fault_injection(inj):
            faulted = HierarchicalSolver(helix2_problem.hierarchy, 16).solve(
                est, max_cycles=3, tol=0.0
            )
        assert faulted.quarantined_constraints >= 0  # reported, not crashed
        rmsd_clean = clean.estimate.rmsd(helix2_problem.true_coords)
        rmsd_faulted = faulted.estimate.rmsd(helix2_problem.true_coords)
        assert rmsd_faulted <= 2.0 * rmsd_clean


class TestCheckpointResume:
    """A durable session killed by a node crash resumes bitwise."""

    @staticmethod
    def _kill_after(session, n_nodes):
        """Make the session die when it reaches its ``n_nodes``-th node."""
        solver = session.solver
        original = solver._solve_node
        seen = {"n": 0}

        def bombed(node, *args, **kwargs):
            if seen["n"] == n_nodes:
                raise WorkerCrashError("simulated kill")
            seen["n"] += 1
            return original(node, *args, **kwargs)

        solver._solve_node = bombed

    @staticmethod
    def _killed(problem, directory, cycles, kill_after) -> SolveSession:
        """Kill a durable solve at a node; return the session reloaded."""
        killed = SolveSession(problem.hierarchy, problem.constraints, store=directory)
        TestCheckpointResume._kill_after(killed, kill_after)
        with pytest.raises(WorkerCrashError):
            killed.solve(problem.initial_estimate(0), max_cycles=cycles, tol=0.0)
        return SolveSession.load(directory)

    def test_resumed_cycle_bitwise_matches_uninterrupted(self, helix2_problem, tmp_path):
        est = helix2_problem.initial_estimate(0)
        baseline = HierarchicalSolver(helix2_problem.hierarchy, 16).run_cycle(est)

        resumed = self._killed(helix2_problem, tmp_path, cycles=1, kill_after=5)
        # The five finished nodes are read back, not recomputed.
        assert len(resumed.dirty_nids) == len(helix2_problem.hierarchy) - 5
        report = resumed.solve(est, max_cycles=1, tol=0.0)
        assert np.array_equal(report.estimate.mean, baseline.estimate.mean)
        assert np.array_equal(report.estimate.covariance, baseline.estimate.covariance)

    def test_resumed_multicycle_solve_matches_uninterrupted(
        self, helix2_problem, tmp_path
    ):
        est = helix2_problem.initial_estimate(0)
        baseline = HierarchicalSolver(helix2_problem.hierarchy, 16).solve(
            est, max_cycles=3, tol=0.0
        )
        n_nodes = len(helix2_problem.hierarchy)
        resumed = self._killed(
            helix2_problem, tmp_path, cycles=3, kill_after=n_nodes + 4
        )  # dies inside cycle 2
        assert resumed.unfinished_cycle == 2
        report = resumed.solve(est, max_cycles=3, tol=0.0)
        assert np.array_equal(report.estimate.mean, baseline.estimate.mean)
        assert np.array_equal(report.estimate.covariance, baseline.estimate.covariance)
        assert report.deltas == baseline.deltas

    def test_store_guards_problem_identity(self, helix2_problem, tmp_path):
        loaded = self._killed(helix2_problem, tmp_path, cycles=2, kill_after=3)
        other = build_helix(1)
        assert not loaded.resumes(
            other.hierarchy, other.constraints,
            batch_size=16, options=UpdateOptions(), initial=other.initial_estimate(0),
        )
        assert not loaded.resumes(
            helix2_problem.hierarchy, helix2_problem.constraints,
            batch_size=16, options=UpdateOptions(),
            initial=helix2_problem.initial_estimate(1),
        )

    def test_clear_resets_directory(self, helix2_problem, tmp_path):
        session = SolveSession(
            helix2_problem.hierarchy, helix2_problem.constraints, store=tmp_path
        )
        session.solve(helix2_problem.initial_estimate(0), max_cycles=2, tol=0.0)
        # Leftovers of writes a kill cut short.
        (tmp_path / "node_0.npz.tmp.npz").write_bytes(b"torn")
        (tmp_path / "session.json.tmp").write_text("{")
        (tmp_path / "cycle_input_99.npz").write_bytes(b"orphan")
        SessionStore(tmp_path).clear()
        assert list(tmp_path.iterdir()) == []
        assert not SessionStore(tmp_path).has_manifest()


class TestInjectedFaultCounts:
    @pytest.mark.parametrize("backend", ["serial", "thread", "process"])
    def test_injected_count_matches_the_ledger(self, helix2_problem, backend):
        """Every injected Cholesky failure is counted once, on the injector
        the caller holds, whichever process drew it."""
        est = helix2_problem.initial_estimate(0)
        opts = UpdateOptions(max_retries=1)
        inj = FaultInjector(FaultConfig(chol_p=0.2, seed=3))
        with fault_injection(inj):
            if backend == "serial":
                res = HierarchicalSolver(
                    helix2_problem.hierarchy, 16, options=opts
                ).run_cycle(est)
            else:
                make = {"thread": ThreadExecutor, "process": ProcessExecutor}[backend]
                with make(2) as ex:
                    res = ParallelHierarchicalSolver(
                        helix2_problem.hierarchy, 16, options=opts, executor=ex
                    ).run_cycle(est)
        failed = sum(
            1
            for report in res.retries
            for attempt in report.attempts
            if attempt.message == "injected Cholesky factorization failure"
        )
        assert failed > 0
        assert inj.injected["chol"] == failed
        assert inj.draws["chol"] > failed


class TestCrashAbsorption:
    def test_injected_node_crashes_are_restarted(self, helix2_problem, monkeypatch):
        est = helix2_problem.initial_estimate(0)
        clean = HierarchicalSolver(helix2_problem.hierarchy, 16).run_cycle(est)
        inj = FaultInjector(FaultConfig(crash_p=0.3, seed=11))
        monkeypatch.setattr(hier_solver, "NODE_CRASH_ATTEMPTS", 10)
        with fault_injection(inj):
            res = HierarchicalSolver(helix2_problem.hierarchy, 16).run_cycle(est)
        assert inj.injected["crash"] > 0  # faults actually fired...
        # ...and node restarts erased them: results identical to clean.
        # The covariance too, so a restart from a consumed prior would fail.
        assert np.array_equal(res.estimate.mean, clean.estimate.mean)
        assert np.array_equal(res.estimate.covariance, clean.estimate.covariance)


class TestCholeskyDiagnostics:
    def test_lapack_failure_reports_condition_and_regularization(self):
        s = np.array([[1.0, 2.0], [2.0, 1.0]])  # indefinite
        with pytest.raises(NotPositiveDefiniteError) as excinfo:
            cholesky_factor(s)
        message = str(excinfo.value)
        assert "condition estimate" in message
        assert "attempted regularization 0.000e+00" in message
        assert excinfo.value.condition_estimate == pytest.approx(3.0)
        assert excinfo.value.regularization == 0.0

    def test_regularization_level_threaded_through(self):
        s = np.array([[1.0, 2.0], [2.0, 1.0]])
        with pytest.raises(NotPositiveDefiniteError) as excinfo:
            cholesky_factor(s, regularization=1e-6)
        assert excinfo.value.regularization == 1e-6
        assert "1.000e-06" in str(excinfo.value)

    def test_singular_matrix_reports_infinite_condition(self):
        s = np.zeros((2, 2))
        with pytest.raises(NotPositiveDefiniteError) as excinfo:
            cholesky_factor(s)
        assert excinfo.value.condition_estimate == float("inf")
