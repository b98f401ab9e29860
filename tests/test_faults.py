"""Deterministic failure-mode tests for the robustness layer.

Covers: fault-schedule determinism, retry-backoff escalation, quarantine
accounting, checkpoint/resume equivalence, and the enriched Cholesky
failure diagnostics.
"""

import numpy as np
import pytest

from repro.constraints import DistanceConstraint, PositionConstraint
from repro.constraints.batch import ConstraintBatch
from repro.core.hier_solver import HierarchicalSolver
from repro.core.state import StructureEstimate
from repro.core.update import UpdateOptions, apply_batch
from repro.errors import (
    BatchUpdateError,
    CheckpointError,
    NotPositiveDefiniteError,
    WorkerCrashError,
)
from repro.faults import (
    CheckpointManager,
    FaultConfig,
    FaultInjector,
    current_injector,
    fault_injection,
)
from repro.linalg.cholesky import cholesky_factor
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
    @staticmethod
    def _kill_after(solver, n_nodes):
        """Make the solver die when it reaches its ``n_nodes``-th node."""
        original = solver._compute_node
        seen = {"n": 0}

        def bombed(node, prior, opts, quarantined, retries):
            if seen["n"] == n_nodes:
                raise WorkerCrashError("simulated kill")
            seen["n"] += 1
            return original(node, prior, opts, quarantined, retries)

        solver._compute_node = bombed

    def test_resumed_cycle_bitwise_matches_uninterrupted(self, helix2_problem, tmp_path):
        est = helix2_problem.initial_estimate(0)
        baseline = HierarchicalSolver(helix2_problem.hierarchy, 16).run_cycle(est)

        killed = HierarchicalSolver(
            helix2_problem.hierarchy, 16, checkpoint=CheckpointManager(tmp_path)
        )
        self._kill_after(killed, 5)
        with pytest.raises(WorkerCrashError):
            killed.run_cycle(est)

        resumed = HierarchicalSolver(
            helix2_problem.hierarchy, 16, checkpoint=CheckpointManager(tmp_path)
        )
        res = resumed.run_cycle(est)
        assert res.nodes_resumed == 5
        assert np.array_equal(res.estimate.mean, baseline.estimate.mean)
        assert np.array_equal(res.estimate.covariance, baseline.estimate.covariance)

    def test_resumed_multicycle_solve_matches_uninterrupted(
        self, helix2_problem, tmp_path
    ):
        est = helix2_problem.initial_estimate(0)
        baseline = HierarchicalSolver(helix2_problem.hierarchy, 16).solve(
            est, max_cycles=3, tol=0.0
        )

        killed = HierarchicalSolver(
            helix2_problem.hierarchy, 16, checkpoint=CheckpointManager(tmp_path)
        )
        n_nodes = len(helix2_problem.hierarchy)
        self._kill_after(killed, n_nodes + 4)  # dies inside cycle 2
        with pytest.raises(WorkerCrashError):
            killed.solve(est, max_cycles=3, tol=0.0)

        resumed = HierarchicalSolver(
            helix2_problem.hierarchy, 16, checkpoint=CheckpointManager(tmp_path)
        )
        report = resumed.solve(est, max_cycles=3, tol=0.0)
        assert np.array_equal(report.estimate.mean, baseline.estimate.mean)
        assert np.array_equal(report.estimate.covariance, baseline.estimate.covariance)
        assert report.deltas == pytest.approx(baseline.deltas)

    def test_checkpoint_directory_guards_problem_identity(self, helix2_problem, tmp_path):
        ck = CheckpointManager(tmp_path)
        ck.bind(helix2_problem.n_atoms)
        with pytest.raises(CheckpointError, match="belongs to"):
            CheckpointManager(tmp_path).bind(helix2_problem.n_atoms + 1)

    def test_clear_resets_directory(self, helix2_problem, tmp_path):
        est = helix2_problem.initial_estimate(0)
        solver = HierarchicalSolver(
            helix2_problem.hierarchy, 16, checkpoint=CheckpointManager(tmp_path)
        )
        solver.run_cycle(est)
        ck = CheckpointManager(tmp_path)
        assert ck.completed_cycle_estimate(0) is not None
        ck.clear()
        assert CheckpointManager(tmp_path).completed_cycle_estimate(0) is None


class TestCrashAbsorption:
    def test_injected_node_crashes_are_restarted(self, helix2_problem):
        est = helix2_problem.initial_estimate(0)
        clean = HierarchicalSolver(helix2_problem.hierarchy, 16).run_cycle(est)
        inj = FaultInjector(FaultConfig(crash_p=0.3, seed=11))
        with fault_injection(inj):
            res = HierarchicalSolver(
                helix2_problem.hierarchy, 16, node_crash_attempts=10
            ).run_cycle(est)
        assert inj.injected["crash"] > 0  # faults actually fired...
        # ...and node restarts erased them: results identical to clean.
        assert np.array_equal(res.estimate.mean, clean.estimate.mean)


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

    def test_blocked_failure_keeps_panel_index_and_adds_diagnostics(self):
        s = np.diag([1.0, 1.0, -1.0, 1.0])
        with pytest.raises(NotPositiveDefiniteError) as excinfo:
            cholesky_factor(s, block=1)
        message = str(excinfo.value)
        assert "panel at 2" in message
        assert "condition estimate" in message
        assert "attempted regularization" in message

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
