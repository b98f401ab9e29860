"""Tests for the real parallel runtime and the dynamic scheduling extension."""

import numpy as np
import pytest

from repro.core.hier_solver import HierarchicalSolver
from repro.errors import SimulationError
from repro.machine import DASH, simulate_solve, uniform_machine
from repro.parallel import (
    ParallelHierarchicalSolver,
    ProcessExecutor,
    SerialExecutor,
    ThreadExecutor,
)
from repro.machine.simulator import _largest_remainder, dynamic_assignment_schedule


class TestExecutors:
    def test_serial_submit(self):
        future = SerialExecutor().submit(lambda x: x * 2, 3)
        assert future.done() and future.result() == 6

    def test_thread_submit_resolves_each_future(self):
        with ThreadExecutor(4) as ex:
            futures = [ex.submit(lambda x: x * x, x) for x in range(20)]
            assert [f.result() for f in futures] == [x * x for x in range(20)]

    def test_thread_invalid_workers(self):
        with pytest.raises(ValueError):
            ThreadExecutor(0)

    def test_process_invalid_workers(self):
        with pytest.raises(ValueError):
            ProcessExecutor(0)

    def test_context_manager_closes(self):
        ex = ThreadExecutor(2)
        with ex:
            pass
        # pool is shut down; further submissions fail
        with pytest.raises(RuntimeError):
            ex.submit(lambda x: x, 1)


class TestParallelSolver:
    def test_wavefronts_partition_nodes(self, helix2_problem):
        solver = ParallelHierarchicalSolver(helix2_problem.hierarchy)
        fronts = solver.wavefronts()
        ids = [n.nid for front in fronts for n in front]
        assert sorted(ids) == [n.nid for n in helix2_problem.hierarchy.post_order()]
        assert all(n.is_leaf for n in fronts[0])
        assert fronts[-1] == [helix2_problem.hierarchy.root]

    def test_wavefront_independence(self, helix2_problem):
        """No node may appear in the same front as one of its ancestors."""
        solver = ParallelHierarchicalSolver(helix2_problem.hierarchy)
        for front in solver.wavefronts():
            ids = {n.nid for n in front}
            for node in front:
                p = node.parent
                while p is not None:
                    assert p.nid not in ids
                    p = p.parent

    def test_inline_matches_serial_solver(self, helix2_problem):
        est = helix2_problem.initial_estimate(0)
        serial = HierarchicalSolver(helix2_problem.hierarchy, batch_size=16).run_cycle(est)
        par = ParallelHierarchicalSolver(helix2_problem.hierarchy, batch_size=16).run_cycle(est)
        assert np.array_equal(serial.estimate.mean, par.estimate.mean)
        assert np.array_equal(serial.estimate.covariance, par.estimate.covariance)

    def test_threads_match_serial_solver(self, helix2_problem):
        est = helix2_problem.initial_estimate(0)
        serial = HierarchicalSolver(helix2_problem.hierarchy, batch_size=16).run_cycle(est)
        with ThreadExecutor(4) as ex:
            par = ParallelHierarchicalSolver(
                helix2_problem.hierarchy, batch_size=16, executor=ex
            ).run_cycle(est)
        assert np.array_equal(serial.estimate.mean, par.estimate.mean)

    def test_records_complete_and_tagged(self, helix2_problem):
        est = helix2_problem.initial_estimate(0)
        res = ParallelHierarchicalSolver(helix2_problem.hierarchy, batch_size=16).run_cycle(est)
        assert {r.nid for r in res.records} == {
            n.nid for n in helix2_problem.hierarchy.nodes
        }
        for r in res.records:
            assert all(e.tag == r.nid for e in r.events)

    def test_simulator_accepts_parallel_records(self, helix2_problem):
        est = helix2_problem.initial_estimate(0)
        cycle = ParallelHierarchicalSolver(helix2_problem.hierarchy, batch_size=16).run_cycle(est)
        res = simulate_solve(cycle, helix2_problem.hierarchy, DASH(), 4)
        assert res.work_time > 0


class TestDynamicSchedule:
    @pytest.fixture(scope="class")
    def helix4_records(self):
        from repro.molecules.rna import build_helix

        p = build_helix(4)
        p.assign()
        cycle = HierarchicalSolver(p.hierarchy, batch_size=16).run_cycle(
            p.initial_estimate(0)
        )
        return p, cycle

    def test_single_processor_matches_static_total(self, helix4_records):
        p, cycle = helix4_records
        cfg = uniform_machine(1, flops=1e9)
        dyn = dynamic_assignment_schedule(p.hierarchy, cycle.record_by_nid(), cfg, 1, 0.0)
        stat = simulate_solve(cycle, p.hierarchy, cfg, 1)
        assert dyn.work_time == pytest.approx(stat.work_time, rel=1e-9)

    def test_never_much_worse_than_static(self, helix4_records):
        p, cycle = helix4_records
        recs = cycle.record_by_nid()
        for n in (2, 3, 5, 6, 7):
            dyn = dynamic_assignment_schedule(p.hierarchy, recs, DASH(), n, 0.0)
            stat = simulate_solve(cycle, p.hierarchy, DASH(), n)
            assert dyn.work_time <= stat.work_time * 1.25

    def test_helps_at_non_power_of_two(self, helix4_records):
        p, cycle = helix4_records
        recs = cycle.record_by_nid()
        improved = 0
        for n in (3, 5, 6, 7):
            dyn = dynamic_assignment_schedule(p.hierarchy, recs, DASH(), n, 0.0)
            stat = simulate_solve(cycle, p.hierarchy, DASH(), n)
            if dyn.work_time < stat.work_time * 0.999:
                improved += 1
        assert improved >= 1

    def test_sync_cost_charged_per_epoch(self, helix4_records):
        p, cycle = helix4_records
        recs = cycle.record_by_nid()
        cfg = uniform_machine(4, flops=1e9)
        free = dynamic_assignment_schedule(p.hierarchy, recs, cfg, 4, 0.0)
        costly = dynamic_assignment_schedule(p.hierarchy, recs, cfg, 4, 1.0)
        n_epochs = p.hierarchy.height() + 1
        assert costly.work_time == pytest.approx(free.work_time + n_epochs, rel=1e-6)

    def test_invalid_processors(self, helix4_records):
        p, cycle = helix4_records
        with pytest.raises(SimulationError):
            dynamic_assignment_schedule(p.hierarchy, cycle.record_by_nid(), DASH(), 0)
        with pytest.raises(SimulationError):
            dynamic_assignment_schedule(p.hierarchy, cycle.record_by_nid(), DASH(), 33)

    def test_missing_record(self, helix4_records):
        p, _ = helix4_records
        with pytest.raises(SimulationError, match="record"):
            dynamic_assignment_schedule(p.hierarchy, {}, DASH(), 2)


class TestLargestRemainder:
    def test_proportional(self):
        assert _largest_remainder([1.0, 3.0], 4) == [1, 3]

    def test_minimum_one_each(self):
        shares = _largest_remainder([0.0, 100.0], 4)
        assert shares[0] >= 1 and sum(shares) == 4

    def test_zero_work_even_split(self):
        assert sorted(_largest_remainder([0.0, 0.0, 0.0], 5)) == [1, 2, 2]

    def test_sum_invariant(self):
        for p in range(3, 12):
            shares = _largest_remainder([5.0, 1.0, 2.0], p)
            assert sum(shares) == p
            assert all(s >= 1 for s in shares)

    def test_too_many_nodes_rejected(self):
        with pytest.raises(SimulationError):
            _largest_remainder([1.0, 1.0, 1.0], 2)


class TestProcessExecutor:
    def test_process_pool_matches_serial(self, helix2_problem):
        """Full cross-process round trip: tasks pickle, results match."""
        est = helix2_problem.initial_estimate(0)
        serial = HierarchicalSolver(helix2_problem.hierarchy, batch_size=16).run_cycle(est)
        with ProcessExecutor(2) as ex:
            par = ParallelHierarchicalSolver(
                helix2_problem.hierarchy, batch_size=16, executor=ex
            ).run_cycle(est)
        assert np.allclose(serial.estimate.mean, par.estimate.mean, atol=0, rtol=0)
        assert np.allclose(
            serial.estimate.covariance, par.estimate.covariance, atol=0, rtol=0
        )

    def test_plain_submit(self):
        with ProcessExecutor(2) as ex:
            futures = [ex.submit(abs, x) for x in (-1, -2, 3)]
            assert [f.result() for f in futures] == [1, 2, 3]
