"""Shared-memory estimate plane: lifetime, wire size and crash recovery.

The acceptance bar for the comms layer: with a pickling backend, the
per-node task payload is O(handle) bytes instead of O(n²); segments are
owned (created and unlinked) solely by the dispatching process; the
dispatcher builds no prior and reads only the root's posterior; and the
plane survives the process pool being torn down and rebuilt mid-cycle,
so a resubmitted task re-reads its intact prior.
"""

import glob
import pickle

import numpy as np
import pytest

from repro import obs
from repro.core.hier_solver import HierarchicalSolver
from repro.core.hierarchy import assign_constraints
from repro.core.state import StructureEstimate
from repro.core.update import UpdateOptions
from repro.faults import FaultConfig, FaultInjector, fault_injection
from repro.parallel import (
    ParallelHierarchicalSolver,
    ProcessExecutor,
    SerialExecutor,
    SharedEstimatePlane,
)
from repro.parallel.scheduler import _NodeTask
from repro.parallel.shm import posterior_views, read_prior, write_posterior


@pytest.fixture
def assigned(two_group_problem):
    """(hierarchy, estimate) with constraints assigned to the tree."""
    _, constraints, hierarchy, estimate = two_group_problem
    assign_constraints(hierarchy, constraints)
    return hierarchy, estimate


def _estimate(rng, n_atoms):
    a = rng.normal(0, 1, (3 * n_atoms, 3 * n_atoms))
    return StructureEstimate(
        rng.normal(0, 1, 3 * n_atoms), a @ a.T / (3 * n_atoms) + np.eye(3 * n_atoms)
    )


def _shm_entries():
    return set(glob.glob("/dev/shm/psm_*"))


def _put(plane, est):
    """A fresh segment holding ``est`` as its prior."""
    handle = plane.claim(0, est.dim)
    plane.put_prior(est, handle)
    return handle


# ------------------------------------------------------------------ lifetime
class TestPlaneLifetime:
    def test_prior_roundtrip(self, rng):
        est = _estimate(rng, 5)
        with SharedEstimatePlane() as plane:
            handle = _put(plane, est)
            got = read_prior(handle)
            assert np.array_equal(got.mean, est.mean)
            assert np.array_equal(got.covariance, est.covariance)

    def test_posterior_roundtrip(self, rng):
        prior, post = _estimate(rng, 4), _estimate(rng, 4)
        with SharedEstimatePlane() as plane:
            handle = _put(plane, prior)
            write_posterior(handle, post)
            got = plane.read_posterior(handle)
            assert np.array_equal(got.mean, post.mean)
            assert np.array_equal(got.covariance, post.covariance)
            # the prior slot is untouched by posterior writes
            again = read_prior(handle)
            assert np.array_equal(again.mean, prior.mean)

    def test_posterior_dim_mismatch_rejected(self, rng):
        with SharedEstimatePlane() as plane:
            handle = _put(plane, _estimate(rng, 3))
            with pytest.raises(ValueError, match="state dim"):
                write_posterior(handle, _estimate(rng, 4))

    def test_resubmitted_write_overwrites_cleanly(self, rng):
        """Crash recovery rewrites the posterior slot; last write wins."""
        first, second = _estimate(rng, 3), _estimate(rng, 3)
        with SharedEstimatePlane() as plane:
            handle = _put(plane, first)
            write_posterior(handle, first)
            write_posterior(handle, second)
            got = plane.read_posterior(handle)
            assert np.array_equal(got.covariance, second.covariance)

    def test_release_is_idempotent(self, rng):
        plane = SharedEstimatePlane()
        handle = _put(plane, _estimate(rng, 2))
        assert len(plane) == 1
        plane.release(handle)
        plane.release(handle)  # second release is a no-op
        assert len(plane) == 0
        plane.close()

    def test_close_is_idempotent_and_releases_all(self, rng):
        before = _shm_entries()
        plane = SharedEstimatePlane()
        for _ in range(3):
            _put(plane, _estimate(rng, 2))
        assert plane.nbytes() == 3 * 8 * (2 * 6 + 2 * 36)
        plane.close()
        plane.close()
        assert len(plane) == 0 and plane.nbytes() == 0
        assert _shm_entries() == before

    def test_cycle_leaves_no_segments_behind(self, assigned):
        hierarchy, estimate = assigned
        before = _shm_entries()
        with ProcessExecutor(2) as ex:
            solver = ParallelHierarchicalSolver(
                hierarchy, batch_size=8, executor=ex
            )
            solver.run_cycle(estimate)
        assert _shm_entries() == before


class TestWorkerBuiltPriors:
    def test_posterior_views_read_child_slots_in_place(self, rng):
        """A parent's prior is the block-diagonal of its children's
        posterior slots, the same bits as from in-process posteriors."""
        posts = [_estimate(rng, 2), _estimate(rng, 3)]
        with SharedEstimatePlane() as plane:
            handles = []
            for nid, post in enumerate(posts):
                handle = plane.claim(nid, post.dim)
                write_posterior(handle, post)
                handles.append(handle)
            with posterior_views([handles[0], posts[1]]) as parts:
                built = StructureEstimate.block_diagonal(parts)
            assert parts == []  # views dropped, so the mappings closed
        expect = StructureEstimate.block_diagonal(posts)
        assert np.array_equal(built.mean, expect.mean)
        assert np.array_equal(built.covariance, expect.covariance)

    def test_dispatcher_reads_the_root_only_and_builds_no_prior(
        self, assigned, monkeypatch
    ):
        """In the dispatching process a process cycle copies one posterior
        out of shared memory (the root's) and assembles no block-diagonal
        prior: workers build parents' priors from their children's
        segments."""
        hierarchy, estimate = assigned
        serial = HierarchicalSolver(hierarchy, batch_size=8).run_cycle(estimate)
        reads, assemblies = [], []
        read_posterior = SharedEstimatePlane.read_posterior
        block_diagonal = StructureEstimate.block_diagonal

        def spy_read(plane, handle):
            reads.append(handle)
            return read_posterior(plane, handle)

        def spy_assemble(parts):
            assemblies.append(len(parts))
            return block_diagonal(parts)

        monkeypatch.setattr(SharedEstimatePlane, "read_posterior", spy_read)
        monkeypatch.setattr(
            StructureEstimate, "block_diagonal", staticmethod(spy_assemble)
        )
        with ProcessExecutor(2) as ex:
            result = ParallelHierarchicalSolver(
                hierarchy, batch_size=8, executor=ex
            ).run_cycle(estimate)
        assert len(reads) == 1
        assert reads[0].n_state == hierarchy.root.state_dim
        assert assemblies == []
        assert np.array_equal(result.estimate.mean, serial.estimate.mean)
        assert np.array_equal(result.estimate.covariance, serial.estimate.covariance)


# ------------------------------------------------------------------ wire size
class TestWireSize:
    def test_handle_pickles_small(self, rng):
        with SharedEstimatePlane() as plane:
            handle = _put(plane, _estimate(rng, 170))  # helix4 scale, n=510
            assert len(pickle.dumps(handle)) < 256

    def test_task_payload_is_o_handle_not_o_n_squared(self, rng):
        """The pickled task must not scale with the covariance size."""
        est = _estimate(rng, 86)  # n=258: covariance alone is 532 KB
        dense = _NodeTask(
            nid=0,
            attrs={"nid": 0, "state_dim": est.dim, "batch_size": 16},
            constraints=[],
            column_map=np.arange(86),
            options=UpdateOptions(),
            prior=est,
        )
        with SharedEstimatePlane() as plane:
            slim = _NodeTask(
                nid=0,
                attrs={"nid": 0, "state_dim": est.dim, "batch_size": 16},
                constraints=[],
                column_map=np.arange(86),
                options=UpdateOptions(),
                handle=_put(plane, est),
            )
            n = est.mean.shape[0]
            assert len(pickle.dumps(dense)) > 8 * n * n
            assert len(pickle.dumps(slim)) < 4096

    @pytest.mark.parametrize("n_atoms", [2, 86, 300])
    def test_parent_task_carries_child_handles_only(self, n_atoms):
        """A parent's sources are its children's segment handles: its task
        pickles to the same few bytes whatever the state dimension."""
        with SharedEstimatePlane() as plane:
            children = tuple(plane.claim(nid, 3 * n_atoms) for nid in (1, 2))
            parent = _NodeTask(
                nid=0,
                attrs={"nid": 0, "state_dim": 6 * n_atoms, "batch_size": 16},
                constraints=[],
                column_map=np.arange(86),
                options=UpdateOptions(),
                children=children,
                handle=plane.claim(0, 6 * n_atoms),
            )
            assert len(pickle.dumps(parent)) < 4096

    def test_plane_active_for_process_backend_by_default(self, assigned):
        hierarchy, estimate = assigned

        def segments_created(executor) -> float:
            registry = obs.MetricsRegistry()
            with executor, obs.metrics_scope(registry):
                ParallelHierarchicalSolver(
                    hierarchy, batch_size=8, executor=executor
                ).run_cycle(estimate)
            return registry.snapshot()["counters"].get("shm.segments_created", 0)

        assert segments_created(ProcessExecutor(2)) > 0
        assert segments_created(SerialExecutor()) == 0

    def test_segment_metrics_balance(self, assigned):
        """Every created segment is released by cycle end (obs counters)."""
        hierarchy, estimate = assigned
        registry = obs.MetricsRegistry()
        with ProcessExecutor(2) as ex, obs.metrics_scope(registry):
            result = ParallelHierarchicalSolver(
                hierarchy, batch_size=8, executor=ex
            ).run_cycle(estimate)
        counters = registry.snapshot()["counters"]
        assert counters["shm.segments_created"] == 3  # two leaves + root
        assert counters["shm.segments_created"] == counters["shm.segments_released"]
        assert counters["shm.bytes_allocated"] > 0
        # and the plane changes nothing numerically
        plain = HierarchicalSolver(hierarchy, batch_size=8).run_cycle(estimate)
        assert np.array_equal(result.estimate.mean, plain.estimate.mean)
        assert np.array_equal(result.estimate.covariance, plain.estimate.covariance)


# ------------------------------------------------------------- crash recovery
class TestCrashRecoveryWithPlane:
    def test_soft_crashes_absorbed(self, assigned):
        """crash_p=1.0 raise-mode: every node dies once, then succeeds."""
        hierarchy, estimate = assigned
        serial = HierarchicalSolver(hierarchy, batch_size=8).run_cycle(estimate)
        inj = FaultInjector(FaultConfig(crash_p=1.0, seed=0))
        registry = obs.MetricsRegistry()
        with ProcessExecutor(2) as ex:
            solver = ParallelHierarchicalSolver(
                hierarchy, batch_size=8, executor=ex
            )
            with fault_injection(inj), obs.metrics_scope(registry):
                result = solver.run_cycle(estimate)
        assert np.array_equal(result.estimate.mean, serial.estimate.mean)
        assert np.array_equal(result.estimate.covariance, serial.estimate.covariance)
        counters = registry.snapshot()["counters"]
        assert counters["executor.tasks_resubmitted"] >= 3
        assert counters["shm.segments_created"] == counters["shm.segments_released"]

    def test_plane_survives_pool_rebuild(self, assigned):
        """Hard-kill mode breaks the pool; rebuilt workers re-read intact
        priors from the same named segments and the solve completes."""
        hierarchy, estimate = assigned
        serial = HierarchicalSolver(hierarchy, batch_size=8).run_cycle(estimate)
        before = _shm_entries()
        inj = FaultInjector(FaultConfig(crash_p=0.5, crash_mode="kill", seed=7))
        registry = obs.MetricsRegistry()
        with ProcessExecutor(2) as ex:
            solver = ParallelHierarchicalSolver(
                hierarchy, batch_size=8, executor=ex
            )
            with fault_injection(inj), obs.metrics_scope(registry):
                result = solver.run_cycle(estimate)
        assert np.array_equal(result.estimate.mean, serial.estimate.mean)
        assert np.array_equal(result.estimate.covariance, serial.estimate.covariance)
        counters = registry.snapshot()["counters"]
        if counters.get("executor.pool_rebuilds", 0):
            # the rebuild path actually ran and still balanced the books
            assert counters["shm.segments_created"] == counters[
                "shm.segments_released"
            ]
        assert _shm_entries() == before
