"""Tests for the sequential update algorithm (Figure 1)."""

from dataclasses import replace

import numpy as np
import pytest

from repro.constraints import DistanceConstraint, LinearConstraint, PositionConstraint
from repro.constraints.batch import ConstraintBatch, make_batches
from repro.core.state import StructureEstimate
from repro.core.update import UpdateOptions, apply_batch
from repro.errors import DimensionError
from repro.linalg.counters import OpCategory, recording


def prior(rng, p=3, sigma=1.0):
    return StructureEstimate.from_coords(rng.normal(0, 2, (p, 3)), sigma=sigma)


class TestLinearExactness:
    """For linear h the update is exact Bayes; closed forms must match."""

    def test_scalar_direct_observation(self, rng):
        est = prior(rng, p=1, sigma=1.0)
        z = 5.0
        c = LinearConstraint((0,), np.array([[1.0, 0, 0]]), np.array([z]), np.array([1.0]))
        post = apply_batch(est, ConstraintBatch((c,)))
        # Kalman scalar: posterior mean = (prior/1 + z/1) / (1/1 + 1/1)
        expected = (est.mean[0] + z) / 2.0
        assert post.mean[0] == pytest.approx(expected)
        assert post.covariance[0, 0] == pytest.approx(0.5)

    def test_posterior_matches_information_form(self, rng):
        est = prior(rng, p=2, sigma=2.0)
        a = rng.normal(size=(3, 6))
        z = rng.normal(size=3)
        c = LinearConstraint((0, 1), a, z, np.full(3, 0.5))
        post = apply_batch(est, ConstraintBatch((c,)))
        lam0 = np.linalg.inv(est.covariance)
        lam = lam0 + a.T @ np.diag(1 / c.variance) @ a
        cov = np.linalg.inv(lam)
        mean = cov @ (lam0 @ est.mean + a.T @ (z / c.variance))
        assert np.allclose(post.covariance, cov, atol=1e-10)
        assert np.allclose(post.mean, mean, atol=1e-10)

    def test_order_independence_linear(self, rng):
        est = prior(rng, p=2)
        cons = []
        for _ in range(4):
            a = rng.normal(size=(1, 6))
            cons.append(
                LinearConstraint((0, 1), a, rng.normal(size=1), np.array([0.3]))
            )
        out1 = est
        for b in make_batches(cons, 1):
            out1 = apply_batch(out1, b)
        out2 = est
        for b in make_batches(list(reversed(cons)), 1):
            out2 = apply_batch(out2, b)
        assert np.allclose(out1.mean, out2.mean, atol=1e-9)
        assert np.allclose(out1.covariance, out2.covariance, atol=1e-9)

    def test_batching_invariance_linear(self, rng):
        """One batch of m rows == m batches of 1 row, for linear h."""
        est = prior(rng, p=2)
        cons = []
        for _ in range(4):
            a = rng.normal(size=(1, 6))
            cons.append(LinearConstraint((0, 1), a, rng.normal(size=1), np.array([0.3])))
        one = apply_batch(est, ConstraintBatch(tuple(cons)))
        seq = est
        for b in make_batches(cons, 1):
            seq = apply_batch(seq, b)
        assert np.allclose(one.mean, seq.mean, atol=1e-9)
        assert np.allclose(one.covariance, seq.covariance, atol=1e-9)


class TestCovarianceProperties:
    def test_posterior_cov_symmetric(self, rng):
        est = prior(rng)
        c = DistanceConstraint(0, 1, 2.0, 0.1)
        post = apply_batch(est, ConstraintBatch((c,)))
        assert np.allclose(post.covariance, post.covariance.T)

    def test_variance_never_increases_on_observed(self, rng):
        est = prior(rng)
        c = PositionConstraint(1, np.zeros(3), 0.5)
        post = apply_batch(est, ConstraintBatch((c,)))
        assert np.all(np.diag(post.covariance) <= np.diag(est.covariance) + 1e-12)

    def test_unobserved_atoms_untouched(self, rng):
        """Locality: a constraint on atoms {0,1} of an uncorrelated prior
        must leave atom 2's estimate exactly alone (the §3 key fact)."""
        est = prior(rng)
        c = DistanceConstraint(0, 1, 2.0, 0.1)
        post = apply_batch(est, ConstraintBatch((c,)))
        assert np.allclose(post.mean[6:9], est.mean[6:9])
        assert np.allclose(post.covariance[6:9, 6:9], est.covariance[6:9, 6:9])
        assert np.allclose(post.covariance[:6, 6:9], 0.0)

    def test_correlated_prior_spreads_update(self, rng):
        """Once atoms are correlated, a local constraint moves both."""
        est = prior(rng, p=2)
        tie = LinearConstraint(
            (0, 1),
            np.array([[1.0, 0, 0, -1, 0, 0]]),
            np.array([0.0]),
            np.array([0.01]),
        )
        est = apply_batch(est, ConstraintBatch((tie,)))
        before = est.mean.copy()
        obs = LinearConstraint((0,), np.array([[1.0, 0, 0]]), np.array([9.0]), np.array([0.01]))
        post = apply_batch(est, ConstraintBatch((obs,)))
        assert abs(post.mean[3] - before[3]) > 1e-3  # atom 1 x moved too

    def test_joseph_matches_standard_linear(self, rng):
        est = prior(rng, p=2)
        a = rng.normal(size=(2, 6))
        c = LinearConstraint((0, 1), a, rng.normal(size=2), np.full(2, 0.5))
        std = apply_batch(est, ConstraintBatch((c,)))
        jos = apply_batch(est, ConstraintBatch((c,)), options=UpdateOptions(joseph=True))
        assert np.allclose(std.covariance, jos.covariance, atol=1e-9)
        assert np.allclose(std.mean, jos.mean, atol=1e-9)


class TestNonlinear:
    def test_distance_update_moves_toward_target(self, rng):
        coords = np.array([[0.0, 0, 0], [1.0, 0, 0]])
        est = StructureEstimate.from_coords(coords, sigma=1.0)
        c = DistanceConstraint(0, 1, 3.0, 0.01)
        post = apply_batch(est, ConstraintBatch((c,)))
        new_d = np.linalg.norm(post.coords[0] - post.coords[1])
        assert new_d > 1.5  # moved strongly toward 3.0

    def test_local_iterations_improve_nonlinear_fit(self, rng):
        coords = np.array([[0.0, 0, 0], [1.0, 0, 0]])
        est = StructureEstimate.from_coords(coords, sigma=2.0)
        c = DistanceConstraint(0, 1, 4.0, 0.001)
        batch = ConstraintBatch((c,))
        one = apply_batch(est, batch, options=UpdateOptions(local_iterations=1))
        three = apply_batch(est, batch, options=UpdateOptions(local_iterations=3))
        err1 = abs(np.linalg.norm(one.coords[0] - one.coords[1]) - 4.0)
        err3 = abs(np.linalg.norm(three.coords[0] - three.coords[1]) - 4.0)
        assert err3 <= err1 + 1e-9

    def test_invalid_local_iterations(self, rng):
        est = prior(rng)
        c = DistanceConstraint(0, 1, 2.0, 0.1)
        with pytest.raises(DimensionError):
            apply_batch(est, ConstraintBatch((c,)), options=UpdateOptions(local_iterations=0))

    @pytest.mark.parametrize(
        "bad",
        [{"local_iterations": 0}, {"noise_scale": 0.0}, {"kernel_impl": "fast"}],
    )
    def test_options_validated_at_construction(self, bad):
        with pytest.raises(DimensionError):
            UpdateOptions(**bad)
        with pytest.raises(DimensionError):
            replace(UpdateOptions(), **bad)


class TestLocalColumnMap:
    def test_local_state_update_matches_global(self, rng):
        """Updating a 2-atom local estimate must equal the corresponding
        block of updating the global estimate (uncorrelated prior)."""
        coords = rng.normal(0, 2, (4, 3))
        global_est = StructureEstimate.from_coords(coords, sigma=1.0)
        c = DistanceConstraint(1, 2, 2.5, 0.1)
        global_post = apply_batch(global_est, ConstraintBatch((c,)))
        atoms = np.array([1, 2])
        local = global_est.extract_atoms(atoms)
        cmap = np.full(4, -1, dtype=np.int64)
        cmap[1], cmap[2] = 0, 1
        local_post = apply_batch(local, ConstraintBatch((c,)), atom_to_column=cmap)
        assert np.allclose(local_post.mean, global_post.extract_atoms(atoms).mean, atol=1e-12)
        assert np.allclose(
            local_post.covariance, global_post.extract_atoms(atoms).covariance, atol=1e-12
        )


class TestEventStream:
    def test_all_six_categories_emitted(self, rng):
        est = prior(rng)
        c = DistanceConstraint(0, 1, 2.0, 0.1)
        with recording() as rec:
            apply_batch(est, ConstraintBatch((c,)))
        cats = {e.category for e in rec.events}
        assert cats == set(OpCategory)

    def test_mm_flops_dominant_for_large_state(self, rng):
        est = prior(rng, p=30)
        cons = [DistanceConstraint(i, i + 1, 2.0, 0.1) for i in range(8)]
        with recording() as rec:
            apply_batch(est, ConstraintBatch(tuple(cons)))
        by = rec.flops_by_category()
        assert by[OpCategory.MATMAT] == max(by.values())


class TestIllConditioning:
    def test_duplicate_constraints_converge_via_backoff(self):
        """Regression: many duplicated near-exact distance constraints drive
        the innovation covariance toward singularity; the escalating
        regularization retry must absorb the failure instead of raising
        NotPositiveDefiniteError."""
        est = StructureEstimate.from_coords(
            np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0]]), sigma=1.0
        )
        duplicates = tuple(DistanceConstraint(0, 1, 2.0, 1e-18) for _ in range(8))
        log = []
        post = apply_batch(est, ConstraintBatch(duplicates), retry_log=log)
        assert np.all(np.isfinite(post.mean))
        assert np.all(np.isfinite(post.covariance))
        d = float(np.linalg.norm(post.coords[1] - post.coords[0]))
        assert d == pytest.approx(2.0, abs=1e-6)
        # any retries that happened must have ended in success
        assert all(r.succeeded for r in log)

    def test_duplicate_constraints_fail_without_retries(self):
        """The same batch with retries disabled shows why they exist."""
        from repro.errors import NotPositiveDefiniteError

        est = StructureEstimate.from_coords(
            np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0]]), sigma=1.0
        )
        duplicates = tuple(DistanceConstraint(0, 1, 2.0, 1e-18) for _ in range(8))
        with pytest.raises(NotPositiveDefiniteError):
            apply_batch(
                est, ConstraintBatch(duplicates), options=UpdateOptions(jitter=0.0)
            )
