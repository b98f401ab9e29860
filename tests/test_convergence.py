"""Tests for the convergence loop and its diagnostics."""

from types import SimpleNamespace

import numpy as np
import pytest

from repro.core.convergence import ConvergenceReport, iterate_to_convergence
from repro.core.state import StructureEstimate
from repro.errors import ConvergenceError


def make_estimate(value=0.0):
    return StructureEstimate.from_coords(np.full((1, 3), value), sigma=1.0)


def outcome(estimate, quarantined=(), retries=()):
    """A cycle result as the solvers return it."""
    return SimpleNamespace(estimate=estimate, quarantined=quarantined, retries=retries)


def stepping(step):
    """A cycle callback whose new mean is ``step(start.mean, cycle)``."""

    def cycle(start, k, deltas):
        new = start.copy()
        new.mean[:] = step(start.mean, k)
        return outcome(new)

    return cycle


class TestIterateToConvergence:
    def test_contraction_converges(self):
        """A cycle halving the mean's distance to 1 must converge to 1."""
        cycle = stepping(lambda x, k: 1.0 + 0.5 * (x - 1.0))
        report = iterate_to_convergence(cycle, make_estimate(0.0), max_cycles=60, tol=1e-8)
        assert report.converged
        assert np.allclose(report.estimate.mean, 1.0, atol=1e-6)

    def test_deltas_monotone_for_contraction(self):
        cycle = stepping(lambda x, k: 0.5 * x)
        report = iterate_to_convergence(cycle, make_estimate(8.0), max_cycles=30, tol=1e-10)
        assert all(b <= a for a, b in zip(report.deltas, report.deltas[1:]))

    def test_identity_converges_immediately(self):
        report = iterate_to_convergence(
            lambda e, k, d: outcome(e.copy()), make_estimate(), max_cycles=5
        )
        assert report.converged
        assert report.cycles == 1

    def test_non_convergence_reported(self):
        cycle = stepping(lambda x, k: x + 1.0)
        report = iterate_to_convergence(cycle, make_estimate(), max_cycles=3, tol=1e-9)
        assert not report.converged
        assert report.cycles == 3
        assert len(report.deltas) == 3

    def test_invalid_max_cycles(self):
        with pytest.raises(ConvergenceError):
            iterate_to_convergence(lambda e, k, d: outcome(e), make_estimate(), max_cycles=0)

    def test_covariance_reset_restores_prior(self):
        """Every cycle must see the prior covariance."""
        prior_var = 4.0
        est = StructureEstimate.from_coords(np.zeros((1, 3)), sigma=np.sqrt(prior_var))
        seen = []

        def cycle(e, k, deltas):
            seen.append(float(e.covariance[0, 0]))
            new = e.copy()
            new.covariance[:] *= 0.01  # pretend the cycle collapsed it
            new.mean[:] = e.mean + 1.0 / (len(seen) ** 2)
            return outcome(new)

        iterate_to_convergence(cycle, est, max_cycles=4, tol=1e-9)
        assert all(v == pytest.approx(prior_var) for v in seen)

    def test_cycles_share_one_private_prior_covariance(self):
        """One copy of the caller's covariance per solve, shared by every
        cycle's start; the caller's array is neither aliased nor written."""
        est = StructureEstimate.from_coords(np.zeros((2, 3)), sigma=2.0)
        original = est.covariance.copy()
        starts = []

        def cycle(e, k, deltas):
            starts.append(e)
            new = e.copy()
            new.mean[:] = e.mean + 0.5**k
            return outcome(new)

        iterate_to_convergence(cycle, est, max_cycles=4, tol=0.0)
        assert len(starts) == 4
        assert all(s.covariance is starts[0].covariance for s in starts)
        assert not np.shares_memory(starts[0].covariance, est.covariance)
        assert len({id(s.mean) for s in starts}) == 4
        assert not any(np.shares_memory(s.mean, est.mean) for s in starts)
        assert np.array_equal(est.covariance, original)

    def test_callback_sees_cycle_number_and_earlier_deltas(self):
        calls = []

        def cycle(e, k, deltas):
            calls.append((k, tuple(deltas)))
            new = e.copy()
            new.mean[:] = e.mean + 1.0
            return outcome(new)

        report = iterate_to_convergence(cycle, make_estimate(), max_cycles=3, tol=0.0)
        assert [k for k, _ in calls] == [1, 2, 3]
        assert [d for _, d in calls] == [tuple(report.deltas[:k]) for k in range(3)]

    def test_ledger_collected_in_cycle_order(self):
        def cycle(e, k, deltas):
            new = e.copy()
            new.mean[:] = e.mean + 1.0
            return outcome(new, quarantined=(f"q{k}",), retries=(f"r{k}a", f"r{k}b"))

        report = iterate_to_convergence(cycle, make_estimate(), max_cycles=3, tol=0.0)
        assert report.quarantine == ["q1", "q2", "q3"]
        assert report.retries == ["r1a", "r1b", "r2a", "r2b", "r3a", "r3b"]

    def test_resumed_loop_finishes_its_cycle_past_max_cycles(self):
        seen = []

        def cycle(e, k, deltas):
            seen.append(k)
            return outcome(e.copy())

        report = iterate_to_convergence(
            cycle, make_estimate(), max_cycles=2, tol=-1.0, deltas=[0.5, 0.25]
        )
        assert seen == [3]
        assert report.cycles == 3
        assert report.deltas == [0.5, 0.25, 0.0]

    def test_solve_resumed_in_its_first_cycle_finishes_it(self):
        """No cycle finished before the interruption: ``deltas=[]``, not a
        fresh solve, so ``max_cycles=0`` still finishes cycle 1."""
        seen = []

        def cycle(e, k, deltas):
            seen.append((k, deltas))
            return outcome(e.copy())

        report = iterate_to_convergence(cycle, make_estimate(), max_cycles=0, deltas=[])
        assert seen == [(1, ())]
        assert report.cycles == 1

    def test_resumed_loop_shares_the_saved_covariance(self):
        """A resumed solve's ``initial`` is the caller's private saved
        input: every cycle starts over its covariance, not a copy."""
        saved = StructureEstimate.from_coords(np.zeros((2, 3)), sigma=2.0)
        starts = []

        def cycle(e, k, deltas):
            starts.append(e)
            new = e.copy()
            new.mean[:] = e.mean + 0.5**k
            return outcome(new)

        iterate_to_convergence(cycle, saved, max_cycles=4, tol=0.0, deltas=[0.5])
        assert len(starts) == 3
        assert all(s.covariance is saved.covariance for s in starts)

    def test_cycles_to_threshold(self):
        report = ConvergenceReport(make_estimate(), 3, deltas=[1.0, 0.1, 0.01])
        assert report.cycles_to(0.5) == 2
        assert report.cycles_to(1e-6) is None
