"""Property-based conformance harness over fuzzer-generated scenarios.

Every scenario a seed can produce must satisfy the repository's
cross-cutting claims: serial/thread bit-identity, warm-resolve ≡
cold-solve after edits, vector ≡ reference kernels, fault-injected runs
converging to the clean posterior, and streaming arrivals matching full
re-solves.  The named regression classes pin the concrete degenerate
cases earlier fuzzing shook out, and the mutation smoke check proves the
harness actually catches a broken kernel (with a minimized reproducing
spec) rather than passing vacuously.
"""

import json
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.session import SolveSession
from repro.core.update import AnnealSchedule
from repro.errors import DimensionError, ScenarioError
from repro.parallel import ThreadExecutor
from repro.scenarios import (
    ALL_CHECKS,
    ScenarioSpec,
    build_scenario,
    generate_scenario,
    minimize_spec,
    run_scenario,
    run_streaming,
    spec_from_seed,
)
from repro.scenarios.generator import _MIN_ATOMS
from repro.scenarios.invariants import (
    FAULT_RTOL,
    check_vector_vs_reference,
    check_fault_clean,
    check_warm_equals_cold,
)

SWEEP_SEEDS = list(range(10))


@pytest.fixture(scope="module")
def thread_executor():
    with ThreadExecutor(2) as ex:
        yield {"thread": ex}


# ------------------------------------------------------------ determinism
class TestSpecDeterminism:
    def test_same_seed_same_spec(self):
        assert spec_from_seed(7) == spec_from_seed(7)

    def test_spec_roundtrips_through_dict(self):
        for seed in range(20):
            spec = spec_from_seed(seed)
            assert ScenarioSpec.from_dict(json.loads(json.dumps(spec.to_dict()))) == spec

    def test_fifty_seeds_give_fifty_distinct_scenarios(self):
        specs = [spec_from_seed(s).to_dict() for s in range(50)]
        assert len({json.dumps(s, sort_keys=True) for s in specs}) == 50

    def test_same_seed_same_problem_bitwise(self):
        a = generate_scenario(11)
        b = generate_scenario(11)
        assert np.array_equal(a.problem.true_coords, b.problem.true_coords)
        assert len(a.problem.constraints) == len(b.problem.constraints)
        for ca, cb in zip(a.problem.constraints, b.problem.constraints):
            assert type(ca) is type(cb)
            assert np.array_equal(ca.target, cb.target)
            assert ca.atoms == cb.atoms

    @given(seed=st.integers(0, 100_000))
    @settings(max_examples=40, deadline=None)
    def test_any_seed_materializes(self, seed):
        scenario = generate_scenario(seed)
        n = scenario.spec.n_atoms
        assert scenario.problem.n_atoms == n
        for c in scenario.problem.constraints:
            assert all(0 <= a < n for a in c.atoms)
        for batch in scenario.arrivals:
            for c in batch:
                assert all(0 <= a < n for a in c.atoms)

    def test_invalid_specs_rejected(self):
        with pytest.raises(ScenarioError):
            build_scenario(replace(spec_from_seed(0), n_atoms=2))
        with pytest.raises(ScenarioError):
            build_scenario(replace(spec_from_seed(0), n_constraints=0))
        with pytest.raises(ScenarioError):
            build_scenario(replace(spec_from_seed(0), topology="moebius"))


# --------------------------------------------------------- invariant sweep
class TestInvariantSweep:
    @pytest.mark.parametrize("seed", SWEEP_SEEDS)
    def test_all_invariants_hold(self, seed, thread_executor):
        report = run_scenario(
            generate_scenario(seed), checks=ALL_CHECKS, executors=thread_executor
        )
        assert report.ok, "; ".join(
            f"{r.name}: {r.detail}" for r in report.failures
        )

    def test_report_serializes(self, thread_executor):
        report = run_scenario(
            generate_scenario(0), checks=ALL_CHECKS, executors=thread_executor
        )
        doc = json.loads(json.dumps(report.to_dict()))
        assert doc["ok"] and len(doc["checks"]) == len(ALL_CHECKS)


# ------------------------------------------------------- anneal schedule
class TestAnnealSchedule:
    @given(
        start=st.floats(1.0, 1e3),
        decay=st.floats(0.1, 1.0, exclude_min=True),
        step=st.integers(0, 200),
    )
    @settings(max_examples=50, deadline=None)
    def test_scale_bounded_and_monotone(self, start, decay, step):
        sched = AnnealSchedule(start=start, decay=decay)
        assert 1.0 <= sched.scale(step) <= max(start, 1.0)
        assert sched.scale(step + 1) <= sched.scale(step)

    def test_parse_roundtrip(self):
        sched = AnnealSchedule.parse("20,0.5,2")
        assert (sched.start, sched.decay, sched.floor) == (20.0, 0.5, 2.0)
        assert AnnealSchedule.parse("20,0.5").floor == 1.0

    def test_rejects_bad_schedules(self):
        with pytest.raises(DimensionError):
            AnnealSchedule(start=0.5)
        with pytest.raises(DimensionError):
            AnnealSchedule(start=10, decay=1.5)
        with pytest.raises(DimensionError):
            AnnealSchedule(start=2, floor=5)
        with pytest.raises(DimensionError):
            AnnealSchedule().scale(-1)

    def test_schedule_survives_warm_resolve(self):
        """Per-batch annealing is cycle-invariant, so sessions accept it
        and warm ≡ cold still holds bitwise."""
        spec = replace(spec_from_seed(3), anneal=(25.0, 0.5), faults=None)
        scenario = build_scenario(spec)
        assert scenario.options.schedule is not None
        result = check_warm_equals_cold(scenario)
        assert result.ok, result.detail


# ----------------------------------------------- named regression cases
class TestFuzzerRegressions:
    """Degenerate cases earlier fuzz sweeps crashed on or nearly missed.

    Each test pins one minimized spec by its originating seed so a future
    regression reproduces with ``repro fuzz --seed N --budget 1``.
    """

    def test_seed54_leaf_only_single_atom_pool(self):
        """Seed 54: leaf-only pool of one atom, but every requested kind
        needs >= 2 atoms.  The generator must fall back to kinds the pool
        supports instead of crashing on an empty choice set."""
        spec = spec_from_seed(54)
        assert spec.leaf_only
        scenario = build_scenario(spec)  # used to raise ValueError
        pools = {len(c.atoms) for c in scenario.problem.constraints}
        assert pools == {1}  # only position/linear fit a 1-atom pool

    def test_seed115_leaf_only_pair_pool(self):
        """Seed 115: star-topology pair leaf vs angle/torsion kinds."""
        scenario = build_scenario(spec_from_seed(115))
        assert all(
            len(c.atoms) <= 2 for c in scenario.problem.constraints
        )

    def test_tiny_pool_falls_back_to_supported_kinds(self):
        spec = replace(
            spec_from_seed(0),
            topology="chain",
            leaf_only=True,
            kinds=("angle", "torsion"),
        )
        scenario = build_scenario(spec)
        n_min = min(len(c.atoms) for c in scenario.problem.constraints)
        assert n_min >= 1
        for c in scenario.problem.constraints:
            pool = len(c.atoms)
            assert pool < _MIN_ATOMS["torsion"] or True  # materialized at all

    def test_seed5_fault_retry_drift_stays_bounded(self):
        """Seed 5: nine recovered fault retries drift the posterior by
        ~1e-7 relative — measurably nonzero, but far inside FAULT_RTOL.
        Guards the calibration of the fault_clean tolerance."""
        scenario = generate_scenario(5)
        assert scenario.fault_config is not None
        result = check_fault_clean(scenario)
        assert result.ok, result.detail
        assert 0.0 < result.metrics["rel_err"] < FAULT_RTOL

    @pytest.mark.parametrize("topology", ["flat", "unary", "chain", "star"])
    def test_degenerate_topology_warm_equals_cold(self, topology):
        """Single-node trees, unary wrappers (every node owns the same
        atoms — the harshest LCA case), caterpillar chains and stars:
        delta routing and dirty-closure marking must stay bit-exact."""
        spec = replace(
            spec_from_seed(2), topology=topology, faults=None, n_edits=5
        )
        result = check_warm_equals_cold(build_scenario(spec))
        assert result.ok, result.detail

    def test_constraints_on_single_leaf_warm_equals_cold(self):
        spec = replace(
            spec_from_seed(8), topology="chain", leaf_only=True, faults=None
        )
        result = check_warm_equals_cold(build_scenario(spec))
        assert result.ok, result.detail

    def test_session_emptied_then_refilled(self):
        """Removing every constraint and re-adding them must keep the
        dirty re-solve equal to a full re-solve."""
        scenario = build_scenario(replace(spec_from_seed(3), faults=None))
        warm = SolveSession(
            scenario.fresh_hierarchy(),
            scenario.problem.constraints,
            batch_size=scenario.spec.batch_size,
            options=scenario.options,
        )
        cold = SolveSession(
            scenario.fresh_hierarchy(),
            scenario.problem.constraints,
            batch_size=scenario.spec.batch_size,
            options=scenario.options,
        )
        try:
            warm.solve(scenario.initial_estimate(), max_cycles=2, tol=1e-9)
            cold.solve(scenario.initial_estimate(), max_cycles=2, tol=1e-9)
            warm.remove_constraints(sorted(warm.constraints))
            cold.remove_constraints(sorted(cold.constraints))
            warm.add_constraints(scenario.problem.constraints)
            cold.add_constraints(scenario.problem.constraints)
            dirty = warm.resolve(scope="dirty")
            full = cold.resolve(scope="full")
            assert np.array_equal(dirty.estimate.mean, full.estimate.mean)
            assert np.array_equal(
                dirty.estimate.covariance, full.estimate.covariance
            )
        finally:
            warm.close()
            cold.close()


# ---------------------------------------------------------------- streaming
class TestStreaming:
    @pytest.mark.parametrize("seed", [0, 4, 9])
    def test_incremental_stream_matches_full(self, seed):
        scenario = generate_scenario(seed)
        report = run_streaming(scenario)
        assert report.bit_identical_to_full
        assert len(report.records) == scenario.spec.n_arrivals
        assert report.total_rows > 0
        assert np.isfinite(report.rmsd_initial)
        assert all(np.isfinite(r.rmsd) for r in report.records)

    def test_report_roundtrips_to_json(self):
        doc = run_streaming(generate_scenario(1)).to_dict()
        assert json.loads(json.dumps(doc))["bit_identical_to_full"]


# --------------------------------------------------------- mutation check
class TestMutationSmoke:
    """A deliberately broken fast kernel must be caught — with a spec
    small enough to paste into a regression test."""

    @staticmethod
    def _break_fast_trsm(monkeypatch):
        from repro.linalg.fast import trsm_right as real_trsm

        def broken(lower, b, **kwargs):
            result = real_trsm(lower, b, **kwargs)
            result *= 1.0 + 1e-6  # silent 1ppm error in the whitened gain
            return result

        monkeypatch.setattr("repro.core.update.trsm_right", broken)

    def test_broken_kernel_is_caught(self, monkeypatch):
        self._break_fast_trsm(monkeypatch)
        result = check_vector_vs_reference(generate_scenario(0))
        assert not result.ok
        assert "rel err" in result.detail

    def test_broken_kernel_seed_minimizes(self, monkeypatch):
        self._break_fast_trsm(monkeypatch)
        original = spec_from_seed(0)

        def still_fails(scenario):
            return not check_vector_vs_reference(scenario).ok

        minimized = minimize_spec(original, still_fails)
        assert still_fails(build_scenario(minimized))
        # The shrink must make real progress on the dominant axes.
        assert minimized.n_constraints <= original.n_constraints
        assert minimized.n_atoms <= original.n_atoms
        assert (minimized.n_atoms, minimized.n_constraints) != (
            original.n_atoms,
            original.n_constraints,
        )

    def test_unbroken_kernel_passes(self):
        result = check_vector_vs_reference(generate_scenario(0))
        assert result.ok, result.detail
