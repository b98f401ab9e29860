"""Tests for the cache model and calibration."""

import numpy as np
import pytest

from repro.core.hier_solver import HierarchicalSolver
from repro.errors import SimulationError
from repro.experiments.calibration import (
    calibrate_rates,
    paper_reference,
    record_cycle,
    validate_against,
)
from repro.linalg.counters import KernelEvent, OpCategory
from repro.machine import DASH
from repro.machine.cache import DEFAULT_LOCALITY, CacheModel, dash_with_cache_model
from repro.molecules.rna import build_helix


def ev(cat, nbytes, flops=1e6, seconds=0.001):
    return KernelEvent(cat, flops, nbytes, (0,), seconds)


class TestCacheModel:
    def test_fits_in_cache_cold_only(self):
        cache = CacheModel(1e6, cold_fraction=0.03)
        assert cache.miss_fraction(ev(OpCategory.MATMAT, 1e5)) == 0.03

    def test_overflow_increases_misses(self):
        cache = CacheModel(1e5, cold_fraction=0.03)
        small = cache.miss_fraction(ev(OpCategory.DENSE_SPARSE, 2e5))
        large = cache.miss_fraction(ev(OpCategory.DENSE_SPARSE, 2e6))
        assert 0.03 < small < large <= 1.0

    def test_tiled_kernels_resist_overflow(self):
        cache = CacheModel(1e5)
        mm = cache.miss_fraction(ev(OpCategory.MATMAT, 1e7))
        ds = cache.miss_fraction(ev(OpCategory.DENSE_SPARSE, 1e7))
        assert mm < ds

    def test_custom_locality(self):
        cache = CacheModel(1e5, locality_factor={OpCategory.MATMAT: 1.0})
        default = CacheModel(1e5)
        e = ev(OpCategory.MATMAT, 1e7)
        assert cache.miss_fraction(e) > default.miss_fraction(e)

    def test_validation(self):
        with pytest.raises(SimulationError):
            CacheModel(0.0)
        with pytest.raises(SimulationError):
            CacheModel(1e5, cold_fraction=1.5)

    def test_all_categories_have_locality(self):
        assert set(DEFAULT_LOCALITY) == set(OpCategory)

    def test_derived_fractions_close_to_hand_set(self):
        """First-principles derivation must land near the calibrated
        fixed fractions (the validation claim in the module docstring)."""
        cfg, _cache = dash_with_cache_model()
        hand = DASH().remote_traffic_fraction
        derived = cfg.remote_traffic_fraction
        assert abs(derived[OpCategory.DENSE_SPARSE] - hand[OpCategory.DENSE_SPARSE]) < 0.15
        assert derived[OpCategory.MATMAT] < 0.08

    def test_variant_simulates(self):
        from repro.machine import simulate_solve

        cfg, _ = dash_with_cache_model()
        p = build_helix(2)
        p.assign()
        cycle = HierarchicalSolver(p.hierarchy, batch_size=16).run_cycle(
            p.initial_estimate(0)
        )
        res = simulate_solve(cycle, p.hierarchy, cfg, 4)
        assert res.work_time > 0


class TestCalibration:
    @pytest.fixture(scope="class")
    def helix2_cycle(self):
        return record_cycle(build_helix(2))

    def test_rates_reproduce_reference(self, helix2_cycle):
        reference = {c: 0.5 for c in OpCategory}
        cal = calibrate_rates(helix2_cycle, reference)
        # predicted total time = sum flops/rate = sum reference = 6 * 0.5
        predicted = sum(
            e.flops / cal.rates[e.category] for e in helix2_cycle.recorder.events
        )
        assert predicted == pytest.approx(3.0)

    def test_missing_reference_rejected(self, helix2_cycle):
        with pytest.raises(SimulationError, match="missing"):
            calibrate_rates(helix2_cycle, {OpCategory.MATMAT: 1.0})

    def test_paper_reference_table3(self):
        ref = paper_reference("table3")
        assert ref[OpCategory.MATMAT] == pytest.approx(384.97)
        assert set(ref) == set(OpCategory)

    def test_as_config_installs_rates(self, helix2_cycle):
        cal = calibrate_rates(helix2_cycle, {c: 1.0 for c in OpCategory})
        cfg = cal.as_config(DASH(), name="test")
        assert cfg.name == "test"
        assert cfg.rates == cal.rates
        assert cfg.cluster_size == 4

    def test_validate_against_self_is_exact(self, helix2_cycle):
        reference = {c: 1.0 for c in OpCategory}
        cal = calibrate_rates(helix2_cycle, reference)
        err = validate_against(cal, helix2_cycle, 6.0)
        assert err == pytest.approx(0.0, abs=1e-12)

    def test_stock_dash_matches_fresh_calibration(self):
        """The shipped DASH rates must be re-derivable from the paper's
        Table 3 reference within ~15 % (trace details drift slightly as
        the library evolves; the shapes don't)."""
        cycle = record_cycle(build_helix(16))
        cal = calibrate_rates(cycle, paper_reference("table3"))
        stock = DASH().rates
        for cat in OpCategory:
            assert 0.85 < cal.rates[cat] / stock[cat] < 1.18, cat
