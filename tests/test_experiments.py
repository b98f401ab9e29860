"""Tests for the experiment harnesses (quick configurations)."""

import numpy as np
import pytest

from repro.experiments import paper_data, report
from repro.experiments.ablation_decompose import format_decompose, run_decompose_ablation
from repro.experiments.ablation_dynamic import format_dynamic, run_dynamic_ablation
from repro.experiments.ablation_ordering import format_ordering, run_ordering_ablation
from repro.experiments.exp_table1 import figure5_series, format_table1, run_table1
from repro.experiments.exp_table2 import figure6_series, format_table2, run_table2
from repro.experiments.exp_parallel import EXHIBITS
from repro.molecules.rna import build_helix


class TestPaperData:
    def test_table1_shape(self):
        assert paper_data.TABLE1.shape == (5,)
        assert paper_data.TABLE1["speedup"][-1] == pytest.approx(30.09)

    def test_table2_grid(self):
        assert paper_data.TABLE2_TIMES.shape == (10, 5)
        # the paper's batch-16 optimum
        col = paper_data.TABLE2_TIMES[:, 0]
        assert paper_data.TABLE2_BATCH_DIMS[int(np.argmin(col))] == 16

    def test_speedup_tables_monotone_time(self):
        for name in ("table3", "table4", "table5", "table6"):
            t = paper_data.speedup_table(name)
            assert np.all(np.diff(t["time"]) < 0)

    def test_processor_counts(self):
        assert paper_data.processor_counts("table3")[0] == 1
        assert paper_data.processor_counts("table3")[-1] == 32
        assert paper_data.processor_counts("table5")[-1] == 16

    def test_exhibits_registry(self):
        assert set(EXHIBITS) == {"table3", "table4", "table5", "table6"}


class TestReportHelpers:
    def test_render_table_basic(self):
        text = report.render_table(["a", "b"], [(1, 2.5), (10, 0.25)], title="T")
        lines = text.splitlines()
        assert lines[0] == "T"
        assert len(lines) == 5

    def test_growth_exponent_quadratic(self):
        x = np.array([1.0, 2, 4, 8])
        assert report.growth_exponent(x, x**2) == pytest.approx(2.0)

    def test_monotone_with_slack(self):
        assert report.is_monotone_increasing([1.0, 0.99, 1.5], slack=0.05)
        assert not report.is_monotone_increasing([1.0, 0.5], slack=0.05)

    def test_u_shape_minimum(self):
        assert report.u_shape_minimum([1, 2, 4, 8], [5.0, 2.0, 3.0, 9.0]) == 2

    def test_relative_series(self):
        assert np.allclose(report.relative_series([2.0, 4.0]), [1.0, 2.0])


class TestTable1Harness:
    @pytest.fixture(scope="class")
    def rows(self):
        return run_table1(lengths=(1, 2))

    def test_row_fields(self, rows):
        assert rows[0].atoms == 43
        assert rows[1].atoms == 86
        assert rows[0].flat_total > 0 and rows[0].hier_total > 0

    def test_speedup_positive(self, rows):
        assert all(r.speedup > 0 for r in rows)

    def test_format(self, rows):
        text = format_table1(rows)
        assert "speedup" in text and "43" in text

    def test_figure5_series(self, rows):
        series = figure5_series(rows)
        assert series["length"] == [1.0, 2.0]
        assert len(series["flat_per_constraint"]) == 2


class TestTable2Harness:
    @pytest.fixture(scope="class")
    def result(self):
        return run_table2(
            lengths=(1, 2), batch_dims=(4, 8, 32), max_rows_per_cell=128, repeats=5
        )

    def test_grid_shape(self, result):
        assert result.times.shape == (3, 2)
        assert result.node_sizes == [43, 86]

    def test_times_positive(self, result):
        assert np.all(result.times > 0)

    def test_larger_nodes_slower(self, result):
        # Allow small timing jitter at these micro-scale cells.
        assert np.all(result.times[:, 1] >= 0.8 * result.times[:, 0])

    def test_model_fitted(self, result):
        assert result.model is not None
        assert result.model.satisfies_paper_checks()

    def test_format(self, result):
        text = format_table2(result)
        assert "Equation 1" in text

    def test_figure6_series(self, result):
        series = figure6_series(result)
        assert series["time_vs_batch"].shape == (3, 2)
        assert series["time_vs_size"].shape == (2, 3)

    def test_best_batch_per_size(self, result):
        best = result.best_batch_per_size()
        assert set(best) == {43, 86}
        assert all(b in (4, 8, 32) for b in best.values())


class TestOrderingAblation:
    def test_runs_all_strategies(self):
        problem = build_helix(1)
        results = run_ordering_ablation(
            problem, strategies=("given", "random"), max_cycles=3
        )
        assert [r.strategy for r in results] == ["given", "random"]
        assert all(len(r.report.deltas) <= 3 for r in results)
        assert "strategy" in format_ordering(results)


class TestDecomposeAblation:
    def test_paper_hierarchy_efficient(self):
        results = run_decompose_ablation(
            build_helix(2), methods=("paper", "rcb"), max_leaf_atoms=12
        )
        by = {r.method: r for r in results}
        # the paper's domain decomposition must not lose to blind RCB
        assert by["paper"].cycle_flops <= by["rcb"].cycle_flops * 1.05
        assert "leaf_frac" in format_decompose(results)


class TestDynamicAblation:
    def test_rows_and_format(self):
        problem = build_helix(2)
        problem.assign()
        results = run_dynamic_ablation(problem, processor_counts=(2, 3, 4))
        assert [r.n_processors for r in results] == [2, 3, 4]
        assert all(r.static_time > 0 and r.dynamic_time > 0 for r in results)
        assert "improvement" in format_dynamic(results)


class TestCombinationExperiment:
    def test_rows_and_crossover(self):
        from repro.experiments.exp_combination import (
            crossover_rows_per_dim,
            format_combination,
            run_combination_experiment,
        )

        rows = run_combination_experiment(
            n_atoms=10, row_multipliers=(0.5, 2.0, 8.0)
        )
        assert [r.constraint_rows for r in rows] == [15, 60, 240]
        # speedup grows monotonically with the constraint volume
        speedups = [r.two_way_speedup for r in rows]
        assert speedups == sorted(speedups)
        assert "Constraint-splitting" in format_combination(rows)
        cross = crossover_rows_per_dim(rows)
        assert cross is None or cross > 1.0

    def test_combine_flops_independent_of_rows(self):
        from repro.experiments.exp_combination import run_combination_experiment

        rows = run_combination_experiment(n_atoms=8, row_multipliers=(1.0, 4.0))
        assert rows[0].combine_flops == pytest.approx(rows[1].combine_flops, rel=0.01)


class TestUncertaintyValidation:
    def test_calibrated_on_small_ensemble(self):
        from repro.experiments.exp_uncertainty import (
            format_uncertainty,
            run_uncertainty_validation,
        )

        v = run_uncertainty_validation(n_trials=10, seed=3)
        assert v.n_trials == 10
        assert v.z_scores.shape == (10, 15)
        assert 0.5 < v.calibration_ratio < 2.0
        assert "calibration ratio" in format_uncertainty(v)

    def test_deterministic_per_seed(self):
        from repro.experiments.exp_uncertainty import run_uncertainty_validation

        a = run_uncertainty_validation(n_trials=3, seed=5)
        b = run_uncertainty_validation(n_trials=3, seed=5)
        assert np.array_equal(a.z_scores, b.z_scores)
