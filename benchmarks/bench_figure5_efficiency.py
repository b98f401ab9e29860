"""Figure 5: per-constraint computational efficiency, flat vs hierarchical.

Same data as Table 1 viewed as growth curves: flat per-constraint time
grows ~quadratically with the molecule size, hierarchical markedly slower
(the paper's O(n) optimistic bound for well-localized constraints).
"""

from repro.experiments.exp_table1 import figure5_series
from repro.experiments.report import growth_exponent, render_table
from repro.molecules.rna import build_helix
from repro.core.flat import FlatSolver
from repro.core.update import UpdateOptions


def test_figure5_per_constraint_growth(benchmark, table1_rows):
    problem = build_helix(2)
    problem.assign()
    # The tier run_table1 times, so the timing matches the series below.
    solver = FlatSolver(
        problem.constraints,
        batch_size=16,
        options=UpdateOptions(kernel_impl="reference"),
    )
    estimate = problem.initial_estimate(0)
    benchmark.pedantic(
        lambda: solver.run_cycle(estimate), rounds=3, iterations=1, warmup_rounds=1
    )

    series = figure5_series(table1_rows)
    flat_exp = growth_exponent(series["length"], series["flat_per_constraint"])
    hier_exp = growth_exponent(series["length"], series["hier_per_constraint"])
    print()
    from repro.experiments.ascii_plot import line_plot

    print(
        line_plot(
            series["length"],
            {
                "flat": series["flat_per_constraint"],
                "hier": series["hier_per_constraint"],
            },
            logx=True,
            logy=True,
            title="Figure 5: seconds per scalar constraint vs helix length",
            xlabel="base pairs",
            ylabel="s/constraint",
        )
    )
    print(
        render_table(
            ["length", "flat_per", "hier_per"],
            list(
                zip(
                    series["length"],
                    series["flat_per_constraint"],
                    series["hier_per_constraint"],
                )
            ),
            title="Figure 5 series: seconds per scalar constraint",
        )
    )
    print(f"growth exponents: flat {flat_exp:.2f}, hierarchical {hier_exp:.2f} "
          "(paper: ~2 vs ~1)")
    # Tiny helices are Python/BLAS-overhead bound on a modern host; the full
    # O(n²)-vs-O(n) separation needs the 16-bp point (n = 2040).
    full_grid = max(series["length"]) >= 16
    margin = 0.3 if full_grid else 0.1
    assert flat_exp > hier_exp + margin, "hierarchy must flatten the growth curve"
    if full_grid:
        assert flat_exp > 0.8, "flat per-constraint time must grow with size"
