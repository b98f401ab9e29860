"""Experiment harnesses: one module per paper exhibit.

Each ``exp_*`` module builds its workload through the public library API,
runs it, and returns structured rows that the ``benchmarks/`` targets and
the ``python -m repro.experiments`` CLI render next to the paper's
published numbers (:mod:`repro.experiments.paper_data`).

===========================  =======================================
module                       paper exhibit
===========================  =======================================
``exp_table1``               Table 1 + Figure 5 (flat vs hierarchical)
``exp_table2``               Table 2 + Figure 6 + Equation 1
``exp_parallel``             Tables 3-6 + Figures 7-10 (speedups)
``ablation_ordering``        §5 constraint-ordering convergence study
``ablation_decompose``       §5 automatic decomposition study
``ablation_dynamic``         §5 dynamic re-assignment study
``ablation_batch``           batch-dimension model validation
``exp_combination``          §4.1 constraint-splitting economics
``calibration``              machine-model calibration tooling
``ascii_plot``               terminal rendering for the figures
===========================  =======================================
"""

import importlib

# Lazy, so that ``python -m repro.experiments`` imports no numpy before
# its ``__main__`` pins the BLAS threads.
_LAZY = {
    "Table1Row": "repro.experiments.exp_table1",
    "run_table1": "repro.experiments.exp_table1",
    "Table2Result": "repro.experiments.exp_table2",
    "run_table2": "repro.experiments.exp_table2",
    "ParallelExperiment": "repro.experiments.exp_parallel",
    "run_parallel_experiment": "repro.experiments.exp_parallel",
}
_SUBMODULES = ("paper_data", "report")


def __getattr__(name: str):
    if name in _LAZY:
        return getattr(importlib.import_module(_LAZY[name]), name)
    if name in _SUBMODULES:
        return importlib.import_module(f"{__name__}.{name}")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "ParallelExperiment",
    "Table1Row",
    "Table2Result",
    "paper_data",
    "report",
    "run_parallel_experiment",
    "run_table1",
    "run_table2",
]
