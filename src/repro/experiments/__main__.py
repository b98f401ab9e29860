"""Command-line experiment runner.

Usage::

    python -m repro.experiments table1 [--quick]
    python -m repro.experiments table2 [--quick]
    python -m repro.experiments table3|table4|table5|table6
    python -m repro.experiments ordering|decompose|dynamic|batchmodel
    python -m repro.experiments all [--quick]

``--quick`` shrinks workloads (shorter helices, sparser grids) for smoke
runs; the default sizes regenerate the paper's exhibits in full.

BLAS gets one thread unless the caller set the thread variables (an
explicit value wins), as for ``python -m repro``: Tables 1 and 2 time
small kernels on the host, which a multithreaded BLAS turns into noise.
The variables take effect only before numpy is first imported, so
``repro/experiments/__init__.py`` imports nothing eagerly.
"""

from __future__ import annotations

import argparse
import os
import sys

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")


def _table1(quick: bool) -> None:
    from repro.experiments.exp_table1 import format_table1, run_table1

    lengths = (1, 2, 4) if quick else (1, 2, 4, 8, 16)
    print(format_table1(run_table1(lengths=lengths)))


def _table2(quick: bool) -> None:
    from repro.experiments.exp_table2 import format_table2, run_table2

    if quick:
        result = run_table2(lengths=(1, 2, 4), batch_dims=(1, 4, 16, 64, 256))
    else:
        result = run_table2()
    print(format_table2(result))


def _parallel(exhibit: str, quick: bool) -> None:
    from repro.experiments.exp_parallel import run_parallel_experiment

    experiment = run_parallel_experiment(exhibit)
    print(f"{exhibit}: {experiment.problem_name} on {experiment.machine_name} (simulated)")
    print(experiment.formatted())


def _ordering(quick: bool) -> None:
    from repro.experiments.ablation_ordering import format_ordering, run_ordering_ablation

    print(format_ordering(run_ordering_ablation()))


def _decompose(quick: bool) -> None:
    from repro.experiments.ablation_decompose import format_decompose, run_decompose_ablation

    print(format_decompose(run_decompose_ablation()))


def _dynamic(quick: bool) -> None:
    from repro.experiments.ablation_dynamic import format_dynamic, run_dynamic_ablation

    print(format_dynamic(run_dynamic_ablation()))


def _combination(quick: bool) -> None:
    from repro.experiments.exp_combination import (
        format_combination,
        run_combination_experiment,
    )

    n_atoms = 12 if quick else 20
    print(format_combination(run_combination_experiment(n_atoms=n_atoms)))


def _uncertainty(quick: bool) -> None:
    from repro.experiments.exp_uncertainty import (
        format_uncertainty,
        run_uncertainty_validation,
    )

    trials = 10 if quick else 40
    print(format_uncertainty(run_uncertainty_validation(n_trials=trials)))


def _batchmodel(quick: bool) -> None:
    from repro.experiments.ablation_batch import (
        format_batch_validation,
        run_batch_model_validation,
    )

    if quick:
        v = run_batch_model_validation(lengths=(1, 2, 4), batch_dims=(4, 16, 64))
    else:
        v = run_batch_model_validation()
    print(format_batch_validation(v))


COMMANDS = {
    "table1": _table1,
    "table2": _table2,
    "table3": lambda q: _parallel("table3", q),
    "table4": lambda q: _parallel("table4", q),
    "table5": lambda q: _parallel("table5", q),
    "table6": lambda q: _parallel("table6", q),
    "ordering": _ordering,
    "decompose": _decompose,
    "dynamic": _dynamic,
    "batchmodel": _batchmodel,
    "combination": _combination,
    "uncertainty": _uncertainty,
}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="python -m repro.experiments")
    parser.add_argument("command", choices=[*COMMANDS, "all"])
    parser.add_argument("--quick", action="store_true", help="reduced workloads")
    args = parser.parse_args(argv)
    if args.command == "all":
        for name, fn in COMMANDS.items():
            print(f"\n=== {name} ===")
            fn(args.quick)
    else:
        COMMANDS[args.command](args.quick)
    return 0


if __name__ == "__main__":
    sys.exit(main())
