"""A batch's fixed cost on the ``"vector"`` tier: apply and compile.

Two figures, serial, one BLAS thread:

* **apply**: the steady cost per hierarchical batch on
  ``build_helix(L)``, the median wall time of 7 steady
  ``HierarchicalSolver.run_cycle`` calls (after one warm-up cycle that
  builds every plan) divided by the cycle's batch count.  Below about
  8 bp a 16-row batch is mostly fixed cost, so this is the number the
  hierarchy's arithmetic saving has to beat;
* **compile**: the cost per :class:`~repro.constraints.plan.BatchPlan`
  build over every batch of every node of ``build_helix(16)`` and
  ``build_ribo30s()``, the median over ``--repeats`` full passes.  The
  serial and thread backends build each plan once; process workers
  rebuild every plan every cycle.

Standalone, no pytest::

    PYTHONPATH=src python benchmarks/bench_batch_cost.py
    PYTHONPATH=src python benchmarks/bench_batch_cost.py --quick

``--quick`` shrinks every workload (1–2 bp helices, 3 steady cycles,
smaller plan sets) so the script runs in a few seconds; its numbers are
only a smoke check.  The last stdout line is the report as JSON.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import time

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")  # before numpy loads; an explicit value wins

import numpy as np  # noqa: E402
import scipy  # noqa: E402

from repro.constraints.batch import make_batches  # noqa: E402
from repro.constraints.plan import BatchPlan  # noqa: E402
from repro.core.hier_solver import HierarchicalSolver  # noqa: E402
from repro.core.update import UpdateOptions  # noqa: E402
from repro.molecules.ribosome import build_ribo30s  # noqa: E402
from repro.molecules.rna import build_helix  # noqa: E402

OPTIONS = UpdateOptions(kernel_impl="vector")
BATCH_SIZE = 16


def host_line() -> str:
    threads = os.environ.get("OPENBLAS_NUM_THREADS", "default")
    return (
        f"host: {len(os.sched_getaffinity(0))} usable cores, "
        f"OPENBLAS_NUM_THREADS={threads}, python {platform.python_version()}, "
        f"numpy {np.__version__}, scipy {scipy.__version__}, serial"
    )


def apply_cost(length: int, cycles: int) -> dict:
    """Median steady cycle on ``build_helix(length)`` divided by its batches."""
    problem = build_helix(length)
    problem.assign()
    solver = HierarchicalSolver(problem.hierarchy, batch_size=BATCH_SIZE, options=OPTIONS)
    estimate = solver.run_cycle(problem.initial_estimate(0)).estimate  # builds the plans
    walls, batches = [], 0
    for _ in range(cycles):
        t0 = time.perf_counter()
        result = solver.run_cycle(estimate)
        walls.append(time.perf_counter() - t0)
        estimate = result.estimate
        batches = sum(r.n_batches for r in result.records)
    cycle = statistics.median(walls)
    return {"cycle_s": cycle, "batches": batches, "us_per_batch": 1e6 * cycle / batches}


def node_batches(problem) -> list[tuple]:
    """Every ``(batch, column map, width)`` a cold hierarchical cycle compiles."""
    problem.assign()
    out = []
    for node in problem.hierarchy.post_order():
        if node.constraints:
            cmap = node.column_map(problem.hierarchy.n_atoms)
            out.extend(
                (b, cmap, node.state_dim)
                for b in make_batches(node.constraints, BATCH_SIZE)
            )
    return out


def compile_cost(problem, repeats: int) -> dict:
    """Median per-plan ``BatchPlan`` build time over all of a problem's batches."""
    work = node_batches(problem)
    passes = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        for batch, cmap, width in work:
            BatchPlan(batch, cmap, width)
        passes.append(time.perf_counter() - t0)
    return {"plans": len(work), "us_per_plan": 1e6 * statistics.median(passes) / len(work)}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true", help="smoke-test sizes")
    parser.add_argument("--repeats", type=int, default=5, help="plan-build passes")
    args = parser.parse_args(argv)
    lengths = (1, 2) if args.quick else (1, 2, 4)
    cycles = 3 if args.quick else 7
    problems = (
        {"helix4": lambda: build_helix(4), "ribo30s_600": lambda: build_ribo30s(3, total_atoms=600)}
        if args.quick
        else {"helix16": lambda: build_helix(16), "ribo30s": build_ribo30s}
    )
    print(host_line())
    report: dict = {"host": host_line(), "apply": {}, "compile": {}}
    for length in lengths:
        row = apply_cost(length, cycles)
        report["apply"][f"helix{length}"] = row
        print(
            f"apply   build_helix({length}): {row['us_per_batch']:7.1f} us/batch "
            f"({row['batches']} batches, median cycle {row['cycle_s'] * 1e3:.2f} ms of {cycles})"
        )
    for name, build in problems.items():
        row = compile_cost(build(), max(1, args.repeats))
        report["compile"][name] = row
        print(f"compile {name:14s}: {row['us_per_plan']:7.1f} us/plan ({row['plans']} plans)")
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
