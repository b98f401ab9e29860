"""Durable-run cost: a session streaming to its store against one without.

A :class:`~repro.core.session.SolveSession` with a store stages every
pass and streams every finished node's posterior, so a killed run can
resume.  This script prices that on the serial backend with
``kernel_impl="vector"``:

* a steady cold cycle of ``SolveSession.solve`` on ``build_ribo30s()``
  and ``build_helix(16)``: the median of the periods between the starts
  of consecutive cycles 2..N, so each period holds one cycle, its node
  streaming and the next cycle's staging writes;
* a warm ``resolve()`` after a leaf edit on ``build_helix(16)`` (median
  over the resolves, each after a fresh edit).

Each figure is measured with and without a store and printed with their
ratio.  Store directories go under ``--dir`` (default: a temporary
directory, removed afterwards).  Standalone, no pytest::

    PYTHONPATH=src python benchmarks/bench_durable_cost.py --cycles 6 --resolves 8
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import tempfile
import time

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")  # before numpy loads

import numpy as np  # noqa: E402

from repro.constraints import DistanceConstraint  # noqa: E402
from repro.core.session import SolveSession  # noqa: E402
from repro.core.update import UpdateOptions  # noqa: E402
from repro.molecules.ribosome import build_ribo30s  # noqa: E402
from repro.molecules.rna import build_helix  # noqa: E402

OPTIONS = UpdateOptions(kernel_impl="vector")
BUILDERS = {"ribo30s": build_ribo30s, "helix16": lambda: build_helix(16)}


def steady_cycle(name: str, cycles: int, store) -> float:
    """Median period between the starts of consecutive cycles 2..N."""
    problem = BUILDERS[name]()
    with SolveSession(
        problem.hierarchy, problem.constraints, options=OPTIONS, store=store
    ) as session:
        starts: list[float] = []
        run_cycle = session.solver.run_cycle

        def timed(*args, **kwargs):
            starts.append(time.perf_counter())
            return run_cycle(*args, **kwargs)

        session.solver.run_cycle = timed
        session.solve(problem.initial_estimate(0), max_cycles=cycles, tol=0.0)
    return statistics.median(np.diff(starts[1:]))


def _leaf_edit(problem, k: int) -> DistanceConstraint:
    leaves = problem.hierarchy.leaves()
    leaf = leaves[k % len(leaves)]
    i, j = int(leaf.atoms[0]), int(leaf.atoms[-1])
    d = float(np.linalg.norm(problem.true_coords[i] - problem.true_coords[j]))
    return DistanceConstraint(i, j, d, 0.01)


def warm_resolve(resolves: int, store) -> float:
    """Median wall time of ``resolve()`` after one leaf edit each."""
    problem = build_helix(16)
    with SolveSession(
        problem.hierarchy, problem.constraints, options=OPTIONS, store=store
    ) as session:
        session.solve(problem.initial_estimate(0), max_cycles=2, tol=0.0)
        walls = []
        for k in range(resolves):
            session.add_constraints([_leaf_edit(problem, k)])
            t0 = time.perf_counter()
            session.resolve()
            walls.append(time.perf_counter() - t0)
    return statistics.median(walls)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--cycles", type=int, default=6)
    parser.add_argument("--resolves", type=int, default=8)
    parser.add_argument("--dir", default=None, help="parent of the store directories")
    args = parser.parse_args(argv)
    root = tempfile.mkdtemp(prefix="durable-", dir=args.dir)
    report = {"host": {"cpus": os.cpu_count(), "blas_threads": 1, "backend": "serial"}}
    try:
        for name in BUILDERS:
            plain = steady_cycle(name, args.cycles, None)
            stored = steady_cycle(name, args.cycles, os.path.join(root, name))
            report[f"cycle_{name}"] = {"plain_s": plain, "stored_s": stored,
                                       "ratio": stored / plain}
        plain = warm_resolve(args.resolves, None)
        stored = warm_resolve(args.resolves, os.path.join(root, "resolve"))
        report["resolve_helix16"] = {"plain_s": plain, "stored_s": stored,
                                     "ratio": stored / plain}
    finally:
        shutil.rmtree(root, ignore_errors=True)
    for key, row in report.items():
        if key != "host":
            print(f"{key:18s} plain {row['plain_s']:.3f}s  stored "
                  f"{row['stored_s']:.3f}s  ratio {row['ratio']:.2f}x")
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
