"""Incremental re-solve benchmark: warm dirty-path vs cold solve.

Bootstraps a :class:`repro.core.session.SolveSession` on the two paper
workloads (helix length 4; synthetic 30S ribosome), applies a seeded
leaf-local constraint delta, and times three things:

* ``cold_solve`` — the full convergence bootstrap (what you would pay
  re-running the solve from scratch after the edit);
* ``warm_resolve`` — the session's dirty-path re-solve of the edit;
* ``full_resolve`` — one full-tree pass from the same warm start (the
  cache-free reference the warm result is checked bit-identical against).

Every molecule, starting estimate, and delta constraint is derived from
``--seed``, so runs are reproducible.

Standalone — no pytest-benchmark required::

    PYTHONPATH=src python benchmarks/bench_incremental.py --out BENCH_incremental.json

CI runs the quick form and gates the warm-over-cold speedup::

    PYTHONPATH=src python benchmarks/bench_incremental.py --quick \
        --out /tmp/bench.json --check-against BENCH_incremental.json
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path

import numpy as np

import repro.core  # noqa: F401  - must import before repro.molecules.*
from repro.constraints.distance import DistanceConstraint
from repro.core.session import SolveSession
from repro.molecules.ribosome import build_ribo30s
from repro.molecules.rna import build_helix
from repro.obs.regress import check_metric, incremental_entry
from repro.parallel import ProcessExecutor, ThreadExecutor

PROBLEMS = {
    "helix": lambda seed: build_helix(4),  # helix geometry is deterministic
    "ribosome": lambda seed: build_ribo30s(seed=seed),
}
BACKENDS = ("serial", "thread", "process")


def _make_executor(backend: str, workers: int):
    if backend == "serial":
        return None
    if backend == "thread":
        return ThreadExecutor(workers)
    return ProcessExecutor(workers)


def _leaf_delta(problem, rng: np.random.Generator) -> DistanceConstraint:
    """A seeded constraint local to one leaf (the minimal dirty path)."""
    leaves = problem.hierarchy.leaves()
    leaf = leaves[int(rng.integers(len(leaves)))]
    i, j = (int(a) for a in rng.choice(leaf.atoms, size=2, replace=False))
    d = float(np.linalg.norm(problem.true_coords[i] - problem.true_coords[j]))
    return DistanceConstraint(i, j, d, 0.01)


def _bench_one(
    pname: str,
    backend: str,
    cycles: int,
    workers: int,
    seed: int,
) -> dict:
    problem = PROBLEMS[pname](seed)
    rng = np.random.default_rng(seed)
    estimate = problem.initial_estimate(seed)
    executor = _make_executor(backend, workers)
    try:
        with SolveSession(
            problem.hierarchy,
            problem.constraints,
            batch_size=16,
            executor=executor,
        ) as session:
            t0 = time.perf_counter()
            session.solve(estimate, max_cycles=cycles, tol=0.0)
            cold_solve = time.perf_counter() - t0

            session.add_constraints([_leaf_delta(problem, rng)])
            t0 = time.perf_counter()
            warm = session.resolve()
            warm_resolve = time.perf_counter() - t0

            t0 = time.perf_counter()
            full = session.resolve(scope="full")
            full_resolve = time.perf_counter() - t0

            identical = bool(
                np.array_equal(warm.estimate.mean, full.estimate.mean)
                and np.array_equal(
                    warm.estimate.covariance, full.estimate.covariance
                )
            )
            n_nodes = len(problem.hierarchy.nodes)
            entry = {
                "backend": backend,
                "cycles": cycles,
                "n_nodes": n_nodes,
                "dirty_nodes": warm.n_dirty,
                "cached_subtrees_reused": warm.cache_hits,
                "cold_solve_seconds": cold_solve,
                "warm_resolve_seconds": warm_resolve,
                "full_resolve_seconds": full_resolve,
                "speedup_vs_cold_solve": cold_solve / warm_resolve,
                "speedup_vs_full_resolve": full_resolve / warm_resolve,
                "bit_identical_to_full_resolve": identical,
            }
    finally:
        if executor is not None:
            executor.close()
    print(
        f"{pname:9s} {backend:8s} cold {cold_solve:7.2f}s  "
        f"warm {warm_resolve:6.3f}s  full-pass {full_resolve:6.3f}s  "
        f"dirty {warm.n_dirty}/{n_nodes}  "
        f"speedup {entry['speedup_vs_cold_solve']:6.1f}x cold / "
        f"{entry['speedup_vs_full_resolve']:4.1f}x pass  "
        f"identical={identical}",
        flush=True,
    )
    return entry


def run_suite(problems, backends, cycles: int, workers: int, seed: int) -> dict:
    return {
        pname: [
            _bench_one(pname, backend, cycles, workers, seed)
            for backend in backends
        ]
        for pname in problems
    }


def _gate(report: dict, baseline_path: str | None, min_speedup: float) -> int:
    """Gate on the quick workload's serial warm-over-cold speedup.

    The committed baseline is informational context for the absolute
    numbers; the pass/fail criterion is the speedup ratio measured *in
    this run* (host-speed independent) plus bit-identity.
    """
    entries = report["results"].get("helix") or next(
        iter(report["results"].values())
    )
    entry = next(e for e in entries if e["backend"] == "serial")
    speedup = entry["speedup_vs_cold_solve"]
    baseline_speedup = None
    if baseline_path:
        with open(baseline_path) as fh:
            baseline = json.load(fh)
        baseline_speedup = float(incremental_entry(baseline)["speedup_vs_cold_solve"])
        print(
            f"baseline helix serial speedup: {baseline_speedup:.1f}x "
            f"(this run: {speedup:.1f}x)"
        )
    # Same judgment as ``repro obs regress``: absolute floor on the
    # speedup ratio (host-speed independent), bit-identity must hold.
    check = check_metric(
        "incremental.helix.serial.speedup_vs_cold_solve",
        [speedup],
        limit=min_speedup,
        direction="lower-is-worse",
        baseline=baseline_speedup,
    )
    print(f"incremental gate: {speedup:.2f}x warm-over-cold (min {min_speedup:.1f}x)")
    if not entry["bit_identical_to_full_resolve"]:
        print("incremental gate FAILED: warm result not bit-identical", file=sys.stderr)
        return 1
    if not check["ok"]:
        print("incremental gate FAILED: speedup below threshold", file=sys.stderr)
        return 1
    return 0


def _export_obs(obs_dir: str, cycles: int, seed: int) -> None:
    """Record one traced warm re-solve and drop obs artifacts.

    The timed benchmark runs stay uninstrumented; this extra session run
    exists so ``repro obs doctor`` can inspect the warm ``resolve[k]``
    pass (dirty-path node spans under the session spans).
    """
    from repro import obs

    out = Path(obs_dir)
    out.mkdir(parents=True, exist_ok=True)
    problem = PROBLEMS["helix"](seed)
    rng = np.random.default_rng(seed)
    estimate = problem.initial_estimate(seed)
    tracer, registry = obs.Tracer(), obs.MetricsRegistry()
    # Metrics outside tracing: the tracing() exit publishes the tracer's
    # self-cost gauge (obs.overhead_seconds) into the metrics scope.
    with SolveSession(
        problem.hierarchy, problem.constraints, batch_size=16
    ) as session, obs.metrics_scope(registry), obs.tracing(tracer):
        session.solve(estimate, max_cycles=cycles, tol=0.0)
        session.add_constraints([_leaf_delta(problem, rng)])
        session.resolve()
    obs.write_chrome_trace(tracer, out / "incremental_helix.trace.json")
    obs.write_spans_jsonl(tracer, out / "incremental_helix.spans.jsonl")
    obs.write_metrics_json(
        registry,
        out / "incremental_helix.metrics.json",
        extra={"benchmark": "incremental", "workload": "helix", "seed": seed},
    )
    plan = obs.plan_report(tracer, workers=[1, 2, 4, 8, 16], seed=seed)
    with open(out / "incremental_helix.plan.json", "w", encoding="utf-8") as fh:
        json.dump(plan, fh, indent=2)
        fh.write("\n")
    print(f"wrote obs artifacts to {out}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", default="BENCH_incremental.json")
    ap.add_argument("--cycles", type=int, default=8, help="bootstrap cycles")
    ap.add_argument("--workers", type=int, default=4)
    ap.add_argument(
        "--seed",
        type=int,
        default=0,
        help="seed for molecule generation, starting estimate, and the delta",
    )
    ap.add_argument(
        "--problems", nargs="+", choices=sorted(PROBLEMS), default=sorted(PROBLEMS)
    )
    ap.add_argument("--backends", nargs="+", choices=BACKENDS, default=list(BACKENDS))
    ap.add_argument(
        "--quick",
        action="store_true",
        help="helix + serial backend only, 4 bootstrap cycles (the CI smoke)",
    )
    ap.add_argument(
        "--check-against",
        metavar="BASELINE",
        help="print the committed baseline's figures next to this run's",
    )
    ap.add_argument(
        "--min-speedup",
        type=float,
        default=3.0,
        help="fail when the quick-workload serial warm-over-cold speedup is below this",
    )
    ap.add_argument(
        "--obs-dir",
        default=os.environ.get("REPRO_BENCH_OBS_DIR") or None,
        metavar="DIR",
        help="also record one traced warm re-solve and write obs artifacts "
        "(trace JSON, spans JSONL, metrics) into DIR; defaults to "
        "$REPRO_BENCH_OBS_DIR when set",
    )
    ap.add_argument(
        "--heartbeat",
        default=None,
        metavar="PATH[:SECS]",
        help="stream live metrics snapshots to this heartbeat JSONL while "
        "the suite runs ('repro obs top' renders it); the snapshotter's "
        "own cost lands in the report's environment block and is gated "
        "at <1%% of wall",
    )
    args = ap.parse_args(argv)

    problems = ["helix"] if args.quick else args.problems
    backends = ["serial"] if args.quick else args.backends
    cycles = 4 if args.quick else args.cycles

    import contextlib

    # Shared with the hot-path bench: environment block + <1%-of-wall gate.
    from bench_hotpath import _check_snapshotter_overhead, _environment

    snapshotter = None
    wall0 = time.perf_counter()
    with contextlib.ExitStack() as live:
        if args.heartbeat:
            from repro import obs

            path, period = obs.parse_heartbeat_spec(args.heartbeat)
            registry = obs.MetricsRegistry()
            live.enter_context(obs.metrics_scope(registry))
            snapshotter = live.enter_context(
                obs.TelemetrySnapshotter(registry, path, period=period)
            )
        results = run_suite(problems, backends, cycles, args.workers, args.seed)
    wall_seconds = time.perf_counter() - wall0
    if args.obs_dir:
        _export_obs(args.obs_dir, cycles, args.seed)
    report = {
        "workloads": {
            "helix": "build_helix(4): 170 atoms, 510 state dims",
            "ribosome": "build_ribo30s(): ~900 atoms, 2700 state dims",
        },
        "delta": "one seeded leaf-local DistanceConstraint (minimal dirty path)",
        "quick": args.quick,
        "cycles": cycles,
        "workers": args.workers,
        "seed": args.seed,
        "environment": _environment(snapshotter, wall_seconds),
        "results": results,
    }
    with open(args.out, "w") as fh:
        json.dump(report, fh, indent=2)
        fh.write("\n")
    print(f"wrote {args.out}")

    rc = _check_snapshotter_overhead(report["environment"])
    if args.quick or args.check_against:
        rc |= _gate(report, args.check_against, args.min_speedup)
    return rc


if __name__ == "__main__":
    sys.exit(main())
