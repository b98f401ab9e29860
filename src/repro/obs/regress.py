"""Noise-aware benchmark regression diffing against committed baselines.

The repo commits two benchmark baselines (``BENCH_hotpath.json``,
``BENCH_incremental.json``).  This module is the one place that knows
how to read a headline metric out of them, how to take fresh quick
measurements of the same metrics, and how to compare the two without
flapping on timer noise:

* each fresh metric is measured ``repeats`` times (or read from several
  fresh report files) and summarized by **median and MAD** (median
  absolute deviation — robust to a single noisy repeat);
* a *higher-is-worse* metric (``seconds_per_row``) only fails
  when even its noise-discounted value ``median − k·MAD`` exceeds the
  allowed ``baseline × max_ratio``;
* a *lower-is-worse* metric (warm-over-cold ``speedup``) only fails
  when ``median + k·MAD`` is still below the absolute floor.

So a genuine 3× slowdown fails loudly (the discount is small relative
to the signal) while a single scheduler hiccup does not.  The verdict
document (``regress.json``) is machine-readable: every check carries
its samples, bands, limits and an ``ok`` flag, and failures are listed
by metric name.

Both benchmark runners (``benchmarks/bench_*.py``) and the ``repro obs
regress`` CLI gate through :func:`check_metric`, so the pass/fail
semantics cannot drift between CI and local runs.
"""

from __future__ import annotations

import json
import time
from typing import Sequence

import numpy as np

#: Gate defaults, shared with the benchmark runners' CLI flags.
DEFAULT_MAX_RATIO = 2.0
DEFAULT_MIN_SPEEDUP = 3.0
DEFAULT_MAD_K = 3.0


def median_mad(samples: Sequence[float]) -> tuple[float, float]:
    """Robust location/spread of a sample set: (median, MAD)."""
    arr = np.asarray(list(samples), dtype=np.float64)
    if arr.size == 0:
        raise ValueError("median_mad needs at least one sample")
    med = float(np.median(arr))
    return med, float(np.median(np.abs(arr - med)))


def check_metric(
    metric: str,
    samples: Sequence[float],
    limit: float,
    direction: str,
    baseline: float | None = None,
    mad_k: float = DEFAULT_MAD_K,
) -> dict:
    """Judge one metric's fresh samples against a limit, discounting noise.

    ``direction`` is ``"higher-is-worse"`` (regression = metric went up;
    the noise-discounted value ``median − k·MAD`` must stay ≤ limit) or
    ``"lower-is-worse"`` (regression = metric dropped; ``median + k·MAD``
    must stay ≥ limit).  ``baseline`` is carried through for reporting
    when the limit was derived from a committed figure.
    """
    if direction not in ("higher-is-worse", "lower-is-worse"):
        raise ValueError(f"unknown direction {direction!r}")
    med, mad = median_mad(samples)
    if direction == "higher-is-worse":
        effective = med - mad_k * mad
        ok = effective <= limit
    else:
        effective = med + mad_k * mad
        ok = effective >= limit
    return {
        "metric": metric,
        "direction": direction,
        "samples": [float(s) for s in samples],
        "median": med,
        "mad": mad,
        "mad_k": float(mad_k),
        "effective": float(effective),
        "limit": float(limit),
        "baseline": None if baseline is None else float(baseline),
        "ok": bool(ok),
    }


# ------------------------------------------------- reading benchmark reports
def hotpath_metric(report: dict) -> float:
    """The hot-path headline: helix / serial / fast seconds per row.

    Reads ``seconds_per_row``; committed baselines predating the rename
    still say ``seconds_per_constraint`` (the same number — one scalar
    constraint row), so that key is accepted as a reading alias.
    """
    for e in report["results"]["helix"]:
        if e["backend"] == "serial" and e["kernel_impl"] == "fast":
            value = e.get("seconds_per_row", e.get("seconds_per_constraint"))
            if value is None:
                raise KeyError(
                    "helix/serial/fast entry has neither seconds_per_row "
                    "nor the legacy seconds_per_constraint key"
                )
            return float(value)
    raise KeyError("helix/serial/fast entry missing from hotpath report")


def incremental_entry(report: dict) -> dict:
    """The incremental headline entry: helix / serial session figures."""
    for e in report["results"]["helix"]:
        if e["backend"] == "serial":
            return e
    raise KeyError("helix/serial entry missing from incremental report")


def _load(path) -> dict:
    with open(path) as fh:
        return json.load(fh)


# ------------------------------------------------------- fresh measurements
def measure_hotpath(repeats: int = 3, seed: int = 0) -> list[float]:
    """Fresh helix/serial/fast seconds-per-row samples, one per repeat.

    Mirrors ``benchmarks/bench_hotpath.py --quick`` exactly (same
    workload, batch size and kernel options) but keeps every repeat as
    its own sample instead of taking the best, so the caller can reason
    about noise.
    """
    from repro.core.update import UpdateOptions
    from repro.molecules.rna import build_helix
    from repro.parallel import ParallelHierarchicalSolver, SerialExecutor

    problem = build_helix(4)
    problem.assign()
    estimate = problem.initial_estimate(seed)
    options = UpdateOptions(kernel_impl="fast")
    samples = []
    with SerialExecutor() as executor:
        solver = ParallelHierarchicalSolver(
            problem.hierarchy,
            batch_size=16,
            options=options,
            executor=executor,
        )
        solver.run_cycle(estimate)  # warm-up: imports, caches, allocator
        for _ in range(repeats):
            t0 = time.perf_counter()
            solver.run_cycle(estimate)
            samples.append((time.perf_counter() - t0) / solver.n_constraint_rows)
    return samples


def measure_incremental(
    repeats: int = 3, cycles: int = 4, seed: int = 0
) -> tuple[list[float], bool]:
    """Fresh helix/serial warm-over-cold speedup samples + bit-identity.

    Mirrors ``benchmarks/bench_incremental.py --quick``: bootstrap a
    session, apply a seeded leaf-local delta, time the dirty-path
    re-solve against the cold solve.  Each repeat is an independent
    session so cache state cannot leak between samples.  Returns the
    speedup samples and whether *every* repeat's warm result was
    bit-identical to the cache-free full pass.
    """
    import repro.core  # noqa: F401  - must import before repro.molecules.*
    from repro.constraints.distance import DistanceConstraint
    from repro.core.session import SolveSession
    from repro.molecules.rna import build_helix

    problem = build_helix(4)
    samples = []
    identical = True
    for _ in range(repeats):
        rng = np.random.default_rng(seed)
        estimate = problem.initial_estimate(seed)
        leaves = problem.hierarchy.leaves()
        leaf = leaves[int(rng.integers(len(leaves)))]
        i, j = (int(a) for a in rng.choice(leaf.atoms, size=2, replace=False))
        d = float(np.linalg.norm(problem.true_coords[i] - problem.true_coords[j]))
        delta = DistanceConstraint(i, j, d, 0.01)
        with SolveSession(
            problem.hierarchy, problem.constraints, batch_size=16
        ) as session:
            t0 = time.perf_counter()
            session.solve(estimate, max_cycles=cycles, tol=0.0)
            cold = time.perf_counter() - t0
            session.add_constraints([delta])
            t0 = time.perf_counter()
            warm = session.resolve()
            warm_s = time.perf_counter() - t0
            full = session.resolve(scope="full")
            identical = identical and bool(
                np.array_equal(warm.estimate.mean, full.estimate.mean)
                and np.array_equal(warm.estimate.covariance, full.estimate.covariance)
            )
        samples.append(cold / warm_s)
    return samples, identical


# ------------------------------------------------------------- the verdict
def run_regress(
    hotpath_baseline=None,
    incremental_baseline=None,
    fresh_hotpath: Sequence | None = None,
    fresh_incremental: Sequence | None = None,
    repeats: int = 3,
    max_ratio: float = DEFAULT_MAX_RATIO,
    min_speedup: float = DEFAULT_MIN_SPEEDUP,
    mad_k: float = DEFAULT_MAD_K,
    seed: int = 0,
    plan_trace=None,
    plan_max_drift: float | None = None,
) -> dict:
    """Diff fresh benchmark figures against the committed baselines.

    Baseline paths select which gates run (skip one by passing None).
    Fresh figures come from report files written by the benchmark
    runners (``fresh_*`` paths, one sample per report) when given, and
    are measured in-process otherwise (``repeats`` samples each).
    ``plan_trace`` adds the capacity-planner honesty gate: the trace is
    re-simulated at its own lane count and the prediction must land
    within ``plan_max_drift`` of the measured wall time.  Returns the
    ``regress.json`` document: overall ``ok``, every check with its
    samples and bands, the failing metric names, and an ``environment``
    block recording how the fresh figures were produced.
    """
    checks: list[dict] = []
    if hotpath_baseline is not None:
        base = hotpath_metric(_load(hotpath_baseline))
        if fresh_hotpath:
            samples = [hotpath_metric(_load(p)) for p in fresh_hotpath]
        else:
            samples = measure_hotpath(repeats=repeats, seed=seed)
        checks.append(
            check_metric(
                "hotpath.helix.serial.fast.seconds_per_row",
                samples,
                limit=base * max_ratio,
                direction="higher-is-worse",
                baseline=base,
                mad_k=mad_k,
            )
        )
    if incremental_baseline is not None:
        base_entry = incremental_entry(_load(incremental_baseline))
        if fresh_incremental:
            entries = [incremental_entry(_load(p)) for p in fresh_incremental]
            samples = [float(e["speedup_vs_cold_solve"]) for e in entries]
            identical = all(e["bit_identical_to_full_resolve"] for e in entries)
        else:
            samples, identical = measure_incremental(repeats=repeats, seed=seed)
        checks.append(
            check_metric(
                "incremental.helix.serial.speedup_vs_cold_solve",
                samples,
                limit=min_speedup,
                direction="lower-is-worse",
                baseline=float(base_entry["speedup_vs_cold_solve"]),
                mad_k=mad_k,
            )
        )
        checks.append(
            {
                "metric": "incremental.helix.serial.bit_identical_to_full_resolve",
                "direction": "must-hold",
                "samples": [1.0 if identical else 0.0],
                "median": 1.0 if identical else 0.0,
                "mad": 0.0,
                "mad_k": float(mad_k),
                "effective": 1.0 if identical else 0.0,
                "limit": 1.0,
                "baseline": 1.0,
                "ok": bool(identical),
            }
        )
    if plan_trace is not None:
        from repro.obs.export import load_trace
        from repro.obs.planner import DEFAULT_MAX_DRIFT, planner_input, self_validation

        drift_limit = (
            plan_max_drift if plan_max_drift is not None else DEFAULT_MAX_DRIFT
        )
        inp = planner_input(load_trace(plan_trace))
        v = self_validation(inp, max_drift=drift_limit)
        checks.append(
            check_metric(
                f"planner.{inp.label}.prediction_drift",
                [v["rel_error"]],
                limit=drift_limit,
                direction="higher-is-worse",
                baseline=0.0,
                mad_k=mad_k,
            )
        )
    failures = [c["metric"] for c in checks if not c["ok"]]
    fresh_measured = bool(
        (hotpath_baseline is not None and not fresh_hotpath)
        or (incremental_baseline is not None and not fresh_incremental)
    )
    # How the fresh figures were produced — pinned so a regress.json read
    # later (or on another host) is self-describing about its conditions.
    environment = {
        "backend": "serial",
        "workers": 1,
        "kernel_impl": "fast",
        "batch_size": 16,
        "quick": fresh_measured,
        "repeats": int(repeats),
        "seed": int(seed),
        "fresh_hotpath_reports": [str(p) for p in (fresh_hotpath or [])],
        "fresh_incremental_reports": [str(p) for p in (fresh_incremental or [])],
        "plan_trace": None if plan_trace is None else str(plan_trace),
    }
    return {
        "ok": not failures,
        "checks": checks,
        "failures": failures,
        "environment": environment,
    }


def format_regress_report(report: dict) -> str:
    """One line per check, gate-style, plus the overall verdict."""
    lines = []
    for c in report["checks"]:
        mark = "ok  " if c["ok"] else "FAIL"
        base = "" if c["baseline"] is None else f" baseline {c['baseline']:.4g}"
        lines.append(
            f"{mark} {c['metric']}: median {c['median']:.4g} "
            f"(MAD {c['mad']:.2g}, effective {c['effective']:.4g}) "
            f"vs limit {c['limit']:.4g} [{c['direction']}]{base}"
        )
    lines.append(
        "regress: PASS"
        if report["ok"]
        else "regress: FAIL (" + ", ".join(report["failures"]) + ")"
    )
    return "\n".join(lines)
