"""The conformance-invariant catalogue run on every fuzzed scenario.

Each check takes a :class:`~repro.scenarios.generator.Scenario` and
verifies one cross-cutting claim the repository makes:

``backend_identity``
    One hierarchical cycle is *bit-identical* on the serial solver and
    every requested executor backend (PR 3/4's claim, extended to every
    generated topology, batch size and annealing schedule).
``warm_equals_cold``
    After the scenario's edit script, an incremental dirty-path
    ``resolve()`` equals a full re-solve of the edited problem from the
    same warm start, bitwise (PR 4's claim).
``vector_vs_reference``
    The production tier (``kernel_impl="vector"``: planned assembly of
    :mod:`repro.constraints.plan` feeding the symmetric kernels of
    :mod:`repro.linalg.fast`) agrees with the reference tier to tight
    relative tolerance on one full serial cycle.  ``backend_identity``
    covers the tier's parallel runs, because the scenario's options run
    it.
``fault_clean``
    A solve under the scenario's injected fault profile (NaN-poisoned
    kernels, failed factorizations, corrupted observation vectors — all
    recoverable channels) converges to the clean run's posterior.  The
    retry loop regularizes by ~1e-9 relative, so agreement is to
    ``FAULT_RTOL``, not bitwise.
``streaming``
    NMR-style arrival batches fed through ``SolveSession.resolve()``
    match a twin session re-solving in full at every arrival, bitwise;
    RMSD-to-ground-truth and constraint-row throughput are reported.

``run_scenario`` executes a selected subset and returns a structured
:class:`ScenarioReport`; the ``repro fuzz`` CLI and the property-test
suite are thin wrappers around it.
"""

from __future__ import annotations

import contextlib
from dataclasses import dataclass, field

import numpy as np

from repro.core.hier_solver import HierarchicalSolver
from repro.core.session import SolveSession
from repro.core.update import UpdateOptions
from repro.faults import fault_injection
from repro.faults.injector import FaultInjector
from repro.scenarios.generator import Scenario, apply_edit_script
from repro.scenarios.streaming import run_streaming
from repro.util.timer import Timer

#: Vector-vs-reference agreement (matches tests/test_fast_kernels.py).
FAST_RTOL = 1e-10
FAST_ATOL = 1e-10
#: Fault-vs-clean agreement, as max |Δ| over max magnitude: each
#: recovered retry regularizes S by jitter·growth^k (~1e-9 relative and
#: up), so posteriors drift measurably but boundedly — the worst drift
#: observed over a 60-seed calibration sweep was ~1e-7.
FAULT_RTOL = 1e-5

#: Catalogue order is execution order (cheapest first).
ALL_CHECKS = (
    "vector_vs_reference",
    "backend_identity",
    "warm_equals_cold",
    "fault_clean",
    "streaming",
)


@dataclass
class CheckResult:
    """Outcome of one invariant on one scenario."""

    name: str
    ok: bool
    seconds: float
    detail: str = ""
    metrics: dict = field(default_factory=dict)


@dataclass
class ScenarioReport:
    """All invariant outcomes for one scenario."""

    seed: int
    name: str
    spec: dict
    results: list[CheckResult] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(r.ok for r in self.results)

    @property
    def failures(self) -> list[CheckResult]:
        return [r for r in self.results if not r.ok]

    def to_dict(self) -> dict:
        return {
            "seed": self.seed,
            "name": self.name,
            "ok": self.ok,
            "spec": self.spec,
            "checks": [
                {
                    "name": r.name,
                    "ok": r.ok,
                    "seconds": r.seconds,
                    "detail": r.detail,
                    "metrics": r.metrics,
                }
                for r in self.results
            ],
        }


def _bitwise(a, b) -> bool:
    return np.array_equal(a.mean, b.mean) and np.array_equal(
        a.covariance, b.covariance
    )


def _max_rel_err(a, b) -> float:
    num = max(
        float(np.max(np.abs(a.mean - b.mean))),
        float(np.max(np.abs(a.covariance - b.covariance))),
    )
    den = max(1e-30, float(np.max(np.abs(b.mean))), float(np.max(np.abs(b.covariance))))
    return num / den


def _serial_cycle(scenario: Scenario, options: UpdateOptions | None = None):
    problem = scenario.problem
    hierarchy = scenario.fresh_hierarchy()
    from repro.core.hierarchy import assign_constraints

    assign_constraints(hierarchy, problem.constraints)
    solver = HierarchicalSolver(
        hierarchy,
        batch_size=scenario.spec.batch_size,
        options=options if options is not None else scenario.options,
    )
    return solver.run_cycle(scenario.initial_estimate())


# ------------------------------------------------------------- the checks
def check_vector_vs_reference(scenario: Scenario, executors=None) -> CheckResult:
    """Vector tier ≡ reference tier to rtol on one full serial cycle."""
    from dataclasses import replace

    timer = Timer()
    with timer:
        vec = _serial_cycle(
            scenario, replace(scenario.options, kernel_impl="vector")
        ).estimate
        ref = _serial_cycle(
            scenario, replace(scenario.options, kernel_impl="reference")
        ).estimate
        ok = bool(
            np.allclose(vec.mean, ref.mean, rtol=FAST_RTOL, atol=FAST_ATOL)
            and np.allclose(
                vec.covariance, ref.covariance, rtol=FAST_RTOL, atol=FAST_ATOL
            )
        )
    detail = "" if ok else f"max rel err {_max_rel_err(vec, ref):.3e}"
    return CheckResult("vector_vs_reference", ok, timer.elapsed, detail)


def check_backend_identity(scenario: Scenario, executors=None) -> CheckResult:
    """Serial ≡ thread ≡ process, bitwise, on one cycle."""
    from repro.core.hierarchy import assign_constraints
    from repro.parallel.scheduler import ParallelHierarchicalSolver

    timer = Timer()
    mismatches = []
    with timer:
        serial = _serial_cycle(scenario).estimate
        for name, executor in (executors or {}).items():
            hierarchy = scenario.fresh_hierarchy()
            assign_constraints(hierarchy, scenario.problem.constraints)
            par = ParallelHierarchicalSolver(
                hierarchy,
                batch_size=scenario.spec.batch_size,
                options=scenario.options,
                executor=executor,
            ).run_cycle(scenario.initial_estimate())
            if not _bitwise(par.estimate, serial):
                mismatches.append(
                    f"{name}: max rel err {_max_rel_err(par.estimate, serial):.3e}"
                )
    detail = "; ".join(mismatches) if mismatches else ""
    if not executors:
        detail = "no parallel backends requested (serial self-check only)"
    return CheckResult("backend_identity", not mismatches, timer.elapsed, detail)


def _booted_session(scenario: Scenario, **kwargs) -> SolveSession:
    session = SolveSession(
        scenario.fresh_hierarchy(),
        scenario.problem.constraints,
        batch_size=scenario.spec.batch_size,
        options=scenario.options,
        **kwargs,
    )
    session.solve(scenario.initial_estimate(), max_cycles=3, tol=1e-8)
    return session


def check_warm_equals_cold(scenario: Scenario, executors=None) -> CheckResult:
    """Edited-session dirty re-solve ≡ full re-solve from the warm start."""
    timer = Timer()
    with timer:
        warm = _booted_session(scenario)
        cold = _booted_session(scenario)
        try:
            apply_edit_script(warm, scenario)
            apply_edit_script(cold, scenario)
            dirty = warm.resolve(scope="dirty")
            full = cold.resolve(scope="full")
            ok = _bitwise(dirty.estimate, full.estimate)
            metrics = {
                "dirty_nodes": dirty.n_dirty,
                "total_nodes": len(warm.hierarchy.nodes),
                "cache_hits": dirty.cache_hits,
            }
            detail = (
                ""
                if ok
                else f"max rel err {_max_rel_err(dirty.estimate, full.estimate):.3e} "
                f"({dirty.n_dirty}/{len(warm.hierarchy.nodes)} dirty)"
            )
        finally:
            warm.close()
            cold.close()
    return CheckResult("warm_equals_cold", ok, timer.elapsed, detail, metrics)


def check_fault_clean(scenario: Scenario, executors=None) -> CheckResult:
    """Recoverable injected faults leave the posterior within FAULT_RTOL."""
    timer = Timer()
    with timer:
        clean = _serial_cycle(scenario).estimate
        scope = (
            fault_injection(FaultInjector(scenario.fault_config))
            if scenario.fault_config is not None
            else contextlib.nullcontext()
        )
        injector = None
        with scope as injector:
            faulted = _serial_cycle(scenario)
        rel_err = _max_rel_err(faulted.estimate, clean)
        ok = rel_err <= FAULT_RTOL and not faulted.quarantined
        injected = (
            {ch: n for ch, n in injector.injected.items() if n}
            if injector is not None
            else {}
        )
    detail = "" if ok else (
        f"max rel err {rel_err:.3e}, "
        f"quarantined={len(faulted.quarantined)}, injected={injected}"
    )
    if scenario.fault_config is None:
        detail = "no fault profile in spec (clean self-check)"
    return CheckResult(
        "fault_clean",
        ok,
        timer.elapsed,
        detail,
        {"injected": injected, "rel_err": rel_err},
    )


def check_streaming(scenario: Scenario, executors=None) -> CheckResult:
    """Streaming arrivals: warm ≡ full at every arrival; report RMSD/tput."""
    timer = Timer()
    with timer:
        report = run_streaming(scenario)
    ok = report.bit_identical_to_full
    detail = "" if ok else "incremental stream diverged from full re-solves"
    return CheckResult(
        "streaming",
        ok,
        timer.elapsed,
        detail,
        {
            "rmsd_initial": report.rmsd_initial,
            "rmsd_final": report.rmsd_final,
            "rows_per_second": report.rows_per_second,
            "arrivals": len(report.records),
        },
    )


CHECK_FUNCTIONS = {
    "vector_vs_reference": check_vector_vs_reference,
    "backend_identity": check_backend_identity,
    "warm_equals_cold": check_warm_equals_cold,
    "fault_clean": check_fault_clean,
    "streaming": check_streaming,
}


def run_scenario(
    scenario: Scenario,
    checks=ALL_CHECKS,
    executors: dict | None = None,
) -> ScenarioReport:
    """Run the selected invariants; ``executors`` maps backend name →
    long-lived :class:`~repro.parallel.executors.Executor` (reused across
    scenarios so a 50-scenario sweep pays pool spin-up once)."""
    report = ScenarioReport(
        seed=scenario.seed, name=scenario.name, spec=scenario.spec.to_dict()
    )
    for name in checks:
        try:
            result = CHECK_FUNCTIONS[name](scenario, executors=executors)
        except Exception as exc:  # a crash is a failed invariant, not a stop
            result = CheckResult(
                name, False, 0.0, f"{type(exc).__name__}: {exc}"
            )
        report.results.append(result)
    return report
