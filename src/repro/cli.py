"""Command-line interface: generate, inspect, solve and simulate problems.

Usage::

    python -m repro generate helix --length 8 --out helix8.npz
    python -m repro generate ribo30s --out ribo.npz
    python -m repro generate protein --out prot.npz
    python -m repro info helix8.npz
    python -m repro solve helix8.npz --out solved.npz --cycles 20 \
        --decomposition saved --anneal 100,0.5
    python -m repro solve helix8.npz --trace trace.json \
        --metrics-out metrics.json --obs-summary
    python -m repro solve helix8.npz --session-dir sess/ --cycles 20
    python -m repro resolve --session-dir sess/ --add dist:3:40:5.2:0.01 \
        --out warm.npz
    python -m repro simulate helix8.npz --machine dash --processors 1,2,4,8
    python -m repro solve helix8.npz --heartbeat hb.jsonl:0.5 \
        --flight-dir flights/
    python -m repro obs top hb.jsonl --once --slo cycle.seconds:2.0:0.95
    python -m repro obs doctor trace.jsonl --problem helix8.npz --top 100
    python -m repro fuzz --seed 0 --budget 50 --backends thread
    python -m repro fuzz --seed 17 --budget 1 --minimize

``fuzz`` sweeps seeded random scenarios through the conformance harness
(:mod:`repro.scenarios`) and reports every invariant violation with a
reproducing seed (``--minimize`` shrinks the spec first);
``solve`` writes the posterior estimate (plus, with ``--out``, a
``<out>.summary.json`` sidecar with convergence and robustness stats);
``--trace``/``--metrics-out``/``--obs-summary`` export the
:mod:`repro.obs` timeline and metrics (see docs/observability.md);
``simulate`` prices one recorded cycle of the saved problem on a modeled
machine (Tables 3-6 style); ``obs doctor`` analyzes a recorded trace
post-hoc (critical path, worker utilization, Equation-1 drift).

The *live* telemetry plane rides along with any solve: ``--heartbeat
PATH[:SECS]`` streams metrics snapshots to a JSONL file that ``repro obs
top`` renders while the run is still going, and ``--flight-dir DIR``
lets the always-on flight recorder write forensic event dumps when a
terminal batch failure, quarantine, resubmission or pool rebuild fires
(see docs/observability.md).
"""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np


def _cmd_generate(args: argparse.Namespace) -> int:
    from repro import io as rio

    if args.workload == "helix":
        from repro.molecules.rna import build_helix

        problem = build_helix(args.length)
    elif args.workload == "ribo30s":
        from repro.molecules.ribosome import build_ribo30s

        problem = build_ribo30s(seed=args.seed)
    elif args.workload == "protein":
        from repro.molecules.protein import build_protein

        problem = build_protein(seed=args.seed)
    else:  # pragma: no cover - argparse restricts choices
        raise ValueError(args.workload)
    rio.save_problem(args.out, problem)
    print(
        f"wrote {args.out}: {problem.name}, {problem.n_atoms} atoms, "
        f"{problem.n_constraint_rows} constraint rows"
    )
    return 0


def _cmd_info(args: argparse.Namespace) -> int:
    from repro import io as rio

    problem = rio.load_problem(args.problem)
    problem.assign()
    h = problem.hierarchy
    print(f"name:            {problem.name}")
    print(f"atoms:           {problem.n_atoms} (state dimension {problem.state_dim})")
    print(f"constraints:     {problem.n_constraints} ({problem.n_constraint_rows} rows)")
    print(f"hierarchy:       {len(h)} nodes, height {h.height()}, {len(h.leaves())} leaves")
    print(f"leaf capture:    {h.leaf_constraint_fraction():.1%} of constraint rows")
    print("rows per level:  " + ", ".join(
        f"{level}: {rows}" for level, rows in sorted(h.constraint_rows_by_level().items())
    ))
    return 0


def _parse_anneal(text: str | None) -> tuple[float, float] | None:
    if not text:
        return None
    try:
        start, decay = (float(v) for v in text.split(","))
    except ValueError as exc:
        raise SystemExit(f"--anneal expects 'start,decay', got {text!r}") from exc
    return start, decay


def _parse_batch_anneal(text: str | None):
    """``start,decay[,floor]`` → :class:`~repro.core.update.AnnealSchedule`."""
    if not text:
        return None
    from repro.core.update import AnnealSchedule

    try:
        return AnnealSchedule.parse(text)
    except ValueError as exc:  # covers DimensionError and bad floats
        raise SystemExit(f"--batch-anneal: {exc}") from exc


def _usable_cores() -> int:
    """CPUs this process may run on: the default ``--workers``."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity API on this platform
        return os.cpu_count() or 1


def _make_executor(backend: str, workers: int):
    """Backend flag → executor (``None`` = the serial post-order solver)."""
    if backend == "serial":
        return None
    from repro.parallel.executors import ProcessExecutor, ThreadExecutor

    cls = ThreadExecutor if backend == "thread" else ProcessExecutor
    return cls(workers)


def _parse_constraint_spec(spec: str):
    """``dist:i:j:d[:var]`` → a :class:`DistanceConstraint`."""
    from repro.constraints.distance import DistanceConstraint

    parts = spec.split(":")
    if parts[0] not in ("dist", "distance") or len(parts) not in (4, 5):
        raise SystemExit(
            f"--add expects 'dist:i:j:d[:var]', got {spec!r}"
        )
    try:
        i, j = int(parts[1]), int(parts[2])
        d = float(parts[3])
        var = float(parts[4]) if len(parts) == 5 else 0.01
    except ValueError as exc:
        raise SystemExit(f"--add: bad number in {spec!r}") from exc
    return DistanceConstraint(i, j, d, var)


def _enter_live_plane(stack, args, tracer=None, registry=None):
    """Activate the always-on flight recorder and optional heartbeat export.

    The recorder records unconditionally into its bounded ring; it writes
    forensic dump artifacts only when ``--flight-dir`` names a directory
    (worker-side triggers still ship home and fire here either way).
    ``--heartbeat PATH[:SECS]`` additionally starts a
    :class:`~repro.obs.TelemetrySnapshotter`; the caller must then pass
    the registry it has already placed in scope.  Returns the recorder so
    the caller can report any dumps written.
    """
    from repro import obs

    recorder = obs.FlightRecorder(dump_dir=getattr(args, "flight_dir", None))
    stack.enter_context(obs.flight_recording(recorder))
    heartbeat = getattr(args, "heartbeat", None)
    if heartbeat:
        try:
            path, period = obs.parse_heartbeat_spec(heartbeat)
        except ValueError as exc:
            raise SystemExit(f"--heartbeat: {exc}") from exc
        stack.enter_context(
            obs.TelemetrySnapshotter(
                registry, path, period=period, tracer=tracer, recorder=recorder
            )
        )
    return recorder


def _report_flight_dumps(recorder) -> None:
    for path in getattr(recorder, "dumps", []):
        print(f"wrote flight dump to {path}")


def _cmd_resolve(args: argparse.Namespace) -> int:
    """Warm incremental re-solve against a saved session directory."""
    import contextlib

    from repro import io as rio
    from repro import obs
    from repro.core.session import SolveSession
    from repro.errors import CheckpointError

    registry = obs.MetricsRegistry() if args.heartbeat else None
    executor = _make_executor(args.backend, args.workers)
    try:
        stack = contextlib.ExitStack()
        with stack:
            if registry is not None:
                stack.enter_context(obs.metrics_scope(registry))
            recorder = _enter_live_plane(stack, args, registry=registry)
            try:
                session = SolveSession.load(args.session_dir, executor=executor)
            except CheckpointError as exc:
                raise SystemExit(f"cannot re-solve {args.session_dir}: {exc}") from exc
            stack.callback(session.close)
            if session.unfinished_cycle is not None:
                raise SystemExit(
                    f"{args.session_dir} holds a solve interrupted in cycle "
                    f"{session.unfinished_cycle}; re-run its 'repro solve' "
                    "command to finish it first"
                )
            if session.dirty_nids:
                print(
                    f"resuming interrupted re-solve: "
                    f"{len(session.dirty_nids)} dirty nodes outstanding"
                )
            if args.add:
                cids = session.add_constraints(
                    [_parse_constraint_spec(s) for s in args.add]
                )
                print("added constraint ids: " + ", ".join(map(str, cids)))
            if args.drop:
                session.remove_constraints(args.drop)
                print(f"dropped {len(args.drop)} constraints")
            result = session.resolve(scope=args.scope)
            # Written before the report, as in ``solve``.
            if args.out:
                rio.save_estimate(args.out, result.estimate)
            total = len(session.hierarchy.nodes)
            print(
                f"re-solved {result.n_dirty}/{total} nodes "
                f"(generation {result.generation}, {result.cache_hits} cached "
                f"subtrees reused) in {result.seconds:.3f}s"
            )
            if args.out:
                print(f"wrote estimate to {args.out}")
    finally:
        if executor is not None:
            executor.close()
    _report_flight_dumps(recorder)
    return 0


def _open_session(args, problem, options, initial, executor):
    """The session a durable (``--session-dir``) or parallel solve runs on.

    A directory that records an unfinished solve of this very problem —
    the same constraints in order, hierarchy, batch size, update options
    and initial estimate — is resumed; any other run in it is discarded.
    """
    from repro.core.estimator import build_hierarchy
    from repro.core.session import SolveSession
    from repro.errors import CheckpointError
    from repro.faults import SessionStore

    hierarchy = (
        problem.hierarchy
        if args.decomposition == "saved"
        else build_hierarchy(args.decomposition, problem.constraints, initial.coords)
    )
    if args.session_dir and SessionStore(args.session_dir).has_manifest():
        try:
            old = SolveSession.load(args.session_dir, executor=executor)
        except CheckpointError as exc:
            print(f"discarded the previous run in {args.session_dir}: {exc}")
        else:
            if old.resumes(
                hierarchy,
                problem.constraints,
                batch_size=args.batch,
                options=options,
                initial=initial,
            ):
                total = len(old.hierarchy.nodes)
                print(
                    f"resuming interrupted solve at cycle {old.unfinished_cycle} "
                    f"({total - len(old.dirty_nids)}/{total} nodes done)"
                )
                return old
            old.close()
            print(f"discarded the previous run in {args.session_dir}")
    return SolveSession(
        hierarchy,
        problem.constraints,
        batch_size=args.batch,
        options=options,
        executor=executor,
        store=args.session_dir,
    )


def _cmd_solve(args: argparse.Namespace) -> int:
    import contextlib

    from repro import io as rio
    from repro import obs
    from repro.core.estimator import Solution, StructureEstimator
    from repro.core.update import UpdateOptions
    from repro.errors import WorkerCrashError
    from repro.faults import FaultConfig, FaultInjector, fault_injection

    if args.cycles < 1:
        raise SystemExit(f"--cycles must be at least 1, got {args.cycles}")
    problem = rio.load_problem(args.problem)
    # Durable and parallel solves run on a SolveSession, whose cached
    # posteriors need a hierarchy and a constant noise scale.
    on_session = bool(args.session_dir) or args.backend != "serial"
    if on_session and args.anneal:
        raise SystemExit("--session-dir and a parallel --backend do not support "
                         "--anneal (cached posteriors need a constant noise "
                         "scale; --batch-anneal composes)")
    if on_session and args.decomposition == "flat":
        raise SystemExit("--session-dir and a parallel --backend need a "
                         "hierarchy; --decomposition flat has none")
    options = UpdateOptions(
        local_iterations=args.local_iterations,
        max_retries=args.max_retries,
        schedule=_parse_batch_anneal(args.batch_anneal),
    )
    initial = problem.initial_estimate(args.seed)
    injector = None
    scope = contextlib.nullcontext()
    if args.faults:
        try:
            injector = FaultInjector(FaultConfig.parse(args.faults))
        except ValueError as exc:
            raise SystemExit(f"--faults: {exc}") from exc
        scope = fault_injection(injector)
    tracer = obs.Tracer() if (args.trace or args.obs_summary) else None
    registry = (
        obs.MetricsRegistry()
        if (args.metrics_out or args.obs_summary or args.heartbeat)
        else None
    )
    executor = _make_executor(args.backend, args.workers)
    try:
        with contextlib.ExitStack() as stack:
            stack.enter_context(scope)
            # Metrics outside tracing: the tracing() exit publishes the
            # tracer's self-cost gauge into the still-active metrics scope.
            if registry is not None:
                stack.enter_context(obs.metrics_scope(registry))
            recorder = _enter_live_plane(stack, args, tracer=tracer, registry=registry)
            if tracer is not None:
                stack.enter_context(obs.tracing(tracer))
            if on_session:
                session = stack.enter_context(
                    _open_session(args, problem, options, initial, executor)
                )
                report = session.solve(
                    initial, max_cycles=args.cycles, tol=args.tol, gauge_invariant=True
                )
                solution = Solution(report.estimate, report)
                n_nodes = len(session.hierarchy.nodes)
            else:
                estimator = StructureEstimator(
                    problem.n_atoms,
                    problem.constraints,
                    decomposition=(
                        problem.hierarchy
                        if args.decomposition == "saved"
                        else args.decomposition
                    ),
                    batch_size=args.batch,
                    options=options,
                )
                solution = estimator.solve(
                    initial,
                    max_cycles=args.cycles,
                    tol=args.tol,
                    anneal=_parse_anneal(args.anneal),
                )
    except WorkerCrashError as exc:
        hint = (
            f"; re-run the same command to resume from {args.session_dir}"
            if args.session_dir
            else ""
        )
        raise SystemExit(f"solve interrupted: {exc}{hint}") from exc
    finally:
        if executor is not None:
            executor.close()
    report = solution.report
    coords = solution.coords
    residuals = [float(np.abs(c.residual(coords)).mean()) for c in problem.constraints]
    # Every file is written before anything is printed, so a reader that
    # closes stdout early (``repro solve ... | head``) costs none of them.
    wrote = []
    if args.trace and tracer is not None:
        if str(args.trace).endswith(".jsonl"):
            obs.write_spans_jsonl(tracer, args.trace)
        else:
            obs.write_chrome_trace(tracer, args.trace)
        wrote.append(f"wrote trace to {args.trace}")
    if args.metrics_out and registry is not None:
        obs.write_metrics_json(
            registry, args.metrics_out, extra={"problem": problem.name}
        )
        wrote.append(f"wrote metrics to {args.metrics_out}")
    if args.out:
        rio.save_estimate(args.out, solution.estimate)
        summary_path = _write_solve_summary(
            args, problem, solution, injector, residuals
        )
    print(
        f"{'converged' if report.converged else 'stopped'} after {report.cycles} "
        f"cycles (last delta {report.deltas[-1]:.3g})"
    )
    if args.session_dir:
        print(f"session saved to {args.session_dir} "
              f"({n_nodes} cached node posteriors)")
    print(f"mean |residual|: {float(np.mean(residuals)):.4f}")
    print(f"mean atom uncertainty: {solution.estimate.atom_uncertainty().mean():.3f}")
    if report.retries or report.quarantine:
        recovered = sum(1 for r in report.retries if r.succeeded)
        print(
            f"recovered batch updates: {recovered}; quarantined "
            f"constraints: {report.quarantined_constraints} "
            f"({report.quarantined_rows} rows)"
        )
    if injector is not None:
        injected = {
            ch: c["injected"] for ch, c in injector.summary().items() if c["injected"]
        }
        print(f"injected faults: {injected if injected else 'none'}")
    for line in wrote:
        print(line)
    if args.obs_summary and tracer is not None and registry is not None:
        print()
        print(obs.format_obs_summary(tracer, registry))
    _report_flight_dumps(recorder)
    if args.out:
        print(f"wrote estimate to {args.out}")
        print(f"wrote summary to {summary_path}")
    return 0


def _write_solve_summary(args, problem, solution, injector, residuals):
    """Sidecar ``<out>.summary.json`` with convergence and robustness stats."""
    import json
    from pathlib import Path

    report = solution.report
    out = Path(args.out)
    path = out.parent / (out.stem + ".summary.json")
    recovered = sum(1 for r in report.retries if r.succeeded)
    summary = {
        "problem": problem.name,
        "n_atoms": problem.n_atoms,
        "converged": bool(report.converged),
        "cycles": int(report.cycles),
        "last_delta": float(report.deltas[-1]) if report.deltas else None,
        "mean_abs_residual": float(np.mean(residuals)) if residuals else None,
        "mean_atom_uncertainty": float(
            solution.estimate.atom_uncertainty().mean()
        ),
        "robustness": {
            "retried_batch_updates": len(report.retries),
            "recovered_batch_updates": recovered,
            "quarantined_batches": len(report.quarantine),
            "quarantined_constraints": int(report.quarantined_constraints),
            "quarantined_rows": int(report.quarantined_rows),
        },
        "faults_injected": (
            {ch: c["injected"] for ch, c in injector.summary().items()}
            if injector is not None
            else None
        ),
        "artifacts": {
            "estimate": str(args.out),
            "trace": str(args.trace) if args.trace else None,
            "metrics": str(args.metrics_out) if args.metrics_out else None,
        },
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(summary, fh, indent=2)
        fh.write("\n")
    return path


def _cmd_obs_doctor(args: argparse.Namespace) -> int:
    import json

    from repro import obs
    from repro.core.workmodel import analytic_work_model
    from repro.errors import TraceAnalysisError

    if not str(args.trace).endswith(".jsonl"):
        raise SystemExit(
            f"{args.trace} is not a spans log: Chrome trace JSON is a write-only "
            "view for Perfetto; record one with 'repro solve --trace PATH.jsonl'"
        )
    try:
        tracer = obs.read_spans_jsonl(args.trace)
    except (OSError, ValueError) as exc:
        raise SystemExit(f"cannot load trace {args.trace}: {exc}") from exc
    hierarchy = None
    if args.problem:
        from repro import io as rio

        hierarchy = rio.load_problem(args.problem).hierarchy
    model = analytic_work_model(args.flop_rate) if args.flop_rate else None
    try:
        report = obs.doctor_report(tracer, hierarchy=hierarchy, model=model)
    except TraceAnalysisError as exc:
        raise SystemExit(f"cannot analyze {args.trace}: {exc}") from exc
    print(obs.format_doctor_report(report, top=args.top))
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(report, fh, indent=2)
            fh.write("\n")
        print(f"\nwrote report to {args.out}")
    return 0


def _cmd_obs_top(args: argparse.Namespace) -> int:
    """Terminal view of a heartbeat file; --once renders one frame (CI)."""
    import time
    from pathlib import Path

    from repro import obs

    slo = None
    if args.slo:
        try:
            slo = obs.SLOSpec.parse(args.slo)
        except ValueError as exc:
            raise SystemExit(f"--slo: {exc}") from exc
    path = Path(args.heartbeat)

    def frame() -> tuple[str, int]:
        if not path.exists():
            return f"waiting for heartbeat file {path} ...", 0
        meta, rows = obs.read_heartbeats(path)
        view = obs.render_top(meta, rows, slo=slo, window=args.window, path=path)
        return view, len(rows)

    if args.once:
        view, beats = frame()
        print(view)
        if not beats:
            print("error: no heartbeat rows found", file=sys.stderr)
            return 1
        return 0
    try:
        while True:
            view, _ = frame()
            # Clear screen + home, like top(1); plain reprint elsewhere.
            prefix = "\x1b[2J\x1b[H" if sys.stdout.isatty() else ""
            print(prefix + view, flush=True)
            time.sleep(args.interval)
    except KeyboardInterrupt:
        return 0


def _cmd_fuzz(args: argparse.Namespace) -> int:
    """Sweep seeded scenarios through the conformance harness."""
    import json

    from repro.scenarios import (
        ALL_CHECKS,
        build_scenario,
        generate_scenario,
        minimize_spec,
        run_scenario,
    )
    from repro.scenarios.generator import ScenarioSpec

    if args.checks == "all":
        checks = ALL_CHECKS
    else:
        checks = tuple(c.strip() for c in args.checks.split(",") if c.strip())
        unknown = [c for c in checks if c not in ALL_CHECKS]
        if unknown:
            raise SystemExit(
                f"--checks: unknown {', '.join(unknown)} "
                f"(choose from {', '.join(ALL_CHECKS)})"
            )
    executors: dict = {}
    for backend in (b.strip() for b in args.backends.split(",") if b.strip()):
        if backend == "serial":
            continue  # serial is the reference every run already includes
        if backend not in ("thread", "process"):
            raise SystemExit(f"--backends: unknown backend {backend!r}")
        executors[backend] = _make_executor(backend, args.workers)
    # The sweep runs under the live plane: the flight recorder rides along
    # (the bit-identity checks must hold with it enabled) and --heartbeat
    # streams sweep-wide metrics for 'repro obs top'.
    import contextlib

    from repro import obs

    live = contextlib.ExitStack()
    registry = obs.MetricsRegistry() if args.heartbeat else None
    if registry is not None:
        live.enter_context(obs.metrics_scope(registry))
    _enter_live_plane(live, args, registry=registry)
    reports = []
    failing = []
    try:
        for seed in range(args.seed, args.seed + args.budget):
            scenario = generate_scenario(seed)
            report = run_scenario(scenario, checks=checks, executors=executors)
            reports.append(report)
            spec = scenario.spec
            status = "ok  " if report.ok else "FAIL"
            elapsed = sum(r.seconds for r in report.results)
            print(
                f"{status} seed={seed} {spec.topology}/{spec.n_atoms} atoms "
                f"noise={spec.noise} batch={spec.batch_size}"
                f"{' anneal' if spec.anneal else ''}"
                f"{' faults' if spec.faults else ''}"
                f"{' leaf-only' if spec.leaf_only else ''} "
                f"({elapsed:.2f}s)"
            )
            for r in report.failures:
                print(f"     {r.name}: {r.detail}")
            if not report.ok:
                failing.append(report)
        artifacts = []
        for report in failing:
            entry = {
                "seed": report.seed,
                "failed_checks": [r.name for r in report.failures],
                "spec": report.spec,
                "repro": f"python -m repro fuzz --seed {report.seed} --budget 1",
            }
            if args.minimize:
                failed_names = tuple(r.name for r in report.failures)

                def still_fails(sc) -> bool:
                    return not run_scenario(
                        sc, checks=failed_names, executors=executors
                    ).ok

                minimized = minimize_spec(
                    ScenarioSpec.from_dict(report.spec), still_fails
                )
                entry["minimized_spec"] = minimized.to_dict()
                print(
                    f"minimized seed {report.seed}: "
                    f"{minimized.topology}/{minimized.n_atoms} atoms, "
                    f"{minimized.n_constraints} constraints, "
                    f"kinds={','.join(minimized.kinds)}"
                )
                # Confirm the shrunken spec still reproduces standalone.
                if not still_fails(build_scenario(minimized)):
                    print("  (warning: minimized spec no longer fails; "
                          "keeping the original)")
                    entry.pop("minimized_spec")
            artifacts.append(entry)
    finally:
        live.close()
        for executor in executors.values():
            executor.close()
    # Streaming metrics roll-up over the sweep (reported, not asserted).
    stream = [
        r.metrics
        for rep in reports
        for r in rep.results
        if r.name == "streaming" and r.metrics
    ]
    if stream:
        import numpy as _np

        improved = sum(
            1 for m in stream if m["rmsd_final"] <= m["rmsd_initial"]
        )
        print(
            f"streaming: {improved}/{len(stream)} scenarios improved RMSD; "
            f"median incremental throughput "
            f"{float(_np.median([m['rows_per_second'] for m in stream])):.0f} rows/s"
        )
    print(
        f"{len(reports)} scenarios, {len(checks)} checks each: "
        f"{len(reports) - len(failing)} passed, {len(failing)} failed"
    )
    if args.fail_artifact and failing:
        with open(args.fail_artifact, "w", encoding="utf-8") as fh:
            json.dump({"failures": artifacts}, fh, indent=2)
            fh.write("\n")
        print(f"wrote failing-seed artifact to {args.fail_artifact}")
    if args.out:
        doc = {
            "seed": args.seed,
            "budget": args.budget,
            "ran": len(reports),
            "checks": list(checks),
            "backends": sorted(executors) + ["serial"],
            "ok": not failing,
            "scenarios": [r.to_dict() for r in reports],
        }
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=2)
            fh.write("\n")
        print(f"wrote report to {args.out}")
    return 1 if failing else 0


def _cmd_simulate(args: argparse.Namespace) -> int:
    from repro import io as rio
    from repro.core.hier_solver import HierarchicalSolver
    from repro.core.update import UpdateOptions
    from repro.machine import CHALLENGE, DASH, simulate_solve
    from repro.machine.trace import format_speedup_table

    problem = rio.load_problem(args.problem)
    problem.assign()
    machine = DASH() if args.machine == "dash" else CHALLENGE()
    counts = [int(v) for v in args.processors.split(",")]
    # The machine models' rates are calibrated against the reference
    # kernel mix, so simulation inputs are recorded with it.
    solver = HierarchicalSolver(
        problem.hierarchy,
        batch_size=args.batch,
        options=UpdateOptions(kernel_impl="reference"),
    )
    cycle = solver.run_cycle(problem.initial_estimate(args.seed))
    results = [
        simulate_solve(cycle, problem.hierarchy, machine, p) for p in counts
    ]
    print(f"{problem.name} on simulated {machine.name}:")
    print(format_speedup_table(results))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Parallel hierarchical molecular structure estimation",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="generate a benchmark workload")
    gen.add_argument("workload", choices=["helix", "ribo30s", "protein"])
    gen.add_argument("--length", type=int, default=8, help="helix base pairs")
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--out", required=True)
    gen.set_defaults(fn=_cmd_generate)

    info = sub.add_parser("info", help="describe a saved problem")
    info.add_argument("problem")
    info.set_defaults(fn=_cmd_info)

    solve = sub.add_parser("solve", help="solve a saved problem")
    solve.add_argument("problem")
    solve.add_argument(
        "--decomposition",
        choices=["saved", "graph", "rcb", "flat"],
        default="saved",
    )
    solve.add_argument("--batch", type=int, default=16)
    solve.add_argument("--cycles", type=int, default=30)
    solve.add_argument("--tol", type=float, default=1e-4)
    solve.add_argument("--local-iterations", type=int, default=1)
    solve.add_argument(
        "--anneal",
        default=None,
        help="per-cycle annealing start,decay (e.g. 100,0.5); serial solves "
        "without --session-dir only",
    )
    solve.add_argument(
        "--batch-anneal",
        default=None,
        metavar="START,DECAY[,FLOOR]",
        help="per-batch annealing schedule (cycle-invariant, so unlike "
        "--anneal it composes with --session-dir warm re-solves)",
    )
    solve.add_argument("--seed", type=int, default=0)
    solve.add_argument("--out", default=None)
    solve.add_argument(
        "--faults",
        default=None,
        help="fault-injection spec, e.g. 'crash=0.05,nan=0.02,seed=7' "
        "(channels: nan, chol, corrupt, crash, slow; see docs/robustness.md)",
    )
    solve.add_argument(
        "--session-dir",
        default=None,
        help="make the solve durable in this directory: a killed solve "
        "re-run with the same command resumes from its last finished node, "
        "and 'resolve' edits and re-solves it incrementally",
    )
    solve.add_argument(
        "--backend",
        choices=["serial", "thread", "process"],
        default="serial",
        help="solver backend; thread and process dispatch tree nodes to "
        "--workers executors",
    )
    solve.add_argument(
        "--workers",
        type=int,
        default=_usable_cores(),
        help="worker count for --backend (default: the usable cores)",
    )
    solve.add_argument(
        "--max-retries",
        type=int,
        default=8,
        help="regularization retries per batch before it is quarantined",
    )
    solve.add_argument(
        "--trace",
        default=None,
        metavar="PATH",
        help="write a span trace of the solve: a spans log if PATH ends in "
        ".jsonl (what 'repro obs doctor' reads), else Chrome trace-event "
        "JSON to open in Perfetto / chrome://tracing",
    )
    solve.add_argument(
        "--metrics-out",
        default=None,
        metavar="PATH",
        help="write solve metrics (counters/gauges/histograms) as JSON",
    )
    solve.add_argument(
        "--obs-summary",
        action="store_true",
        help="print the per-category kernel and span summary after solving",
    )
    solve.add_argument(
        "--heartbeat",
        default=None,
        metavar="PATH[:SECS]",
        help="write live metrics snapshots to this heartbeat JSONL every "
        "SECS seconds (default 1.0), replacing any earlier run's; watch it "
        "with 'repro obs top'",
    )
    solve.add_argument(
        "--flight-dir",
        default=None,
        metavar="DIR",
        help="directory for flight-recorder forensic dumps: the bounded "
        "event ring is written here when a terminal batch failure, "
        "quarantine, task resubmission or pool rebuild fires",
    )
    solve.set_defaults(fn=_cmd_solve)

    resolve = sub.add_parser(
        "resolve",
        help="incrementally re-solve a saved session after constraint edits",
    )
    resolve.add_argument(
        "--session-dir",
        required=True,
        help="session directory written by 'solve --session-dir'",
    )
    resolve.add_argument(
        "--add",
        action="append",
        default=[],
        metavar="SPEC",
        help="add a constraint: 'dist:i:j:d[:var]' (repeatable)",
    )
    resolve.add_argument(
        "--drop",
        action="append",
        default=[],
        type=int,
        metavar="CID",
        help="drop a constraint by id (repeatable)",
    )
    resolve.add_argument(
        "--scope",
        choices=["dirty", "full"],
        default="dirty",
        help="'dirty' re-solves only the dirty path; 'full' re-runs every node",
    )
    resolve.add_argument(
        "--backend",
        choices=["serial", "thread", "process"],
        default="serial",
    )
    resolve.add_argument("--workers", type=int, default=_usable_cores())
    resolve.add_argument("--out", default=None)
    resolve.add_argument(
        "--heartbeat",
        default=None,
        metavar="PATH[:SECS]",
        help="write live metrics snapshots to this heartbeat JSONL "
        "(see 'solve --heartbeat')",
    )
    resolve.add_argument(
        "--flight-dir",
        default=None,
        metavar="DIR",
        help="directory for flight-recorder forensic dumps "
        "(see 'solve --flight-dir')",
    )
    resolve.set_defaults(fn=_cmd_resolve)

    fuzz = sub.add_parser(
        "fuzz",
        help="sweep seeded random scenarios through the conformance harness",
    )
    fuzz.add_argument(
        "--seed", type=int, default=0, help="first scenario seed of the sweep"
    )
    fuzz.add_argument(
        "--budget",
        type=int,
        default=25,
        help="number of consecutive seeds to run",
    )
    fuzz.add_argument(
        "--backends",
        default="serial",
        help="comma list of backends for the bit-identity check "
        "(serial, thread, process); serial is always the reference",
    )
    fuzz.add_argument("--workers", type=int, default=_usable_cores())
    fuzz.add_argument(
        "--checks",
        default="all",
        help="comma list of invariants to run (default: all); see "
        "docs/testing.md for the catalogue",
    )
    fuzz.add_argument(
        "--minimize",
        action="store_true",
        help="greedily shrink each failing seed's spec before reporting",
    )
    fuzz.add_argument(
        "--fail-artifact",
        default=None,
        metavar="PATH",
        help="write failing seeds + specs (+ minimized specs) as JSON",
    )
    fuzz.add_argument(
        "--out", default=None, help="write the full sweep report as JSON"
    )
    fuzz.add_argument(
        "--heartbeat",
        default=None,
        metavar="PATH[:SECS]",
        help="write live sweep metrics to this heartbeat JSONL "
        "(see 'solve --heartbeat')",
    )
    fuzz.set_defaults(fn=_cmd_fuzz)

    sim = sub.add_parser("simulate", help="price a cycle on a modeled machine")
    sim.add_argument("problem")
    sim.add_argument("--machine", choices=["dash", "challenge"], default="dash")
    sim.add_argument("--processors", default="1,2,4,8,16")
    sim.add_argument("--batch", type=int, default=16)
    sim.add_argument("--seed", type=int, default=0)
    sim.set_defaults(fn=_cmd_simulate)

    obs_cmd = sub.add_parser("obs", help="post-hoc trace analytics")
    obs_sub = obs_cmd.add_subparsers(dest="obs_command", required=True)

    top = obs_sub.add_parser(
        "top",
        help="live terminal view of a heartbeat file: lane busy%%, "
        "p50/p99, SLO burn rate, per-session series",
    )
    top.add_argument(
        "heartbeat", help="heartbeat JSONL from 'solve --heartbeat'"
    )
    top.add_argument(
        "--once",
        action="store_true",
        help="render a single frame and exit (exit 1 if no beats yet)",
    )
    top.add_argument(
        "--interval",
        type=float,
        default=2.0,
        help="refresh period in seconds (follow mode)",
    )
    top.add_argument(
        "--window",
        type=int,
        default=5,
        help="beats in the rolling busy-rate / SLO window",
    )
    top.add_argument(
        "--slo",
        default=None,
        metavar="METRIC:TARGET[:OBJECTIVE]",
        help="latency SLO to assess, e.g. 'cycle.seconds:2.0:0.95'",
    )
    top.set_defaults(fn=_cmd_obs_top)

    doctor = obs_sub.add_parser(
        "doctor",
        help="critical path, worker utilization and Equation-1 drift of a trace",
    )
    doctor.add_argument(
        "trace", help="spans log from 'solve --trace PATH.jsonl'"
    )
    doctor.add_argument(
        "--problem",
        default=None,
        help="saved problem .npz; supplies the hierarchy when node spans "
        "carry no parent_nid attribute",
    )
    doctor.add_argument("--out", default=None, help="also write the report as JSON")
    doctor.add_argument(
        "--top", type=int, default=5, help="chain links / residuals shown per pass"
    )
    doctor.add_argument(
        "--flop-rate",
        type=float,
        default=None,
        help="host flop rate for the analytic Equation-1 model "
        "(default: the model's calibration default)",
    )
    doctor.set_defaults(fn=_cmd_obs_doctor)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        status = args.fn(args)
        # Flush here, so a closed stdout surfaces inside this ``try``.
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader closed stdout (``repro ... | head``).  Python's
        # documented recipe: send the rest of the output, including the
        # flush at exit, to devnull, and exit 1 as Python does on EPIPE.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 1
    return status


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
