"""Command line: run one workload, check its outputs, print the report.

Output: an ``{"environment": ...}`` JSON line, then as the last line
``{"correct", "attempted", "failed", "metrics"}``.  ``--trace 0`` reports
the end-to-end metrics; ``--trace 1`` runs the workload again under the
span log and reports the per-layer metrics, writing the spans to
``.perfbench/<workload>-seed<seed>.spans.jsonl``.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from perfbench import hostenv

WORKLOADS = ("ribosome-serial", "ribosome-process", "helix-edits")
SPAN_DIR = Path(".perfbench")


def _args(argv) -> argparse.Namespace:
    parser = argparse.ArgumentParser(prog="perfbench/run.py", description=__doc__)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--scale", choices=("full", "tiny"), default="full",
        help="tiny: a seconds-long smoke run for the benchmark's own tests",
    )
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if args.seconds <= 0:
        parser.error("--seconds must be > 0")
    return args


def _stop_resource_tracker() -> None:
    """End and reap the tracker process multiprocessing starts for shared memory."""
    from multiprocessing import resource_tracker

    resource_tracker._resource_tracker._stop()


def main(argv=None) -> int:
    args = _args(argv)
    libs = hostenv.blas_libraries()
    try:
        hostenv.require_pinned(libs)
    except RuntimeError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 3
    # Deferred: these import the program, which loads numpy's BLAS.
    from perfbench import layers, workloads

    scale = workloads.TINY if args.scale == "tiny" else workloads.FULL
    workers = hostenv.usable_cores()
    env = hostenv.environment(args.seed, workers, libs)
    env.update(workload=args.workload, seconds=args.seconds, trace=args.trace, scale=args.scale)
    env["host_probe_start"] = hostenv.host_probe()
    cold = args.workload.startswith("ribosome-")
    backend = args.workload.removeprefix("ribosome-")
    if args.trace:
        log = layers.SpanLog()
        if cold:
            tally = workloads.trace_cold(backend, args.seed, scale, workers, log)
        else:
            tally = workloads.trace_helix(args.seed, args.seconds, scale, log)
        values = log.layer_metrics("cycle" if cold else "edit", workers)
        units = layers.PER_LAYER
        spans = SPAN_DIR / f"{args.workload}-seed{args.seed}.spans.jsonl"
        log.write(spans)
        env["spans"] = str(spans)
    else:
        if cold:
            values, tally = workloads.run_cold(backend, args.seed, args.seconds, scale, workers)
        else:
            values, tally = workloads.run_helix(args.seed, args.seconds, scale)
        units = workloads.END_TO_END
    _stop_resource_tracker()
    env["host_probe_end"] = hostenv.host_probe()
    env.update(tally.notes, problems=tally.problems)
    print(json.dumps({"environment": env}))
    report = {
        "correct": not tally.problems and tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": float(values[name]), "unit": unit} for name, unit in units},
    }
    print(json.dumps(report))
    return 0
