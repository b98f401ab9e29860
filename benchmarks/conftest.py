"""Shared benchmark fixtures.

The parallel exhibits (Tables 3-6, Figures 7-10) all replay a recorded
solver cycle through the machine simulator; the cycle for each workload
is produced once per session here and shared across benchmark files.

Environment knobs:

* ``REPRO_BENCH_QUICK=1`` — shrink workloads (shorter helices, sparser
  grids) so the whole benchmark suite runs in under a minute.  Default is
  the paper's full sizes.
* ``REPRO_BENCH_OBS_DIR=<dir>`` — run the recorded cycles under the
  :mod:`repro.obs` tracer/metrics and drop ``<label>.trace.json``,
  ``<label>.spans.jsonl`` and ``<label>.metrics.json`` into ``<dir>``
  (created if missing), so benchmark runs leave Perfetto-loadable
  timeline artifacts.
"""

from __future__ import annotations

import os
from pathlib import Path

import pytest

from repro import obs
from repro.core.hier_solver import HierarchicalSolver
from repro.core.update import UpdateOptions
from repro.molecules.ribosome import build_ribo30s
from repro.molecules.rna import build_helix

QUICK = os.environ.get("REPRO_BENCH_QUICK", "") not in ("", "0")
OBS_DIR = os.environ.get("REPRO_BENCH_OBS_DIR", "")


def quick() -> bool:
    return QUICK


def _recorded_cycle(problem, label: str):
    """Run one cycle, optionally emitting obs artifacts for the workload."""
    # The machine models' rates are calibrated on the reference kernel
    # mix; other tiers record different kernel events.
    solver = HierarchicalSolver(
        problem.hierarchy,
        batch_size=16,
        options=UpdateOptions(kernel_impl="reference"),
    )
    estimate = problem.initial_estimate(0)
    if not OBS_DIR:
        return solver.run_cycle(estimate)
    out = Path(OBS_DIR)
    out.mkdir(parents=True, exist_ok=True)
    tracer, registry = obs.Tracer(), obs.MetricsRegistry()
    with obs.tracing(tracer), obs.metrics_scope(registry):
        cycle = solver.run_cycle(estimate)
    obs.write_chrome_trace(tracer, out / f"{label}.trace.json")
    obs.write_spans_jsonl(tracer, out / f"{label}.spans.jsonl")
    obs.write_metrics_json(
        registry, out / f"{label}.metrics.json", extra={"workload": label}
    )
    return cycle


@pytest.fixture(scope="session")
def helix16_cycle():
    problem = build_helix(8 if QUICK else 16)
    problem.assign()
    return problem, _recorded_cycle(problem, problem.name)


@pytest.fixture(scope="session")
def ribo_cycle():
    problem = build_ribo30s()
    problem.assign()
    return problem, _recorded_cycle(problem, problem.name)


@pytest.fixture(scope="session")
def table1_rows():
    from repro.experiments.exp_table1 import run_table1

    lengths = (1, 2, 4) if QUICK else (1, 2, 4, 8, 16)
    return run_table1(lengths=lengths)


@pytest.fixture(scope="session")
def table2_result():
    from repro.experiments.exp_table2 import run_table2

    if QUICK:
        return run_table2(lengths=(1, 2, 4), batch_dims=(1, 4, 16, 64, 256))
    return run_table2()
