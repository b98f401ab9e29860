"""The benchmark's own tests: report contract, seeded inputs, output checks.

Run from the repository root: ``python3 -m pytest perfbench/tests``.
"""

from __future__ import annotations

import functools
import json
import os
import subprocess
import sys
import types

import numpy as np
import pytest

from perfbench import checks, hostenv, layers, main, workloads
from repro import molecules
from repro.core.session import SolveSession
from repro.core.state import StructureEstimate

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
    SPEC = json.load(fh)


def _names_units(entries):
    return [(e["name"], e["unit"]) for e in entries]


def test_metric_tables_match_benchmark_json():
    assert [w["name"] for w in SPEC["workloads"]] == list(main.WORKLOADS)
    assert _names_units(SPEC["end_to_end"]) == list(workloads.END_TO_END)
    assert _names_units(SPEC["per_layer"]) == list(layers.PER_LAYER)


@functools.lru_cache(maxsize=None)
def _run(workload: str, trace: int, seed: int = 0) -> tuple[dict, dict]:
    proc = subprocess.run(
        [
            sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", "0.5", "--trace", str(trace), "--scale", "tiny",
        ],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2])["environment"], json.loads(lines[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", main.WORKLOADS)
def test_tiny_run_reports_exactly_its_metrics(workload, trace):
    env, report = _run(workload, trace)
    assert set(report) == {"correct", "attempted", "failed", "metrics"}
    assert report["correct"] is True, env["problems"]
    assert report["attempted"] >= 1 and report["failed"] == 0
    spec = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    got = [(name, m["unit"]) for name, m in report["metrics"].items()]
    assert got == _names_units(spec)
    assert all(np.isfinite(m["value"]) for m in report["metrics"].values())
    assert all(lib["threads"] == 1 for lib in env["blas"])
    assert env["workers"] <= env["cores"]
    if not trace:
        assert all(m["value"] > 0 for m in report["metrics"].values())


def test_helix_ops_are_edits_only():
    env, report = _run("helix-edits", 0)
    # Bootstrap cycles and the closing full resolve are not ops.
    assert report["attempted"] == sum(k["ops"] for k in env["edit_ops"].values())
    assert set(env["edit_ops"]) <= set(workloads.EDIT_KINDS)


def test_traced_process_run_rebuilds_every_plan_and_serial_none():
    _, process = _run("ribosome-process", 1)
    _, serial = _run("ribosome-serial", 1)
    m = process["metrics"]
    assert m["constraints.plan_builds"]["value"] == m["update.batches"]["value"] > 0
    assert m["parallel.tasks"]["value"] > 0
    assert serial["metrics"]["constraints.plan_builds"]["value"] == 0
    assert serial["metrics"]["parallel.tasks"]["value"] == 0


def test_unpinned_blas_is_refused():
    libs = [{"package": "numpy", "threads": 1}, {"package": "scipy", "threads": 2}]
    with pytest.raises(RuntimeError, match="scipy: 2"):
        hostenv.require_pinned(libs)
    hostenv.require_pinned(libs[:1])


def test_run_refuses_a_tree_without_program_source(tmp_path):
    (tmp_path / "perfbench").mkdir()
    for name in ("run.py", "__init__.py", "hostenv.py", "main.py"):
        src = os.path.join(ROOT, "perfbench", name)
        (tmp_path / "perfbench" / name).write_text(open(src).read())
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "helix-edits", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0 and proc.stdout == ""


# ------------------------------------------------------------ seeded inputs
def _script_key(script):
    return [
        (e.kind, e.target, None if e.constraint is None else
         (e.constraint.i, e.constraint.j, e.constraint.distance, e.constraint.sigma2))
        for e in script
    ]


def test_edit_script_is_a_function_of_the_seed():
    a = workloads.edit_script(molecules.build_helix(2), 7, 300)
    b = workloads.edit_script(molecules.build_helix(2), 7, 300)
    c = workloads.edit_script(molecules.build_helix(2), 8, 300)
    assert _script_key(a) == _script_key(b)
    assert _script_key(a) != _script_key(c)
    assert {e.kind for e in a} == set(workloads.EDIT_KINDS)


def test_drops_name_live_script_adds_only():
    script = workloads.edit_script(molecules.build_helix(2), 3, 500)
    live = set()
    for k, edit in enumerate(script):
        if edit.kind == "drop":
            assert edit.target in live
            live.remove(edit.target)
        elif edit.kind in ("leaf", "cross"):
            live.add(k)


def test_edit_script_follows_the_scenario_mix_and_the_problems_routing():
    problem = molecules.build_helix(2)
    script = workloads.edit_script(problem, 11, 4000)
    counts = {kind: sum(e.kind == kind for e in script) for kind in workloads.EDIT_KINDS}
    add, drop, update = workloads.ADD_DROP_UPDATE
    # Drops drawn with no live add become adds, so adds gain a little.
    assert abs((counts["leaf"] + counts["cross"]) / len(script) - add) < 0.03
    assert abs(counts["drop"] / len(script) - drop) < 0.03
    assert abs(counts["update"] / len(script) - update) < 0.03
    hierarchy = problem.hierarchy
    at_leaf = sum(hierarchy.containing_node(c.atoms).is_leaf for c in problem.constraints)
    adds = counts["leaf"] + counts["cross"]
    assert abs(counts["leaf"] / adds - at_leaf / len(problem.constraints)) < 0.05
    for e in script:
        if e.kind in ("leaf", "cross"):
            assert hierarchy.containing_node(e.constraint.atoms).is_leaf == (e.kind == "leaf")
        elif e.kind == "update":
            template = problem.constraints[e.target]
            node = hierarchy.containing_node(template.atoms)
            assert hierarchy.containing_node(e.constraint.atoms) is node
            assert e.constraint.sigma2 == template.sigma2


def test_cold_inputs_follow_the_seed():
    a, _ = workloads._cold_problem(5, 0, workloads.TINY)
    b, _ = workloads._cold_problem(5, 0, workloads.TINY)
    c, _ = workloads._cold_problem(6, 0, workloads.TINY)
    assert np.array_equal(a.true_coords, b.true_coords)
    assert not np.array_equal(a.true_coords, c.true_coords)


# ------------------------------------------------------------ output checks
def _estimate(n: int = 12) -> StructureEstimate:
    rng = np.random.default_rng(0)
    a = rng.standard_normal((n, n))
    return StructureEstimate(rng.standard_normal(n), a @ a.T + n * np.eye(n))


def test_posterior_check_passes_a_sound_posterior():
    assert checks.posterior_problems(_estimate()) == []


@pytest.mark.parametrize(
    "sabotage, message",
    [
        (lambda e: e.mean.__setitem__(3, np.nan), "non-finite posterior mean"),
        (lambda e: e.covariance.__setitem__((2, 2), np.nan), "non-finite posterior covariance"),
        (lambda e: e.covariance.__setitem__((2, 5), e.covariance[2, 5] + 1.0), "asymmetric"),
        (lambda e: e.covariance.__setitem__((4, 4), -1.0), "non-positive posterior variance"),
    ],
)
def test_posterior_check_fails_a_sabotaged_posterior(sabotage, message):
    est = _estimate()
    sabotage(est)
    assert any(message in p for p in checks.posterior_problems(est))


def test_cross_backend_match_fails_a_shifted_mean():
    want = _estimate()
    assert checks.match_problems(want.copy(), want, "x") == []
    shifted = want.copy()
    shifted.mean += 1e-6
    assert checks.match_problems(shifted, want, "x")


def test_rmsd_check_fails_a_solve_that_did_not_move_toward_the_truth():
    assert checks.rmsd_problems(3.0, 6.9, 0.7) == []
    assert checks.rmsd_problems(5.0, 6.9, 0.7)
    assert checks.rmsd_problems(float("nan"), 6.9, 0.7)


def test_best_rmsd_check_allows_a_slow_problem_but_not_a_stalled_run():
    slow = (8.02, 7.06)
    assert checks.best_rmsd_problems([slow, (3.0, 6.9), (2.9, 6.9)], 0.7) == []
    assert checks.best_rmsd_problems([slow, (6.9, 6.9), (6.0, 6.9)], 0.7)
    assert checks.best_rmsd_problems([(float("nan"), 6.9)], 0.7)


def test_cycle_check_fails_a_quarantined_batch():
    result = types.SimpleNamespace(estimate=_estimate(), quarantined=())
    assert checks.cycle_problems(result) == []
    result.quarantined = (object(),)
    assert any("quarantined" in p for p in checks.cycle_problems(result))


def test_warm_resolve_must_equal_full_resolve_bitwise():
    problem = molecules.build_helix(2)
    with SolveSession(problem.hierarchy, problem.constraints, options=workloads.OPTIONS) as s:
        s.solve(problem.initial_estimate(0), max_cycles=1, tol=0.0)
        script = workloads.edit_script(problem, 1, 3)
        added = {}
        for k, edit in enumerate(script):
            workloads._apply_edit(s, edit, k, added)
        warm = s.resolve().estimate
        full = s.resolve(scope="full").estimate
    assert checks.bitwise_problems(warm, full, "warm") == []
    off = warm.copy()
    off.covariance[0, 0] = np.nextafter(off.covariance[0, 0], np.inf)
    assert checks.bitwise_problems(off, full, "warm")
