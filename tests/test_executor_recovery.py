"""Worker-crash recovery contract, exercised through the dispatch loop.

Every backend must satisfy the same contract inside
:meth:`ParallelHierarchicalSolver.run_cycle`: a node task lost to a
crashed worker — injected soft crash, injected hard kill, or a real dead
process — is detected and resubmitted (bounded per task by the
executor's ``max_resubmits``), the cycle's result is bitwise the serial
solver's, and exhausting the resubmit budget raises
:class:`~repro.errors.WorkerCrashError`.
"""

import json
import os
import signal
import subprocess
import sys
import time
from concurrent.futures.process import BrokenProcessPool
from pathlib import Path

import numpy as np
import pytest

import repro
from repro import obs
from repro.core.hier_solver import HierarchicalSolver
from repro.errors import WorkerCrashError
from repro.faults import FaultConfig, FaultInjector, fault_injection
from repro.parallel import ParallelHierarchicalSolver
from repro.parallel.executors import ProcessExecutor, SerialExecutor, ThreadExecutor

BACKENDS = ["serial", "thread", "process"]


# Module-level so the process backend can pickle it.
def die_once(token_path):
    """Hard-kill the worker process the first time it sees ``token_path``."""
    if not os.path.exists(token_path):
        with open(token_path, "w") as fh:
            fh.write("died")
        os._exit(1)
    return "survived"


@pytest.fixture(params=BACKENDS)
def executor(request):
    if request.param == "serial":
        ex = SerialExecutor()
    elif request.param == "thread":
        ex = ThreadExecutor(n_workers=2)
    else:
        ex = ProcessExecutor(n_workers=2)
    yield ex
    ex.close()


def _cycles(problem, executor, injector=None):
    """``(serial, parallel, counters)`` for one cycle of ``problem``."""
    estimate = problem.initial_estimate(0)
    serial = HierarchicalSolver(problem.hierarchy, batch_size=16).run_cycle(estimate)
    registry = obs.MetricsRegistry()
    solver = ParallelHierarchicalSolver(
        problem.hierarchy, batch_size=16, executor=executor
    )
    with obs.metrics_scope(registry):
        if injector is None:
            parallel = solver.run_cycle(estimate)
        else:
            with fault_injection(injector):
                parallel = solver.run_cycle(estimate)
    return serial, parallel, registry.snapshot()["counters"]


def _assert_bitwise(a, b):
    assert np.array_equal(a.estimate.mean, b.estimate.mean)
    assert np.array_equal(a.estimate.covariance, b.estimate.covariance)


class TestRecoveryContract:
    """Parametrized over all backends: same inputs, same guarantees."""

    def test_no_injector_runs_clean(self, executor, helix2_problem):
        serial, parallel, counters = _cycles(helix2_problem, executor)
        _assert_bitwise(parallel, serial)
        assert counters.get("executor.tasks_resubmitted", 0) == 0

    def test_every_task_crashing_once_is_absorbed(self, executor, helix2_problem):
        """crash_p=1.0: each node dies on first submission, succeeds on resubmit."""
        inj = FaultInjector(FaultConfig(crash_p=1.0, seed=0))
        serial, parallel, counters = _cycles(helix2_problem, executor, inj)
        _assert_bitwise(parallel, serial)
        n_nodes = len(helix2_problem.hierarchy.nodes)
        assert inj.injected["crash"] == n_nodes  # every node was poisoned
        assert counters["executor.tasks_resubmitted"] == n_nodes

    def test_partial_crashes_are_absorbed(self, executor, helix2_problem):
        inj = FaultInjector(FaultConfig(crash_p=0.5, seed=3))
        serial, parallel, _ = _cycles(helix2_problem, executor, inj)
        _assert_bitwise(parallel, serial)
        assert 0 < inj.injected["crash"] < len(helix2_problem.hierarchy.nodes)

    def test_resubmit_budget_exhaustion_raises(self, executor, helix2_problem):
        executor.max_resubmits = 0
        inj = FaultInjector(FaultConfig(crash_p=1.0, seed=0))
        with pytest.raises(WorkerCrashError, match="resubmission rounds"):
            _cycles(helix2_problem, executor, inj)


class TestProcessPoolHardDeath:
    def test_real_worker_kill_is_detected_and_resubmitted(self, tmp_path):
        """A worker that os._exit()s breaks the pool; after recover() the
        resubmitted task succeeds."""
        token = str(tmp_path / "died.token")
        with ProcessExecutor(n_workers=1) as ex:
            with pytest.raises(BrokenProcessPool):
                ex.submit(die_once, token).result()
            ex.recover()
            assert ex.submit(die_once, token).result() == "survived"
        assert os.path.exists(token)  # the kill really happened

    def test_injected_kill_mode_breaks_and_recovers_pool(self, helix2_problem):
        """crash_mode='kill' hard-exits a worker on every first submission.

        Each break also loses whatever else was in flight, so the budget
        is one round per poisoned submission: enough for any schedule.
        """
        n_nodes = len(helix2_problem.hierarchy.nodes)
        inj = FaultInjector(FaultConfig(crash_p=1.0, seed=0, crash_mode="kill"))
        with ProcessExecutor(n_workers=2, max_resubmits=n_nodes) as ex:
            serial, parallel, counters = _cycles(helix2_problem, ex, inj)
        _assert_bitwise(parallel, serial)
        assert inj.injected["crash"] == n_nodes
        assert counters["executor.pool_rebuilds"] >= 1

    def test_thread_backend_never_hard_kills(self, helix2_problem):
        """Thread backend downgrades kill-mode faults to soft crashes
        (a hard exit would take down the whole interpreter)."""
        inj = FaultInjector(FaultConfig(crash_p=1.0, seed=0, crash_mode="kill"))
        with ThreadExecutor(n_workers=2) as ex:
            serial, parallel, counters = _cycles(helix2_problem, ex, inj)
        _assert_bitwise(parallel, serial)
        n_nodes = len(helix2_problem.hierarchy.nodes)
        assert counters["executor.tasks_resubmitted"] == n_nodes
        assert counters.get("executor.pool_rebuilds", 0) == 0


#: A kill-mode cycle whose main thread pauses inside every Future() it
#: creates, which ``ProcessPoolExecutor.submit`` does between its
#: broken-pool check and registering the task: a worker death in that
#: pause leaves the task's future unresolved on CPython before 3.12.
_RACED_SUBMITS = """
import threading, time
import concurrent.futures._base as base
import numpy as np
from repro.core.hier_solver import HierarchicalSolver
from repro.faults import FaultConfig, FaultInjector, fault_injection
from repro.molecules.rna import build_helix
from repro.parallel import ParallelHierarchicalSolver, ProcessExecutor

init = base.Future.__init__

def paused_init(self):
    if threading.current_thread() is threading.main_thread():
        time.sleep(0.02)
    init(self)

base.Future.__init__ = paused_init
problem = build_helix(2)
problem.assign()
estimate = problem.initial_estimate(0)
serial = HierarchicalSolver(problem.hierarchy, batch_size=16).run_cycle(estimate)
n_nodes = len(problem.hierarchy.nodes)
inj = FaultInjector(FaultConfig(crash_p=1.0, seed=0, crash_mode="kill"))
with ProcessExecutor(2, max_resubmits=n_nodes) as ex, fault_injection(inj):
    result = ParallelHierarchicalSolver(
        problem.hierarchy, batch_size=16, executor=ex
    ).run_cycle(estimate)
assert np.array_equal(result.estimate.covariance, serial.estimate.covariance)
print("bitwise")
"""


def test_a_submit_racing_a_pool_break_is_resubmitted(tmp_path):
    """A task whose submit raced a pool break is lost with the pool and
    resubmitted, instead of leaving the dispatch loop waiting forever."""
    out = tmp_path / "out.txt"
    src = str(Path(repro.__file__).resolve().parents[1])
    with open(out, "w") as fh:
        # Its own session, so a hung run's pool workers go down with it.
        proc = subprocess.Popen(
            [sys.executable, "-c", _RACED_SUBMITS],
            env={**os.environ, "PYTHONPATH": src},
            stdout=fh,
            stderr=subprocess.STDOUT,
            start_new_session=True,
        )
        try:
            returncode = proc.wait(timeout=150)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
            pytest.fail("the dispatch loop hung on a raced submit")
    assert returncode == 0, out.read_text()
    assert out.read_text().strip().endswith("bitwise")


#: A process-backend session that keeps its nodes' shared-memory segments
#: pinned, reports its pool workers and segments, then waits to be killed.
_ORPHANING_SOLVE = """
import json, sys, time
from repro.core.session import SolveSession
from repro.molecules.rna import build_helix
from repro.parallel import ProcessExecutor

problem = build_helix(1)
executor = ProcessExecutor(2)
session = SolveSession(problem.hierarchy, problem.constraints, executor=executor)
session.solve(problem.initial_estimate(0), max_cycles=1, tol=0.0)
report = {
    "workers": [p.pid for p in executor._pool._processes.values()],
    "segments": [session._plane.pinned_name(n.nid) for n in problem.hierarchy.nodes],
}
with open(sys.argv[1] + ".part", "w") as fh:
    json.dump(report, fh)
import os; os.replace(sys.argv[1] + ".part", sys.argv[1])
time.sleep(300)
"""


def _running(pid: int) -> bool:
    """Whether ``pid`` still runs; a zombie awaiting its reaper has exited."""
    try:
        with open(f"/proc/{pid}/stat") as fh:
            return fh.read().rsplit(")", 1)[1].split()[0] != "Z"
    except FileNotFoundError:
        return False


@pytest.mark.skipif(not os.path.isdir("/dev/shm"), reason="needs /dev/shm")
def test_killed_dispatcher_takes_its_workers_and_segments_down(tmp_path):
    """SIGKILL on the dispatching process: its pool workers exit, and the
    resource tracker then unlinks the segments the dispatcher could not."""
    report_path = tmp_path / "report.json"
    src = str(Path(repro.__file__).resolve().parents[1])
    # Its own session, so every process it starts can be killed as a group.
    proc = subprocess.Popen(
        [sys.executable, "-c", _ORPHANING_SOLVE, str(report_path)],
        env={**os.environ, "PYTHONPATH": src},
        start_new_session=True,
    )
    report = {"workers": []}
    try:
        deadline = time.monotonic() + 120.0
        while not report_path.exists():
            assert proc.poll() is None, "the solve exited before reporting"
            assert time.monotonic() < deadline, "the solve never reported"
            time.sleep(0.1)
        report = json.loads(report_path.read_text())
        segments = [Path("/dev/shm") / name for name in report["segments"]]
        assert report["workers"] and all(p.exists() for p in segments)
        os.kill(proc.pid, signal.SIGKILL)
        proc.wait()
        deadline = time.monotonic() + 10.0
        while time.monotonic() < deadline and (
            any(map(_running, report["workers"])) or any(p.exists() for p in segments)
        ):
            time.sleep(0.1)
        assert [pid for pid in report["workers"] if _running(pid)] == []
        assert [p.name for p in segments if p.exists()] == []
    finally:
        # Workers first: the resource tracker, left alone, then unlinks
        # the segments and exits before the rest of the group is killed.
        for pid in [proc.pid, *report["workers"]]:
            try:
                os.kill(pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
        proc.wait()
        deadline = time.monotonic() + 5.0
        try:
            while time.monotonic() < deadline:
                os.killpg(proc.pid, 0)
                time.sleep(0.1)
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
