"""The three closed-loop workloads: seeded inputs, timed loops, untimed checks.

Every workload drives the public library API — ``SolveSession`` over
``repro.molecules`` problems — with one caller that waits for each reply;
the only concurrency is the process backend's own workers.

* ``ribosome-serial`` / ``ribosome-process``: fixed-cycle cold solves of
  seeded 30S problems (``tol=0``); one op is one cycle.
* ``helix-edits``: one bootstrapped serial helix session, then a seeded
  edit script; one op is one edit plus its ``resolve()``.  The mix of
  adds, drops and updates is the repository's own scenario edit model;
  adds and updates land on tree nodes in the shares of the problem's own
  constraints (see :func:`edit_script`).  Further bootstraps, which
  sample set-up and cold-cycle time, run at even steps of the loop.

Inputs derive from ``--seed`` alone and are generated before any timed
region; the program receives only the generated inputs.  A cold run
solves a fixed number of problems sized from ``--seconds`` (not a
deadline), so ``rmsd_A`` repeats exactly for a seed.  The edit loop runs
until ``--seconds`` of op time, and at least ``min_ops`` ops.
"""

from __future__ import annotations

import gc
import resource
import statistics
import time
from concurrent.futures import ThreadPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass, field

import numpy as np

import repro.core  # noqa: F401  - repro.molecules needs repro.core imported first
from repro import molecules
from repro.constraints.distance import DistanceConstraint
from repro.core.session import SolveSession
from repro.core.update import UpdateOptions
from repro.parallel import ProcessExecutor

from perfbench import checks

OPTIONS = UpdateOptions(kernel_impl="vector")

#: End-to-end metrics in report order, with units.
END_TO_END = (
    ("setup_s", "s"),
    ("solve_s", "s"),
    ("cycle_p50_s", "s"),
    ("rmsd_A", "angstrom"),
    ("resolve_p50_s", "s"),
    ("resolve_p90_s", "s"),
    ("peak_rss_mb", "MB"),
)

#: About the seconds of one process-backend ribosome solve, the slower
#: backend: sizes a cold run's problem count.  A solve takes 8-17 s on
#: a shared host whose speed drifts (perfbench/README.md); a 24-second
#: run solves two problems, where three made a process run take up to 61 s.
NOMINAL_SOLVE_S = 11.0

#: Edit kinds: leaf-local adds, cross-tree adds, in-place updates of
#: original constraints, drops of constraints the script itself added.
EDIT_KINDS = ("leaf", "cross", "update", "drop")
#: Shares of add, drop and update: the repository's scenario edit model
#: (``repro.scenarios.generator.make_edits``: 40% add, 25% remove, 35%
#: update).  Its removes may drop any constraint; here they drop only the
#: script's own adds, so no generated constraint is ever removed.
ADD_DROP_UPDATE = (0.40, 0.25, 0.35)


@dataclass(frozen=True)
class Scale:
    """Problem sizes and run lengths; ``FULL`` is the benchmark, ``TINY`` a smoke test."""

    ribo_atoms: int = 900
    #: RMSD to the truth flattens by about cycle 10 (seeds 0-17).
    cycles: int = 10
    min_problems: int = 2
    #: An edit op at length 16 takes 0.15-0.3 s, long enough to span
    #: the host's sub-second slow spells, so op latencies stay unimodal
    #: and their median moves with the share of slow time; length 8 ops
    #: (0.07 s) fall wholly inside or outside a spell, and their median
    #: jumps between the two modes.
    helix_length: int = 16
    boot_cycles: int = 1
    #: Bootstraps per run, each from its own seeded start and spread
    #: evenly over the edit loop; ``rmsd_A`` and ``setup_s`` average or
    #: take the median over them.
    helix_starts: int = 5
    #: resolve p90 needs ten samples beyond it.
    min_ops: int = 100
    script_length: int = 4000
    setup_repeats: int = 3
    #: Final/start RMSD bound per ribosome problem: most end 10 cycles at
    #: 0.40-0.55, but slow ones exist (seed 20, problem 0: 7.06 -> 12.99
    #: after cycle 1, 8.02 after 10, still falling), so this guards
    #: against blow-ups rather than proving convergence.
    rmsd_ratio: float = 1.5
    #: Bound on the run's best final/start RMSD: a solver that stalls or
    #: drifts fails it even when no single problem blows up, while one or
    #: two slow problems in a run pass.
    best_rmsd_ratio: float = 0.7

    def problems(self, seconds: float) -> int:
        return max(self.min_problems, round(seconds / NOMINAL_SOLVE_S))


FULL = Scale()
#: Too few cycles to converge: the RMSD bound only catches a blow-up.
TINY = Scale(
    ribo_atoms=600,
    cycles=2,
    min_problems=1,
    helix_length=2,
    boot_cycles=1,
    helix_starts=1,
    min_ops=12,
    script_length=200,
    setup_repeats=1,
    rmsd_ratio=3.0,
    best_rmsd_ratio=3.0,
)


def derive_seed(seed: int, *path: int) -> int:
    """Independent child seed for one input stream of a run."""
    return int(np.random.SeedSequence([seed, *path]).generate_state(1)[0])


@dataclass
class Tally:
    """Ops attempted and failed, and every check's problems."""

    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    #: Per-input facts for the environment block.
    notes: dict = field(default_factory=dict)

    def op(self, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(problems)


class CycleTap:
    """Stands in for ``session.solver.run_cycle``: times and checks each cycle.

    The check runs after the cycle's timer stops; ``off_clock``
    accumulates its cost so callers can take it out of enclosing timings.
    Each checked cycle is one op unless ``ops`` is false (a bootstrap,
    whose problems still count against correctness).  With a span log,
    each cycle is also one traced op.  After :meth:`hold` the tap only
    keeps each cycle's result in ``last``, for a caller that checks it
    after its own op closes.
    """

    def __init__(self, solver, tally: Tally, log=None, ops: bool = True):
        self._inner = solver.run_cycle
        self.tally = tally
        self.log = log
        self.ops = ops
        self.checking = True
        self.walls: list[float] = []
        self.off_clock = 0.0
        self.first = None
        self.last = None
        solver.run_cycle = self

    def hold(self) -> None:
        """From now on only keep each cycle's result: no timing, no checks."""
        self.checking = False

    def __call__(self, *args, **kwargs):
        if not self.checking:
            self.last = self._inner(*args, **kwargs)
            return self.last
        scope = (
            self.log.op_span("cycle", steady=bool(self.walls))
            if self.log is not None
            else nullcontext()
        )
        t0 = time.perf_counter()
        with scope:
            result = self._inner(*args, **kwargs)
        t1 = time.perf_counter()
        self.walls.append(t1 - t0)
        if self.first is None:
            self.first = result.estimate
        problems = checks.cycle_problems(result)
        if self.ops:
            self.tally.op(problems)
        else:
            self.tally.problems.extend(problems)
        self.off_clock += time.perf_counter() - t1
        return result


def peak_rss_mb(with_children: bool) -> float:
    """Peak RSS of this process, plus the largest reaped child's if asked."""
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if with_children:
        peak += resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return peak / 1024.0


def _p90(values: list[float]) -> float:
    return statistics.quantiles(values, n=10)[-1] if len(values) > 1 else values[0]


# ------------------------------------------------------------------ cold
@dataclass
class ColdSolve:
    index: int
    setup_s: list[float]
    solve_s: float
    cycles: list[float]
    final_rmsd: float
    start_rmsd: float
    first_cycle: object


def _cold_problem(seed: int, index: int, scale: Scale):
    problem = molecules.build_ribo30s(derive_seed(seed, 0, index), total_atoms=scale.ribo_atoms)
    return problem, problem.initial_estimate(derive_seed(seed, 1, index))


def _close(session: SolveSession, executor) -> None:
    session.close()
    if executor is not None:
        executor.close()


def _cold_solve(
    backend: str, seed: int, index: int, scale: Scale, workers: int, tally: Tally,
    repeats: int, log=None,
) -> ColdSolve | None:
    """Set problem ``index`` up ``repeats`` times (timed), then solve the last."""
    setups = []
    for r in range(repeats):
        t0 = time.perf_counter()
        problem, start = _cold_problem(seed, index, scale)
        executor = ProcessExecutor(workers) if backend == "process" else None
        session = SolveSession(
            problem.hierarchy, problem.constraints, options=OPTIONS, executor=executor
        )
        setups.append(time.perf_counter() - t0)
        if r < repeats - 1:
            _close(session, executor)
    tap = CycleTap(session.solver, tally, log)
    try:
        t0 = time.perf_counter()
        report = session.solve(start, max_cycles=scale.cycles, tol=0.0)
        solve_s = time.perf_counter() - t0 - tap.off_clock
    except Exception as exc:  # report the failed op; the run goes on
        tally.op([f"{backend} cycle {len(tap.walls) + 1} raised {exc!r}"])
        return None
    finally:
        _close(session, executor)
    return ColdSolve(
        index=index,
        setup_s=setups,
        solve_s=solve_s,
        cycles=tap.walls,
        final_rmsd=molecules.superposed_rmsd(report.estimate.coords, problem.true_coords),
        start_rmsd=molecules.superposed_rmsd(start.coords, problem.true_coords),
        first_cycle=tap.first,
    )


def _serial_first_cycle(seed: int, index: int, scale: Scale):
    problem, start = _cold_problem(seed, index, scale)
    with SolveSession(problem.hierarchy, problem.constraints, options=OPTIONS) as session:
        return session.solve(start, max_cycles=1, tol=0.0).estimate


def _cold_tail(backend: str, seed: int, scale: Scale, solves: list[ColdSolve], tally: Tally) -> None:
    """Untimed checks: RMSD against the start, process cycle 1 against serial."""
    for s in solves:
        tally.problems.extend(checks.rmsd_problems(s.final_rmsd, s.start_rmsd, scale.rmsd_ratio))
    tally.notes["rmsd_start_final"] = {s.index: [s.start_rmsd, s.final_rmsd] for s in solves}
    tally.notes["solve_s"] = {s.index: s.solve_s for s in solves}
    if backend == "process" and solves:
        tally.problems.extend(
            checks.match_problems(
                solves[0].first_cycle, _serial_first_cycle(seed, solves[0].index, scale),
                "process first cycle vs serial",
            )
        )


def run_cold(backend: str, seed: int, seconds: float, scale: Scale, workers: int) -> tuple[dict, Tally]:
    tally = Tally()
    solves = []
    for index in range(scale.problems(seconds)):
        solve = _cold_solve(backend, seed, index, scale, workers, tally, scale.setup_repeats)
        if solve is not None:
            if solves:
                solve.first_cycle = None  # only the first solve's is checked
            solves.append(solve)
        gc.collect()
    if not solves:
        raise RuntimeError(f"every {backend} cold solve failed: {tally.problems}")
    peak = peak_rss_mb(with_children=backend == "process")
    _cold_tail(backend, seed, scale, solves, tally)
    tally.problems.extend(
        checks.best_rmsd_problems(
            [(s.final_rmsd, s.start_rmsd) for s in solves], scale.best_rmsd_ratio
        )
    )
    steady = [w for s in solves for w in s.cycles[1:]] or [w for s in solves for w in s.cycles]
    metrics = {
        "setup_s": statistics.median(w for s in solves for w in s.setup_s),
        "solve_s": statistics.median(s.solve_s for s in solves),
        "cycle_p50_s": statistics.median(w for s in solves for w in s.cycles),
        "rmsd_A": statistics.fmean(s.final_rmsd for s in solves),
        "resolve_p50_s": statistics.median(steady),
        "resolve_p90_s": _p90(steady),
        "peak_rss_mb": peak,
    }
    return metrics, tally


def trace_cold(backend: str, seed: int, scale: Scale, workers: int, log) -> Tally:
    """Problem 0 solved untraced, then again traced; the traced run's layer split.

    One problem only, so the run-level best-RMSD check of :func:`run_cold`
    does not apply; the per-problem blow-up guard does.
    """
    tally = Tally()
    plain = _cold_solve(backend, seed, 0, scale, workers, tally, 1)
    gc.collect()
    with log.instrumented():
        traced = _cold_solve(backend, seed, 0, scale, workers, tally, 1, log=log)
    gc.collect()
    solves = [s for s in (plain, traced) if s is not None]
    _cold_tail(backend, seed, scale, solves, tally)
    log.overhead_frac = traced.solve_s / plain.solve_s - 1 if plain and traced else 0.0
    return tally


# ----------------------------------------------------------------- helix
@dataclass(frozen=True)
class Edit:
    """One scripted edit.

    ``constraint`` is the added or replacement constraint; ``target`` is
    the original constraint's index for ``update`` (its session id) and
    the adding edit's script position for ``drop``.
    """

    kind: str
    constraint: DistanceConstraint | None = None
    target: int = -1


def _measure_at(node, template, coords: np.ndarray, rng) -> DistanceConstraint:
    """A new pair the hierarchy routes to ``node``, at its true distance and ``template``'s variance.

    A leaf's pair is two of its atoms; an inner node's joins two of its
    children, so the node is the pair's lowest common ancestor.
    """
    if node.is_leaf:
        i, j = rng.choice(node.atoms, 2, replace=False)
    else:
        a, b = rng.choice(len(node.children), 2, replace=False)
        i, j = rng.choice(node.children[a].atoms), rng.choice(node.children[b].atoms)
    return DistanceConstraint(
        int(i), int(j), float(np.linalg.norm(coords[i] - coords[j])), template.sigma2
    )


def edit_script(problem, seed: int, length: int) -> list[Edit]:
    """Seeded edit script over ``problem``; a pure function of its arguments.

    Adds, drops and updates come in the shares of :data:`ADD_DROP_UPDATE`.
    An add or an update draws one of the problem's constraints uniformly
    as its template and measures a new pair at the template's node with
    the template's variance, so edits land on leaves and inner nodes in
    the shares of the problem's own constraints; an add is ``leaf`` or
    ``cross`` by where it lands, and an update replaces its template in
    place.  A drop removes a live script add chosen uniformly; with none
    alive it becomes an add.
    """
    rng = np.random.default_rng(seed)
    originals = problem.constraints
    live: list[int] = []
    script: list[Edit] = []
    for k in range(length):
        kind = ("add", "drop", "update")[rng.choice(3, p=ADD_DROP_UPDATE)]
        if kind == "drop" and live:
            script.append(Edit("drop", target=live.pop(int(rng.integers(len(live))))))
            continue
        index = int(rng.integers(len(originals)))
        node = problem.hierarchy.containing_node(originals[index].atoms)
        new = _measure_at(node, originals[index], problem.true_coords, rng)
        if kind == "update":
            script.append(Edit("update", new, index))
        else:
            script.append(Edit("leaf" if node.is_leaf else "cross", new))
            live.append(k)
    return script


def _apply_edit(session: SolveSession, edit: Edit, k: int, added: dict[int, int]) -> None:
    if edit.kind == "update":
        # The session numbers the initial constraints 0..n-1 in order.
        session.update_constraints({edit.target: edit.constraint})
    elif edit.kind == "drop":
        session.remove_constraints([added.pop(edit.target)])
    else:
        added[k] = session.add_constraints([edit.constraint])[0]


def leaf_rmsd(coords: np.ndarray, truth: np.ndarray, hierarchy) -> float:
    """RMSD to ``truth`` with each hierarchy leaf superposed on its own.

    The helix's global superposed RMSD after a cold cycle varies by about
    20% from one start to the next (and more after further cycles: the
    solve drifts away from the truth), so it cannot carry a bound; the
    local geometry each leaf's tight constraints fix varies by about 8%.
    """
    sq = n = 0
    for node in hierarchy.nodes:
        if node.is_leaf:
            r = molecules.superposed_rmsd(coords[node.atoms], truth[node.atoms])
            sq += r * r * len(node.atoms)
            n += len(node.atoms)
    return float(np.sqrt(sq / n))


@dataclass
class HelixSetup:
    session: SolveSession
    problem: object
    tap: CycleTap
    setup_s: float
    solve_s: float
    cycles: list[float]
    rmsd: float
    leaf_rmsd: float


def _helix_setup(seed: int, index: int, scale: Scale, tally: Tally) -> HelixSetup:
    """Generate, route, and bootstrap one editing session from start ``index`` (timed as set-up).

    The bootstrap's cycles are checked but are not ops; afterwards the
    tap only holds each cycle's result for the edit loop to check.
    """
    t0 = time.perf_counter()
    problem = molecules.build_helix(scale.helix_length)
    start = problem.initial_estimate(derive_seed(seed, 1, index))
    session = SolveSession(problem.hierarchy, problem.constraints, options=OPTIONS)
    tap = CycleTap(session.solver, tally, ops=False)
    t1 = time.perf_counter()
    report = session.solve(start, max_cycles=scale.boot_cycles, tol=0.0)
    t2 = time.perf_counter()
    tap.hold()
    return HelixSetup(
        session=session,
        problem=problem,
        tap=tap,
        setup_s=t2 - t0 - tap.off_clock,
        solve_s=t2 - t1 - tap.off_clock,
        cycles=list(tap.walls),
        rmsd=molecules.superposed_rmsd(report.estimate.coords, problem.true_coords),
        leaf_rmsd=leaf_rmsd(report.estimate.coords, problem.true_coords, problem.hierarchy),
    )


def _edit_loop(
    setup: HelixSetup, script: list[Edit], tally: Tally, budget_s: float, min_ops: int,
    n_ops: int | None = None, log=None, between=None,
) -> list[tuple[str, float]]:
    """Run script ops until ``budget_s`` of op time (at least ``min_ops``), or exactly ``n_ops``.

    Returns each op's kind and latency.  An op's resolve cycle is checked
    after its timer and span have closed.  ``between(spent)``, if given,
    runs before each op with the op seconds spent so far.
    """
    session, tap = setup.session, setup.tap
    added: dict[int, int] = {}
    ops: list[tuple[str, float]] = []
    spent = 0.0
    for k, edit in enumerate(script):
        if n_ops is None and len(ops) >= min_ops and spent >= budget_s:
            break
        if n_ops is not None and k >= n_ops:
            break
        if between is not None:
            between(spent)
        scope = log.op_span("edit") if log is not None else nullcontext()
        t0 = time.perf_counter()
        try:
            with scope:
                _apply_edit(session, edit, k, added)
                session.resolve()
        except Exception as exc:  # report the failed op; the session may be torn
            tally.op([f"edit {k} ({edit.kind}) raised {exc!r}"])
            break
        latency = time.perf_counter() - t0
        tally.op(checks.cycle_problems(tap.last))
        ops.append((edit.kind, latency))
        spent += latency
    return ops


def _per_kind(ops: list[tuple[str, float]]) -> dict:
    """Realised op count and median latency of each edit kind."""
    out = {}
    for kind in EDIT_KINDS:
        lat = [t for k, t in ops if k == kind]
        if lat:
            out[kind] = {"ops": len(lat), "resolve_p50_s": statistics.median(lat)}
    return out


def _helix_tail(setup: HelixSetup, tally: Tally) -> None:
    """The last dirty-path resolve must equal a full resolve bit for bit."""
    last = setup.session.estimate
    full = setup.session.resolve(scope="full").estimate
    tally.problems.extend(checks.bitwise_problems(last, full, "last warm resolve vs full resolve"))


def _on_fresh_thread(fn, *args):
    """``fn(*args)`` on a new thread, waited for.

    Batch plans are cached per thread, up to 1024, and a helix(16)
    session compiles 914: run on the editing thread, another session
    would evict the editing session's plans.  A fresh thread's cache
    dies with it.
    """
    with ThreadPoolExecutor(max_workers=1) as pool:
        return pool.submit(fn, *args).result()


def run_helix(seed: int, seconds: float, scale: Scale) -> tuple[dict, Tally]:
    """One bootstrap, the edit loop on it, and the other bootstraps at even steps of the loop.

    Host speed drifts over seconds, so bootstraps in a row would sample
    one moment of it; spread over the loop, their medians sample the run.
    """
    tally = Tally()
    setup_s, solve_s, cycles, rmsds = [], [], [], []

    def record(setup: HelixSetup) -> None:
        setup_s.append(setup.setup_s)
        solve_s.append(setup.solve_s)
        cycles.extend(setup.cycles)
        rmsds.append((setup.rmsd, setup.leaf_rmsd))

    pending = list(range(1, scale.helix_starts))
    step = seconds / scale.helix_starts

    def between(spent: float) -> None:
        while pending and spent >= step * pending[0]:
            gc.collect()
            setup = _on_fresh_thread(_helix_setup, seed, pending.pop(0), scale, tally)
            setup.session.close()
            record(setup)

    gc.collect()
    kept = _helix_setup(seed, 0, scale, tally)
    record(kept)
    script = edit_script(kept.problem, derive_seed(seed, 2), scale.script_length)
    ops = _edit_loop(kept, script, tally, seconds, scale.min_ops, between=between)
    between(float("inf"))  # any the loop did not reach
    peak = peak_rss_mb(with_children=False)
    _helix_tail(kept, tally)
    kept = None
    tally.notes["helix_rmsd_global_leaf"] = rmsds
    if not ops:
        raise RuntimeError(f"no helix edit completed: {tally.problems}")
    tally.notes["edit_ops"] = _per_kind(ops)
    latencies = [t for _, t in ops]
    metrics = {
        "setup_s": statistics.median(setup_s),
        "solve_s": statistics.median(solve_s),
        "cycle_p50_s": statistics.median(cycles),
        "rmsd_A": statistics.fmean(local for _, local in rmsds),
        "resolve_p50_s": statistics.median(latencies),
        "resolve_p90_s": _p90(latencies),
        "peak_rss_mb": peak,
    }
    return metrics, tally


def trace_helix(seed: int, seconds: float, scale: Scale, log) -> Tally:
    """The edit loop untraced, then the same ops traced on a fresh session.

    The untraced pass runs on a fresh thread, so the traced pass, like
    it, starts with an empty plan cache.
    """
    tally = Tally()

    def plain_pass() -> list[tuple[str, float]]:
        plain = _helix_setup(seed, 0, scale, tally)
        script = edit_script(plain.problem, derive_seed(seed, 2), scale.script_length)
        # Per-layer values are per-op means and need no p90: a quarter
        # run of ops is enough.
        ops = _edit_loop(plain, script, tally, seconds / 4, 1)
        _helix_tail(plain, tally)
        return ops

    plain_ops = _on_fresh_thread(plain_pass)
    gc.collect()
    with log.instrumented():
        traced = _helix_setup(seed, 0, scale, tally)
        # Fresh constraint objects: plans cached for the untraced pass must not hit.
        script = edit_script(traced.problem, derive_seed(seed, 2), scale.script_length)
        traced_ops = _edit_loop(traced, script, tally, 0.0, 0, n_ops=len(plain_ops), log=log)
    _helix_tail(traced, tally)
    plain_s = sum(t for _, t in plain_ops)
    log.overhead_frac = sum(t for _, t in traced_ops) / plain_s - 1 if plain_s and traced_ops else 0.0
    return tally
