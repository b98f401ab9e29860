"""Tree-parallel hierarchical solver.

The hierarchy's data dependencies are child → parent only.  The default
scheduler exploits exactly that: dependency-driven dispatch submits every
leaf up front and submits a parent the moment its *last* child completes
(futures plus ready-count bookkeeping), so no node ever waits on an
unrelated subtree.  The legacy mode (``dispatch="wavefront"``) instead
groups nodes of equal height into wavefronts and barriers between them —
same results, more idle time.  Both orders compute node solves on
identical inputs, so results are bit-identical to
:class:`repro.core.hier_solver.HierarchicalSolver` with any backend.

Node tasks are self-contained payloads (prior estimate, constraints,
column map), so they cross process boundaries; each worker records its
own kernel events — and, when the dispatching solve is being traced, its
own spans and metrics — and ships them back for merged per-node
profiles.  Worker spans keep the worker's pid/tid, which is what gives
the exported Chrome trace one lane per worker.  With a pickling backend
the estimate arrays themselves do not ride in the task at all: the
scheduler parks them on a :class:`~repro.parallel.shm.SharedEstimatePlane`
and ships O(1)-sized handles (see that module for the lifetime rules).
"""

from __future__ import annotations

import concurrent.futures
from concurrent.futures.process import BrokenProcessPool
from contextlib import nullcontext
from dataclasses import dataclass

import numpy as np

from repro import obs
from repro.constraints.base import Constraint
from repro.constraints.batch import make_batches
from repro.core.hier_solver import HierCycleResult, NodeSolveRecord, cycle_output
from repro.core.hierarchy import Hierarchy, HierarchyNode
from repro.core.state import StructureEstimate
from repro.core.update import UpdateOptions, apply_batches
from repro.errors import HierarchyError, WorkerCrashError
from repro.faults.injector import current_injector
from repro.faults.report import QuarantineRecord, RetryReport
from repro.linalg.counters import KernelEvent, Recorder, current_recorder, recording
from repro.parallel.executors import Executor, SerialExecutor
from repro.parallel.placement import (
    PlacementPlan,
    coerce_placement,
    hierarchy_edges,
    plan_placement,
    predicted_costs,
)
from repro.parallel.shm import EstimateHandle, SharedEstimatePlane, read_prior, write_posterior
from repro.util.timer import Timer

DISPATCH_MODES = ("dependency", "wavefront")


@dataclass
class _NodeTask:
    """Picklable description of one node's update.

    Exactly one of ``prior`` / ``prior_handle`` is set: the handle form
    parks the estimate arrays on the shared-memory plane and ships O(1)
    bytes.  ``trace``/``collect_metrics`` tell the worker to run under a
    local collecting tracer/registry and ship the records back
    (contextvars do not cross executor boundaries, so observability is
    opt-in per task).
    """

    nid: int
    prior: StructureEstimate | None
    constraints: list[Constraint]
    column_map: np.ndarray
    batch_size: int
    options: UpdateOptions
    prior_handle: EstimateHandle | None = None
    trace: bool = False
    collect_metrics: bool = False
    parent_nid: int = -1
    #: Mirror the dispatching side's flight recorder: the worker runs a
    #: local ring and ships it home in the obs payload (``absorb`` on the
    #: parent re-fires any forensic triggers the worker saw).
    flight: bool = False
    #: Label set (session id, backend...) stamped onto the worker's
    #: per-task metric series, so per-session counters survive the trip.
    labels: dict | None = None


def _run_node_task(
    task: _NodeTask,
) -> tuple[
    int,
    StructureEstimate | None,
    list[KernelEvent],
    float,
    int,
    dict | None,
    list[QuarantineRecord],
    list[RetryReport],
]:
    """Worker entry point: apply the node's batches, recording events.

    Returns ``(nid, posterior-or-None, events, seconds, n_batches,
    obs_payload, quarantined, retries)``; the posterior slot is ``None``
    when the task carried a shared-memory handle (the posterior went back
    through the segment).  The last two carry the node's
    :class:`~repro.faults.QuarantineRecord` and
    :class:`~repro.faults.RetryReport` lists home.
    """
    rec = Recorder()
    timer = Timer()
    estimate = (
        read_prior(task.prior_handle) if task.prior_handle is not None else task.prior
    )
    injector = current_injector()
    if injector is not None:
        # Straggler simulation; crash faults are the executor's concern
        # (it draws one decision per submitted task and resubmits).
        injector.maybe_sleep()
    tracer = obs.Tracer() if task.trace else None
    registry = obs.MetricsRegistry() if task.collect_metrics else None
    recorder = obs.FlightRecorder() if task.flight else None
    trace_scope = obs.tracing(tracer) if tracer is not None else nullcontext()
    metrics_scope = (
        obs.metrics_scope(registry) if registry is not None else nullcontext()
    )
    flight_scope = (
        obs.flight_recording(recorder) if recorder is not None else nullcontext()
    )
    # Pack once, then reuse each batch's cached dimension for the span's
    # row attribute instead of re-summing over the raw constraint list.
    batches = (
        make_batches(task.constraints, task.batch_size) if task.constraints else []
    )
    n_batches = len(batches)
    quarantined: list[QuarantineRecord] = []
    retries: list[RetryReport] = []
    with trace_scope, metrics_scope, flight_scope:
        with obs.span(
            f"node[{task.nid}]",
            cat="solve",
            nid=task.nid,
            n_constraints=len(task.constraints),
            batch_size=task.batch_size,
            state_dim=int(estimate.mean.shape[0]),
            rows=sum(b.dimension for b in batches),
            parent_nid=task.parent_nid,
        ), recording(rec), rec.tagged(task.nid), timer:
            # ``read_prior`` returns this worker's private copy; the
            # segment's prior slot stays intact for a resubmit.  An inline
            # prior is the dispatcher's object, reused on resubmit.
            estimate = apply_batches(
                estimate,
                batches,
                task.column_map,
                task.options,
                task.nid,
                quarantined,
                retries,
                consume_estimate=task.prior_handle is not None,
            )
    if registry is not None:
        registry.histogram("node.seconds").observe(timer.elapsed)
        registry.counter("sched.tasks_completed").inc()
        if task.labels:
            registry.counter("sched.tasks_completed", labels=task.labels).inc()
            registry.histogram("node.seconds", labels=task.labels).observe(
                timer.elapsed
            )
    payload: dict | None = None
    if tracer is not None or registry is not None or recorder is not None:
        payload = {
            "trace": tracer.payload() if tracer is not None else None,
            "metrics": registry.snapshot() if registry is not None else None,
            "flight": recorder.payload() if recorder is not None else None,
        }
    if task.prior_handle is not None:
        write_posterior(task.prior_handle, estimate)
        estimate = None
    return (
        task.nid, estimate, rec.events, timer.elapsed, n_batches, payload,
        quarantined, retries,
    )


class ParallelHierarchicalSolver:
    """Executor-backed drop-in for :class:`HierarchicalSolver`.

    Parameters mirror the serial solver, plus:

    executor:
        Backend (defaults to inline execution so the class is always
        safe to construct).
    dispatch:
        ``"dependency"`` (default) submits a parent as soon as its last
        child completes; ``"wavefront"`` restores the per-height barrier.
    shared_memory:
        ``None`` (default) enables the shared-memory estimate plane
        exactly when the backend pickles its tasks
        (:attr:`~repro.parallel.executors.Executor.needs_pickling`);
        ``True``/``False`` force it.
    plane:
        Optional borrowed :class:`SharedEstimatePlane`.  The scheduler
        then keeps that plane alive across cycles (releasing only its
        own transient segments) instead of closing a private plane after
        every cycle — this is how a :class:`~repro.core.session.SolveSession`
        keeps clean-subtree posterior segments pinned across re-solves.
        The borrower owns the plane's lifetime.
    placement:
        ``None`` (default) keeps first-come dependency submission.  A
        :class:`~repro.parallel.placement.PlacementConfig` (or a policy
        name, ``"model"``) switches dependency dispatch to cost-packed
        per-lane queues with work-stealing: Equation-1 predicted costs
        are HEFT-packed onto the executor's workers before dispatch, a
        lane drains its own queue by descending upward rank, and an idle
        lane steals the largest predicted-cost ready task from the
        most-loaded peer.  Measured per-node seconds accumulate in
        :attr:`measured_costs` across cycles and recalibrate every
        subsequent packing, so the placement self-corrects within one
        session.  Placement reorders whole-node submission only —
        results stay bit-identical to the serial solver.
    """

    def __init__(
        self,
        hierarchy: Hierarchy,
        batch_size: int = 16,
        options: UpdateOptions = UpdateOptions(),
        executor: Executor | None = None,
        dispatch: str = "dependency",
        shared_memory: bool | None = None,
        plane: SharedEstimatePlane | None = None,
        placement=None,
        labels: dict | None = None,
    ):
        if dispatch not in DISPATCH_MODES:
            raise HierarchyError(
                f"dispatch must be one of {DISPATCH_MODES}, got {dispatch!r}"
            )
        self.hierarchy = hierarchy
        self.batch_size = int(batch_size)
        self.options = options
        self.executor = executor if executor is not None else SerialExecutor()
        self.dispatch = dispatch
        self.shared_memory = shared_memory
        self.plane = plane
        self.placement = coerce_placement(placement)
        #: Metric labels (session id, backend...) stamped onto per-task
        #: series published by the workers this solver dispatches.
        self.labels = dict(labels) if labels else None
        #: nid → measured seconds from the most recent cycle that ran the
        #: node; feeds the next packing (and persists across resolves).
        self.measured_costs: dict[int, float] = {}
        self.last_placement: PlacementPlan | None = None
        self.n_constraint_rows = sum(n.n_constraint_rows for n in hierarchy.nodes)

    # ----------------------------------------------------------- wavefronts
    def wavefronts(self) -> list[list[HierarchyNode]]:
        """Nodes grouped by height: index 0 = leaves, last = root."""
        height = self.heights()
        fronts: list[list[HierarchyNode]] = [[] for _ in range(max(height.values()) + 1)]
        for node in self.hierarchy.post_order():
            fronts[height[node.nid]].append(node)
        return fronts

    def heights(self) -> dict[int, int]:
        """Node id → height (longest path to a leaf; leaves are 0)."""
        height: dict[int, int] = {}
        for node in self.hierarchy.post_order():
            height[node.nid] = (
                0 if node.is_leaf else 1 + max(height[c.nid] for c in node.children)
            )
        return height

    def _use_shared_memory(self) -> bool:
        if self.shared_memory is not None:
            return self.shared_memory
        return self.executor.needs_pickling

    # ----------------------------------------------------------- solve
    def run_cycle(
        self,
        estimate: StructureEstimate,
        dirty: "frozenset[int] | set[int] | None" = None,
        cache=None,
    ) -> HierCycleResult:
        """One cycle (full or dirty-restricted); identical to the serial solver.

        ``dirty``/``cache`` mirror
        :meth:`repro.core.hier_solver.HierarchicalSolver.run_cycle`: only
        nodes in ``dirty`` are dispatched, a dirty node whose child is
        clean reads that child's converged posterior from ``cache``, and
        every computed posterior is stored back.  When the cache is
        backed by this solver's borrowed ``plane``, a completed node's
        shared-memory segment is *promoted* into the cache in place of a
        host-side copy (see :meth:`SharedEstimatePlane.promote`).

        Like the serial solver, the cycle never writes ``estimate``: a
        leaf task's prior is an :meth:`StructureEstimate.extract_atoms`
        copy, and the output is a new estimate.
        """
        if estimate.n_atoms != self.hierarchy.n_atoms:
            raise HierarchyError(
                f"estimate covers {estimate.n_atoms} atoms, hierarchy expects "
                f"{self.hierarchy.n_atoms}"
            )
        if dirty is not None and cache is None and len(dirty) < len(self.hierarchy.nodes):
            raise HierarchyError("a dirty-restricted cycle needs a posterior cache")
        total = Timer()
        node_results: dict[int, StructureEstimate] = {}
        records: list[NodeSolveRecord] = []
        # Match the serial solver's contract: an outer active recorder
        # receives every worker's shipped events (workers record locally,
        # so nothing is double-counted).
        outer = current_recorder()
        merged = outer if outer is not None else Recorder()
        if self.plane is not None and self._use_shared_memory():
            plane, owns_plane = self.plane, False
        else:
            plane = SharedEstimatePlane() if self._use_shared_memory() else None
            owns_plane = True
        try:
            with obs.span(
                "cycle",
                cat="solve",
                solver="parallel",
                backend=type(self.executor).__name__,
                dispatch=self.dispatch,
                placement=self.placement.policy if self.placement else "none",
                nodes=len(self.hierarchy.nodes),
                rows=self.n_constraint_rows,
            ), total:
                obs.set_gauge(
                    "sched.workers",
                    float(max(1, getattr(self.executor, "n_workers", 1))),
                )
                if self.dispatch == "wavefront":
                    self._run_wavefront(
                        estimate, node_results, records, merged, plane, dirty, cache
                    )
                else:
                    self._run_dependency(
                        estimate, node_results, records, merged, plane, dirty, cache
                    )
        finally:
            if plane is not None:
                if owns_plane:
                    plane.close()
                else:
                    plane.close_transient()
        obs.inc("solve.cycles")
        obs.observe_latency("cycle.seconds", total.elapsed)
        if self.labels:
            obs.inc("solve.cycles", labels=self.labels)
        final = cycle_output(self.hierarchy, estimate, node_results, cache)
        records.sort(key=lambda r: r.nid)
        # The robustness ledger in the serial solver's post order, so it
        # does not depend on which node finished first.
        by_nid = {r.nid: r for r in records}
        ordered = [
            by_nid[n.nid] for n in self.hierarchy.post_order() if n.nid in by_nid
        ]
        return HierCycleResult(
            final,
            total.elapsed,
            merged,
            records,
            self.n_constraint_rows,
            quarantined=tuple(q for r in ordered for q in r.quarantined),
            retries=tuple(t for r in ordered for t in r.retries),
        )

    # ------------------------------------------------- wavefront (legacy)
    def _run_wavefront(
        self,
        estimate: StructureEstimate,
        node_results: dict[int, StructureEstimate],
        records: list[NodeSolveRecord],
        merged: Recorder,
        plane: SharedEstimatePlane | None,
        dirty: "frozenset[int] | set[int] | None" = None,
        cache=None,
    ) -> None:
        tracer = obs.current_tracer()
        registry = obs.current_metrics()
        for height, front in enumerate(self.wavefronts()):
            if dirty is not None:
                front = [n for n in front if n.nid in dirty]
                if not front:
                    continue
            with obs.span(
                f"wavefront[{height}]", cat="solve", nodes=len(front)
            ) as wf:
                tasks = [
                    self._make_task(node, estimate, node_results, plane, cache)
                    for node in front
                ]
                for task, result in zip(
                    tasks, self.executor.map(_run_node_task, tasks)
                ):
                    self._ingest(
                        task,
                        result,
                        plane,
                        node_results,
                        records,
                        merged,
                        registry,
                        tracer,
                        trace_parent=wf.span_id if wf is not None else None,
                        cache=cache,
                    )

    # ------------------------------------------------- dependency-driven
    def _run_dependency(
        self,
        estimate: StructureEstimate,
        node_results: dict[int, StructureEstimate],
        records: list[NodeSolveRecord],
        merged: Recorder,
        plane: SharedEstimatePlane | None,
        dirty: "frozenset[int] | set[int] | None" = None,
        cache=None,
    ) -> None:
        """Submit a node the moment its last child has completed.

        Ready-count bookkeeping: each inner node holds a count of
        unfinished children; a completion decrements its parent's count
        and a count of zero submits the parent immediately — no barrier
        between heights.  On a dirty-restricted pass the counts span
        *dirty* children only, so a node all of whose dirty children
        have finished dispatches immediately — clean subtrees neither
        run nor gate anything.  Lost tasks (injected crashes or a broken
        process pool) are resubmitted per task, bounded by the executor's
        ``max_resubmits``; a broken pool is rebuilt once per detection
        via :meth:`~repro.parallel.executors.Executor.recover`.

        With :attr:`placement` configured the ready pool is replaced by
        cost-packed per-lane queues with stealing
        (:meth:`_run_dependency_placed`).
        """
        if self.placement is not None:
            return self._run_dependency_placed(
                estimate, node_results, records, merged, plane, dirty, cache
            )
        tracer = obs.current_tracer()
        registry = obs.current_metrics()
        injector = current_injector()
        heights = self.heights()
        nodes = {n.nid: n for n in self.hierarchy.nodes}
        waiting = {
            n.nid: (
                len(n.children)
                if dirty is None
                else sum(1 for c in n.children if c.nid in dirty)
            )
            for n in self.hierarchy.nodes
            if not n.is_leaf
        }
        # Per-height span windows + buffered worker trace payloads: the
        # wavefront grouping no longer exists at runtime, but the trace
        # keeps it as a reporting grouping (completed post-hoc).
        windows: dict[int, list[float]] = {}
        buffered: dict[int, list[dict]] = {}
        pending: dict[concurrent.futures.Future, tuple[_NodeTask, int]] = {}

        def submit(node: HierarchyNode, resubmits: int = 0, task=None) -> None:
            if task is None:
                task = self._make_task(node, estimate, node_results, plane, cache)
            # One injected-crash draw per *original* submission, matching
            # Executor.map's contract: a resubmitted task is not
            # re-poisoned (and consumes no draw), so crash_p=1.0 still
            # converges after one recovery round per node.
            crash = (
                injector.crash_schedule(1)[0]
                if injector is not None and resubmits == 0
                else False
            )
            try:
                future = self.executor.submit(_run_node_task, task, crash=crash)
            except BrokenProcessPool:
                # A hard-killed worker can break the pool between our
                # wait() rounds, surfacing first at submit time rather
                # than on a failed future.  The task never started, so
                # rebuilding and submitting again burns no resubmit round
                # (and keeps the crash draw already made above).
                self.executor.recover()
                future = self.executor.submit(_run_node_task, task, crash=crash)
            pending[future] = (task, resubmits)
            if tracer is not None:
                h = heights[task.nid]
                now = tracer.clock.now()
                lo, hi = windows.get(h, (now, now))
                windows[h] = [min(lo, now), max(hi, now)]

        for node in self.hierarchy.post_order():
            if dirty is not None:
                # Roots of the dirty frontier: dirty nodes with no dirty
                # children (their clean children come from the cache).
                if node.nid in dirty and waiting.get(node.nid, 0) == 0:
                    submit(node)
            elif node.is_leaf:
                submit(node)
        obs.set_gauge("sched.inflight", float(len(pending)))
        while pending:
            done, _ = concurrent.futures.wait(
                pending, return_when=concurrent.futures.FIRST_COMPLETED
            )
            lost: list[tuple[_NodeTask, int]] = []
            ready: list[HierarchyNode] = []
            pool_broken = False
            for future in done:
                task, resubmits = pending.pop(future)
                try:
                    result = future.result()
                except WorkerCrashError:
                    lost.append((task, resubmits))
                    continue
                except BrokenProcessPool:
                    pool_broken = True
                    lost.append((task, resubmits))
                    continue
                node = nodes[task.nid]
                self._ingest(
                    task,
                    result,
                    plane,
                    node_results,
                    records,
                    merged,
                    registry,
                    tracer,
                    trace_buffer=buffered.setdefault(heights[task.nid], []),
                    cache=cache,
                )
                if tracer is not None:
                    h = heights[task.nid]
                    now = tracer.clock.now()
                    windows[h][1] = max(windows[h][1], now)
                parent = node.parent
                if parent is not None and (dirty is None or parent.nid in dirty):
                    waiting[parent.nid] -= 1
                    if waiting[parent.nid] == 0:
                        # Deferred below: a sibling future in this same
                        # `done` batch may have broken the pool, and a
                        # submit must never race the rebuild.
                        ready.append(parent)
            if pool_broken:
                self.executor.recover()
            for parent in ready:
                submit(parent)
            for task, resubmits in lost:
                resubmits += 1
                obs.inc("executor.tasks_resubmitted")
                obs.instant(
                    "executor.resubmit", cat="executor", nid=task.nid, round=resubmits
                )
                if resubmits > self.executor.max_resubmits:
                    raise WorkerCrashError(
                        f"node {task.nid} still lost to worker crashes after "
                        f"{self.executor.max_resubmits} resubmission rounds"
                    )
                submit(nodes[task.nid], resubmits, task=task)
            obs.set_gauge("sched.inflight", float(len(pending)))
        self._complete_windows(tracer, windows, buffered)

    def _complete_windows(
        self,
        tracer,
        windows: dict[int, list[float]],
        buffered: dict[int, list[dict]],
    ) -> None:
        """Post-hoc per-height ``wavefront[h]`` trace spans (reporting only)."""
        if tracer is None:
            return
        fronts = self.wavefronts()
        for h in sorted(windows):
            start, end = windows[h]
            wf = tracer.complete(
                f"wavefront[{h}]",
                "solve",
                start,
                end,
                nodes=len(fronts[h]),
                dispatch="dependency",
            )
            for payload in buffered.get(h, []):
                tracer.merge(payload, parent_id=wf.span_id)

    # --------------------------------------- dependency + placement/steal
    def _run_dependency_placed(
        self,
        estimate: StructureEstimate,
        node_results: dict[int, StructureEstimate],
        records: list[NodeSolveRecord],
        merged: Recorder,
        plane: SharedEstimatePlane | None,
        dirty: "frozenset[int] | set[int] | None" = None,
        cache=None,
    ) -> None:
        """Dependency dispatch through cost-packed lane queues + stealing.

        Before any submission the cycle's nodes are HEFT-packed onto
        ``executor.n_workers`` logical lanes using Equation-1 predicted
        costs corrected by accumulated measurements
        (:func:`~repro.parallel.placement.plan_placement`).  Each lane
        holds a queue of *ready* nodes and at most one inflight task;
        a lane pops its own queue by descending upward rank (executing
        the packed schedule), and when its queue drains it steals the
        largest predicted-cost ready node from the peer with the most
        queued predicted work (``sched.steals``; a failed attempt while
        work is still inflight counts ``sched.steal_misses``).  Tasks
        are materialized only at submission, so a stolen node moves as a
        bare id — with a pickling backend the prior still crosses as a
        shared-memory handle, never a pickled estimate.

        Node tasks apply their constraint batches in order regardless of
        which lane runs them, so any interleaving of whole-node
        submissions — including every steal — is bit-identical to the
        serial solver.  Crash-lost tasks are resubmitted on their
        original lane with the standard resubmit budget.
        """
        tracer = obs.current_tracer()
        registry = obs.current_metrics()
        injector = current_injector()
        heights = self.heights()
        nodes = {n.nid: n for n in self.hierarchy.nodes}
        run_nids = [
            n.nid
            for n in self.hierarchy.post_order()
            if dirty is None or n.nid in dirty
        ]
        if not run_nids:
            return
        n_lanes = max(1, int(getattr(self.executor, "n_workers", 1)))
        overrides = dict(self.placement.cost_overrides)
        overrides.update(self.measured_costs)
        costs = predicted_costs(
            self.hierarchy,
            self.batch_size,
            model=self.placement.model,
            overrides=overrides,
            nids=run_nids,
        )
        edges = hierarchy_edges(self.hierarchy, nids=run_nids)
        plan = plan_placement(costs, edges, n_lanes, self.placement.policy)
        self.last_placement = plan
        obs.inc(f"sched.placement.{plan.policy}")
        obs.set_gauge("sched.placement_lanes", float(n_lanes))
        obs.set_gauge("sched.predicted_makespan_seconds", plan.predicted_makespan)
        waiting = {
            n.nid: (
                len(n.children)
                if dirty is None
                else sum(1 for c in n.children if c.nid in dirty)
            )
            for n in self.hierarchy.nodes
            if not n.is_leaf
        }
        windows: dict[int, list[float]] = {}
        buffered: dict[int, list[dict]] = {}
        # lane → {ready nid: predicted seconds}; at most one task inflight
        # per lane, so a lane's queue depth is its outstanding backlog.
        queues: list[dict[int, float]] = [{} for _ in range(n_lanes)]
        lane_busy = [False] * n_lanes
        inflight: dict[concurrent.futures.Future, tuple[_NodeTask, int, int]] = {}
        steal = self.placement.steal and n_lanes > 1

        def enqueue(nid: int) -> None:
            queues[plan.assignment.get(nid, nid % n_lanes)][nid] = plan.costs.get(
                nid, 0.0
            )

        def submit_on(lane: int, node=None, resubmits: int = 0, task=None) -> None:
            if task is None:
                task = self._make_task(node, estimate, node_results, plane, cache)
            # One injected-crash draw per *original* submission (see
            # _run_dependency): resubmits are never re-poisoned.
            crash = (
                injector.crash_schedule(1)[0]
                if injector is not None and resubmits == 0
                else False
            )
            try:
                future = self.executor.submit(_run_node_task, task, crash=crash)
            except BrokenProcessPool:
                # Same submit-time breakage race as _run_dependency's
                # submit(): rebuild and go again without burning a round.
                self.executor.recover()
                future = self.executor.submit(_run_node_task, task, crash=crash)
            inflight[future] = (task, resubmits, lane)
            lane_busy[lane] = True
            if tracer is not None:
                h = heights[task.nid]
                now = tracer.clock.now()
                lo, hi = windows.get(h, (now, now))
                windows[h] = [min(lo, now), max(hi, now)]

        def dispatch(lane: int) -> None:
            if lane_busy[lane]:
                return
            own = queues[lane]
            if own:
                # Execute the packed schedule: longest remaining chain
                # first, ties to the lowest nid for determinism.
                nid = max(own, key=lambda n: (plan.rank.get(n, 0.0), -n))
                del own[nid]
            elif steal:
                victim = max(
                    (v for v in range(n_lanes) if v != lane and queues[v]),
                    key=lambda v: sum(queues[v].values()),
                    default=None,
                )
                if victim is None:
                    if inflight:
                        obs.inc("sched.steal_misses")
                    return
                vq = queues[victim]
                nid = max(vq, key=lambda n: (vq[n], -n))
                del vq[nid]
                obs.inc("sched.steals")
            else:
                return
            submit_on(lane, nodes[nid])

        for node in self.hierarchy.post_order():
            if dirty is not None:
                if node.nid in dirty and waiting.get(node.nid, 0) == 0:
                    enqueue(node.nid)
            elif node.is_leaf:
                enqueue(node.nid)
        for lane in range(n_lanes):
            dispatch(lane)
        obs.set_gauge("sched.inflight", float(len(inflight)))
        obs.set_gauge("sched.queued", float(sum(len(q) for q in queues)))
        while inflight:
            done, _ = concurrent.futures.wait(
                inflight, return_when=concurrent.futures.FIRST_COMPLETED
            )
            lost: list[tuple[_NodeTask, int, int]] = []
            pool_broken = False
            for future in done:
                task, resubmits, lane = inflight.pop(future)
                lane_busy[lane] = False
                try:
                    result = future.result()
                except WorkerCrashError:
                    lost.append((task, resubmits, lane))
                    continue
                except BrokenProcessPool:
                    pool_broken = True
                    lost.append((task, resubmits, lane))
                    continue
                node = nodes[task.nid]
                # Lane attribution for the live busy% view: the worker's
                # measured node seconds credit the lane that ran it.
                obs.inc(f"sched.lane.{lane}.busy_seconds", float(result[3]))
                self._ingest(
                    task,
                    result,
                    plane,
                    node_results,
                    records,
                    merged,
                    registry,
                    tracer,
                    trace_buffer=buffered.setdefault(heights[task.nid], []),
                    cache=cache,
                )
                if tracer is not None:
                    h = heights[task.nid]
                    now = tracer.clock.now()
                    windows[h][1] = max(windows[h][1], now)
                parent = node.parent
                if parent is not None and (dirty is None or parent.nid in dirty):
                    waiting[parent.nid] -= 1
                    if waiting[parent.nid] == 0:
                        enqueue(parent.nid)
            if pool_broken:
                self.executor.recover()
            for task, resubmits, lane in lost:
                resubmits += 1
                obs.inc("executor.tasks_resubmitted")
                obs.instant(
                    "executor.resubmit", cat="executor", nid=task.nid, round=resubmits
                )
                if resubmits > self.executor.max_resubmits:
                    raise WorkerCrashError(
                        f"node {task.nid} still lost to worker crashes after "
                        f"{self.executor.max_resubmits} resubmission rounds"
                    )
                submit_on(lane, resubmits=resubmits, task=task)
            for lane in range(n_lanes):
                dispatch(lane)
            obs.set_gauge("sched.inflight", float(len(inflight)))
            obs.set_gauge("sched.queued", float(sum(len(q) for q in queues)))
        self._complete_windows(tracer, windows, buffered)

    # ----------------------------------------------------------- plumbing
    def _ingest(
        self,
        task: _NodeTask,
        result: tuple,
        plane: SharedEstimatePlane | None,
        node_results: dict[int, StructureEstimate],
        records: list[NodeSolveRecord],
        merged: Recorder,
        registry,
        tracer,
        trace_parent: int | None = None,
        trace_buffer: list[dict] | None = None,
        cache=None,
    ) -> None:
        """Fold one completed node result into the cycle state."""
        nid, posterior, events, seconds, n_batches, payload, quarantined, retries = (
            result
        )
        if posterior is None:
            posterior = plane.read_posterior(task.prior_handle)
        if cache is not None:
            if (
                task.prior_handle is not None
                and getattr(cache, "plane", None) is plane
            ):
                # The posterior already lives in the task's segment — pin
                # it as the node's cached posterior instead of copying it
                # host-side and re-uploading.
                plane.promote(task.prior_handle, nid)
                note = getattr(cache, "note_promoted", None)
                if note is not None:
                    note(nid, posterior)
            else:
                cache.store(nid, posterior)
        if task.prior_handle is not None:
            plane.release(task.prior_handle)  # no-op for pinned segments
        node = self.hierarchy.node(nid)
        node_results[nid] = posterior
        self.measured_costs[nid] = seconds
        merged.events.extend(events)
        obs.inc("sched.nodes_completed")
        obs.inc("sched.busy_seconds", float(seconds))
        if payload is not None:
            if tracer is not None and payload["trace"] is not None:
                if trace_buffer is not None:
                    trace_buffer.append(payload["trace"])
                else:
                    tracer.merge(payload["trace"], parent_id=trace_parent)
            if registry is not None:
                registry.merge_snapshot(payload["metrics"])
            if payload.get("flight") is not None:
                recorder = obs.current_flight_recorder()
                if recorder is not None:
                    recorder.absorb(payload["flight"])
        records.append(
            NodeSolveRecord(
                nid=nid,
                name=node.name,
                depth=node.depth,
                state_dim=node.state_dim,
                n_constraint_rows=node.n_constraint_rows,
                n_batches=n_batches,
                seconds=seconds,
                events=list(events),
                quarantined=tuple(quarantined),
                retries=tuple(retries),
            )
        )

    def _make_task(
        self,
        node: HierarchyNode,
        global_estimate: StructureEstimate,
        node_results: dict[int, StructureEstimate],
        plane: SharedEstimatePlane | None = None,
        cache=None,
    ) -> _NodeTask:
        if node.is_leaf:
            prior = global_estimate.extract_atoms(node.atoms)
        else:
            parts = []
            for c in node.children:
                part = node_results.pop(c.nid, None)
                if part is None:
                    part = cache.load(c.nid)
                    obs.inc("session.cache_hits")
                parts.append(part)
            prior = StructureEstimate.block_diagonal(parts)
        handle = None
        if plane is not None:
            handle = plane.put_prior(prior)
            prior = None
        return _NodeTask(
            nid=node.nid,
            prior=prior,
            constraints=node.constraints,
            column_map=node.column_map(self.hierarchy.n_atoms),
            batch_size=self.batch_size,
            options=self.options,
            prior_handle=handle,
            trace=obs.current_tracer() is not None,
            collect_metrics=obs.current_metrics() is not None,
            parent_nid=-1 if node.parent is None else node.parent.nid,
            flight=obs.current_flight_recorder() is not None,
            labels=self.labels,
        )
