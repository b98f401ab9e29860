"""Tree-parallel hierarchical solver.

The hierarchy's data dependencies are child → parent only, and the
scheduler exploits exactly that: dependency-driven dispatch submits every
leaf up front and submits a parent the moment its *last* child completes
(futures plus ready-count bookkeeping), so no node ever waits on an
unrelated subtree.  Every node solves on the same inputs as in post
order, so results are bit-identical to
:class:`repro.core.hier_solver.HierarchicalSolver` with any backend.

Node tasks are self-contained payloads (the node's sources, constraints,
column map), so they cross process boundaries: a leaf's task carries its
extracted prior, a parent's its children's posteriors, and the worker
builds the node's prior itself with the serial solver's
:meth:`~repro.core.state.StructureEstimate.block_diagonal`.  Each worker
records its own kernel events — and, when the dispatching solve is being
traced or flight-recorded, its own spans, metrics and flight ring — and
ships them back; the dispatcher merges each under the ``cycle`` span as
it takes the result.  Worker spans keep the worker's pid/tid, which is
what gives the exported Chrome trace one lane per worker.  With a
pickling backend the estimate arrays themselves do not ride in the task
at all: every node writes its posterior into its segment on a
:class:`~repro.parallel.shm.SharedEstimatePlane`, tasks ship O(1)-sized
handles, and the dispatcher reads only the root's posterior (see that
module for the lifetime rules).
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
from repro.parallel.shm import (
    EstimateHandle,
    SharedEstimatePlane,
    posterior_views,
    read_prior,
    write_posterior,
)
from repro.util.timer import Timer


@dataclass
class _NodeTask:
    """Picklable description of one node's update.

    The node's sources are a leaf's ``prior`` (its block of the cycle
    input) or an inner node's ``children`` posteriors, in child order.
    With the shared-memory plane, ``handle`` names the segment the worker
    writes the posterior to; a leaf's prior then sits in that segment's
    prior slot (``prior`` is ``None``) and the children are handles to
    their segments, so the task ships O(1) bytes of estimate.
    ``trace``/``collect_metrics`` tell the worker to run under a local
    collecting tracer/registry and ship the records back (contextvars do
    not cross executor boundaries, so observability is opt-in per task).
    """

    nid: int
    state_dim: int
    constraints: list[Constraint]
    column_map: np.ndarray
    batch_size: int
    options: UpdateOptions
    prior: StructureEstimate | None = None
    children: tuple[StructureEstimate | EstimateHandle, ...] = ()
    handle: EstimateHandle | None = None
    trace: bool = False
    collect_metrics: bool = False
    parent_nid: int = -1
    #: Mirror the dispatching side's flight recorder: the worker runs a
    #: local ring and ships it home in the obs payload (the parent's
    #: ``merge`` re-fires any forensic triggers the worker saw).
    flight: bool = False
    #: Label set (session id, backend...) stamped onto the worker's
    #: per-task metric series, so per-session counters survive the trip.
    labels: dict | None = None


def _node_prior(task: _NodeTask) -> StructureEstimate:
    """The node's prior, built from its sources and owned by this worker.

    A parent's is the block-diagonal of its children's posteriors, the
    serial solver's function over the same bits, read in place from the
    children's segments on the plane.  A leaf's is a private copy of its
    segment's prior slot, or the task's own ``extract_atoms`` copy.
    Neither a segment nor a child posterior is written, so a resubmitted
    task rebuilds the same prior.  An in-process task is lost only before
    it starts (an injected crash fires first), so the leaf prior it
    carries is consumed once.
    """
    if task.children:
        with posterior_views(task.children) as parts:
            return StructureEstimate.block_diagonal(parts)
    if task.handle is not None:
        return read_prior(task.handle)
    return task.prior


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
    """Worker entry point: build the node's prior, apply its batches.

    Returns ``(nid, posterior-or-None, events, seconds, n_batches,
    obs_payload, quarantined, retries)``; the posterior slot is ``None``
    when the task carried a shared-memory handle (the posterior went back
    through the segment).  ``seconds`` covers the prior's assembly and
    the batches.  The last two carry the node's
    :class:`~repro.faults.QuarantineRecord` and
    :class:`~repro.faults.RetryReport` lists home.
    """
    rec = Recorder()
    timer = Timer()
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
            state_dim=task.state_dim,
            rows=sum(b.dimension for b in batches),
            parent_nid=task.parent_nid,
        ), recording(rec), rec.tagged(task.nid), timer:
            estimate = apply_batches(
                _node_prior(task),
                batches,
                task.column_map,
                task.options,
                task.nid,
                quarantined,
                retries,
                consume_estimate=True,
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
    if task.handle is not None:
        write_posterior(task.handle, estimate)
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
    """

    def __init__(
        self,
        hierarchy: Hierarchy,
        batch_size: int = 16,
        options: UpdateOptions = UpdateOptions(),
        executor: Executor | None = None,
        shared_memory: bool | None = None,
        plane: SharedEstimatePlane | None = None,
        labels: dict | None = None,
    ):
        self.hierarchy = hierarchy
        self.batch_size = int(batch_size)
        self.options = options
        self.executor = executor if executor is not None else SerialExecutor()
        self.shared_memory = shared_memory
        self.plane = plane
        #: Metric labels (session id, backend...) stamped onto per-task
        #: series published by the workers this solver dispatches.
        self.labels = dict(labels) if labels else None
        self.n_constraint_rows = sum(n.n_constraint_rows for n in hierarchy.nodes)

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
        host-side copy (see :meth:`SharedEstimatePlane.promote`), and the
        node's next pass rewrites that segment in place.

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
        node_results: dict[int, StructureEstimate | EstimateHandle] = {}
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
                nodes=len(self.hierarchy.nodes),
                rows=self.n_constraint_rows,
            ) as cycle, total:
                obs.set_gauge(
                    "sched.workers",
                    float(max(1, getattr(self.executor, "n_workers", 1))),
                )
                cycle_id = None if cycle is None else cycle.span_id
                self._run_dependency(
                    estimate, node_results, records, merged, plane, dirty, cache,
                    cycle_id,
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

    # ------------------------------------------------- dependency-driven
    def _run_dependency(
        self,
        estimate: StructureEstimate,
        node_results: dict[int, StructureEstimate | EstimateHandle],
        records: list[NodeSolveRecord],
        merged: Recorder,
        plane: SharedEstimatePlane | None,
        dirty: "frozenset[int] | set[int] | None" = None,
        cache=None,
        cycle_id: int | None = None,
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
        ``max_resubmits``; a broken pool is rebuilt once per break via
        :meth:`~repro.parallel.executors.Executor.recover`, and every
        task still on it is lost with it.  Worker obs payloads are merged
        under the ``cycle`` span ``cycle_id``.
        """
        injector = current_injector()
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
        # Each future's task, resubmit round and pool generation.
        pending: dict[concurrent.futures.Future, tuple[_NodeTask, int, int]] = {}
        pool = 0  # generation of the executor's pool: +1 per rebuild

        def rebuild() -> None:
            nonlocal pool
            self.executor.recover()
            pool += 1

        def submit(node: HierarchyNode, resubmits: int = 0, task=None) -> None:
            if task is None:
                task = self._make_task(node, estimate, node_results, plane, cache)
            # One injected-crash draw per *original* submission: a
            # resubmitted task is not re-poisoned (and consumes no draw),
            # so crash_p=1.0 still converges after one recovery round per
            # node, and the fault schedule is deterministic for a seed.
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
                rebuild()
                future = self.executor.submit(_run_node_task, task, crash=crash)
            pending[future] = (task, resubmits, pool)

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
                task, resubmits, born = pending.pop(future)
                try:
                    result = future.result()
                except WorkerCrashError:
                    lost.append((task, resubmits))
                    continue
                except BrokenProcessPool:
                    # A pool that was already replaced needs no rebuild.
                    pool_broken |= born == pool
                    lost.append((task, resubmits))
                    continue
                node = nodes[task.nid]
                self._ingest(
                    task, result, plane, node_results, records, merged, cycle_id, cache
                )
                parent = node.parent
                if parent is not None and (dirty is None or parent.nid in dirty):
                    waiting[parent.nid] -= 1
                    if waiting[parent.nid] == 0:
                        # Deferred below: a sibling future in this same
                        # `done` batch may have broken the pool, and a
                        # submit must never race the rebuild.
                        ready.append(parent)
            if pool_broken:
                rebuild()
            # A task still unfinished on a replaced pool is lost.  The pool
            # fails such tasks itself, except one whose submit raced the
            # break: CPython before 3.12 never resolves that future.
            for future in [
                f for f, (_, _, born) in pending.items() if born < pool and not f.done()
            ]:
                task, resubmits, _ = pending.pop(future)
                lost.append((task, resubmits))
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

    # ----------------------------------------------------------- plumbing
    def _ingest(
        self,
        task: _NodeTask,
        result: tuple,
        plane: SharedEstimatePlane | None,
        node_results: dict[int, StructureEstimate | EstimateHandle],
        records: list[NodeSolveRecord],
        merged: Recorder,
        cycle_id: int | None,
        cache=None,
    ) -> None:
        """Fold one completed node result into the cycle state.

        On the plane the node's result is its segment's handle, which
        its parent's task carries; the dispatcher copies out only the
        root's posterior (for the cycle output) and a posterior a
        host-side cache stores.  A cache backed by this plane pins the
        segment instead (:meth:`SharedEstimatePlane.promote`).  The
        children's segments are released here unless pinned.  The
        worker's spans and flight ring join the active tracer and
        recorder under the ``cycle`` span ``cycle_id``.
        """
        nid, posterior, events, seconds, n_batches, payload, quarantined, retries = (
            result
        )
        handle = task.handle
        pinned = handle is not None and getattr(cache, "plane", None) is plane
        if handle is not None:
            for child in task.children:
                plane.release(child)
            if nid == self.hierarchy.root.nid or (cache is not None and not pinned):
                posterior = plane.read_posterior(handle)
        if pinned:
            plane.promote(handle, nid)
            cache.note_promoted(nid)
        elif cache is not None:
            cache.store(nid, posterior)
        node = self.hierarchy.node(nid)
        node_results[nid] = posterior if posterior is not None else handle
        merged.events.extend(events)
        obs.inc("sched.nodes_completed")
        obs.inc("sched.busy_seconds", float(seconds))
        if payload is not None:
            for sink, part in (
                (obs.current_tracer(), payload["trace"]),
                (obs.current_flight_recorder(), payload["flight"]),
            ):
                if sink is not None:
                    sink.merge(part, parent_id=cycle_id)
            registry = obs.current_metrics()
            if registry is not None:
                registry.merge_snapshot(payload["metrics"])
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
        node_results: dict[int, StructureEstimate | EstimateHandle],
        plane: SharedEstimatePlane | None = None,
        cache=None,
    ) -> _NodeTask:
        """A node's task: its sources and, on the plane, its claimed segment."""
        handle = None if plane is None else plane.claim(node.nid, node.state_dim)
        prior = None
        children: tuple = ()
        if node.is_leaf:
            prior = global_estimate.extract_atoms(node.atoms)
            if handle is not None:
                plane.put_prior(prior, handle)
                prior = None
        else:
            children = tuple(
                self._child_source(c, node_results, plane, cache)
                for c in node.children
            )
        return _NodeTask(
            nid=node.nid,
            state_dim=node.state_dim,
            constraints=node.constraints,
            column_map=node.column_map(self.hierarchy.n_atoms),
            batch_size=self.batch_size,
            options=self.options,
            prior=prior,
            children=children,
            handle=handle,
            trace=obs.current_tracer() is not None,
            collect_metrics=obs.current_metrics() is not None,
            parent_nid=-1 if node.parent is None else node.parent.nid,
            flight=obs.current_flight_recorder() is not None,
            labels=self.labels,
        )

    @staticmethod
    def _child_source(
        child: HierarchyNode,
        node_results: dict[int, StructureEstimate | EstimateHandle],
        plane: SharedEstimatePlane | None,
        cache,
    ) -> StructureEstimate | EstimateHandle:
        """A child's posterior for its parent's task: this pass's, else the cache's.

        On the plane a clean child travels as its pin's handle.  A clean
        posterior held only host-side (a session reloaded from its
        store) is copied into a pinned segment first, so process tasks
        carry handles only.
        """
        source = node_results.pop(child.nid, None)
        if source is not None:
            return source
        obs.inc("session.cache_hits")
        if plane is None:
            return cache.load(child.nid)
        if not plane.has_pinned(child.nid):
            plane.pin_posterior(child.nid, cache.load(child.nid))
        return plane.pinned_handle(child.nid)
