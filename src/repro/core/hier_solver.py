"""The hierarchical solver: post-order tree computation (§3).

Every leaf is updated with its own constraints as an independent instance
of the flat problem; a parent's state is then the block-diagonal
concatenation of its children's posteriors (initially uncorrelated), to
which the parent applies the constraints that span its children.  The
root's posterior is the full-structure estimate.

Each node's kernel events are tagged with the node id, producing the
per-node work profile the machine simulator and the processor-assignment
heuristic consume.

One node body, :func:`run_node`, serves every backend: the serial
post-order loop calls it inline, and the tree-parallel scheduler's
worker task (:mod:`repro.parallel.scheduler`) calls it in the worker.

Robustness (see ``docs/robustness.md``): batches whose updates fail
terminally (after the escalating-regularization retries inside
:func:`repro.core.update.apply_batch`) are quarantined and reported
instead of aborting the solve, and injected node crashes are absorbed by
a bounded node-level restart (:data:`NODE_CRASH_ATTEMPTS`), modeling a
supervisor restarting a dead subtree worker.  Durable runs stream every
completed node through a :class:`~repro.core.session.SolveSession` store
(the ``cache`` of :meth:`HierarchicalSolver.run_cycle`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Sequence

import numpy as np

from repro import obs
from repro.constraints.base import Constraint
from repro.constraints.batch import make_batches
from repro.core.convergence import ConvergenceReport, solve_to_convergence
from repro.core.hierarchy import Hierarchy, HierarchyNode
from repro.core.state import StructureEstimate
from repro.core.update import UpdateOptions, apply_batch, apply_batches
from repro.errors import HierarchyError, WorkerCrashError
from repro.faults.injector import current_injector
from repro.faults.report import QuarantineRecord, RetryReport
from repro.linalg.counters import KernelEvent, Recorder, current_recorder, recording
from repro.util.timer import Timer

if TYPE_CHECKING:
    from repro.core.session import NodeCacheProtocol

#: How many times the serial solver starts a node whose injected crash
#: fault fires before the crash propagates (the process backend's
#: counterpart is :attr:`repro.parallel.executors.Executor.max_resubmits`).
NODE_CRASH_ATTEMPTS = 3


@dataclass
class NodeSolveRecord:
    """Work performed at one tree node during a cycle.

    ``quarantined`` and ``retries`` are the node's own robustness ledger;
    a cycle's ledger is built from its records (:class:`HierCycleResult`).
    """

    nid: int
    name: str
    depth: int
    state_dim: int
    n_constraint_rows: int
    n_batches: int
    seconds: float
    events: list[KernelEvent] = field(default_factory=list)
    quarantined: tuple[QuarantineRecord, ...] = ()
    retries: tuple[RetryReport, ...] = ()

    @property
    def flops(self) -> float:
        return sum(e.flops for e in self.events)


@dataclass(frozen=True)
class HierCycleResult:
    """Outcome of one hierarchical cycle.

    ``records`` are in post order (node ids are post-order indices), so
    the cycle's ledger, ``quarantined`` and ``retries``, is in post order
    whichever backend ran the nodes and in whatever order they finished.
    """

    estimate: StructureEstimate
    seconds: float
    recorder: Recorder
    records: list[NodeSolveRecord]
    n_constraint_rows: int

    @property
    def quarantined(self) -> tuple[QuarantineRecord, ...]:
        return tuple(q for r in self.records for q in r.quarantined)

    @property
    def retries(self) -> tuple[RetryReport, ...]:
        return tuple(t for r in self.records for t in r.retries)

    @property
    def seconds_per_constraint(self) -> float:
        return self.seconds / max(1, self.n_constraint_rows)

    def record_by_nid(self) -> dict[int, NodeSolveRecord]:
        return {r.nid: r for r in self.records}


def cycle_output(
    hierarchy: Hierarchy,
    estimate: StructureEstimate,
    node_results: dict[int, StructureEstimate],
    cache: "NodeCacheProtocol | None",
) -> StructureEstimate:
    """A cycle's output: ``estimate`` with the root posterior over the root's atoms.

    A new estimate (:meth:`StructureEstimate.embedded_in`); neither the
    cycle input nor the root posterior, which a session cache may hold,
    is written or aliased.
    """
    root = hierarchy.root
    posterior = node_results.get(root.nid)
    if posterior is None:
        # Possible only on a dirty-restricted pass with an empty frontier
        # (a no-op re-solve); the cached root stands.
        posterior = cache.load(root.nid)
    return posterior.embedded_in(estimate, root.atoms)


def node_attrs(node: HierarchyNode, batch_size: int) -> dict:
    """The attributes of ``node``'s ``node[nid]`` span known before it runs.

    :func:`run_node` adds ``rows``, ``n_constraints`` and ``n_batches``,
    so every backend's node spans carry the same attribute set.
    """
    return {
        "nid": node.nid,
        "node_name": node.name,
        "depth": node.depth,
        "state_dim": node.state_dim,
        "leaf": node.is_leaf,
        "batch_size": batch_size,
        "parent_nid": -1 if node.parent is None else node.parent.nid,
    }


def run_node(
    attrs: dict,
    prior: Callable[[], StructureEstimate],
    constraints: Sequence[Constraint],
    column_map: np.ndarray,
    options: UpdateOptions,
    rec: Recorder,
    apply: Callable[..., StructureEstimate],
) -> tuple[StructureEstimate, NodeSolveRecord]:
    """Run one node: build its prior, apply its batches, record the work.

    The one node body of every backend.  Inside the ``node[nid]`` span
    (``attrs`` from :func:`node_attrs`) and with ``rec`` tagged by the
    node id, the node timer covers the ``slow`` fault draw, the prior
    built by ``prior()`` and the batch loop.  ``prior()`` must return an
    estimate built for this node alone, because the first batch consumes
    it.  ``apply`` is the per-batch update (see :func:`apply_batches`).

    Returns the posterior and the node's record, which carries its
    events and its own quarantine and retry lists.
    """
    nid = attrs["nid"]
    quarantined: list[QuarantineRecord] = []
    retries: list[RetryReport] = []
    timer = Timer()
    with obs.span(f"node[{nid}]", cat="solve", **attrs) as sp, rec.tagged(nid):
        n_events = len(rec.events)
        with timer:
            injector = current_injector()
            if injector is not None:
                injector.maybe_sleep()
            posterior = prior()
            batches = make_batches(constraints, attrs["batch_size"])
            posterior = apply_batches(
                posterior,
                batches,
                column_map,
                options,
                nid,
                quarantined,
                retries,
                apply=apply,
                consume_estimate=True,
            )
        rows = sum(b.dimension for b in batches)
        if sp is not None:
            sp.attrs.update(
                rows=rows, n_constraints=len(constraints), n_batches=len(batches)
            )
        events = rec.events[n_events:]
    record = NodeSolveRecord(
        nid=nid,
        name=attrs["node_name"],
        depth=attrs["depth"],
        state_dim=attrs["state_dim"],
        n_constraint_rows=rows,
        n_batches=len(batches),
        seconds=timer.elapsed,
        events=events,
        quarantined=tuple(quarantined),
        retries=tuple(retries),
    )
    return posterior, record


class HierarchicalSolver:
    """Post-order solver over a constraint-assigned :class:`Hierarchy`.

    Parameters
    ----------
    hierarchy:
        Tree with constraints already assigned
        (:func:`repro.core.hierarchy.assign_constraints`).
    batch_size:
        Scalar rows per observation vector at every node.
    options:
        Per-batch update options.
    """

    def __init__(
        self,
        hierarchy: Hierarchy,
        batch_size: int = 16,
        options: UpdateOptions = UpdateOptions(),
    ):
        self.hierarchy = hierarchy
        self.batch_size = int(batch_size)
        self.options = options
        self.n_constraint_rows = sum(n.n_constraint_rows for n in hierarchy.nodes)
        self._cycle_index = 0

    # ------------------------------------------------------------- solve
    def run_cycle(
        self,
        estimate: StructureEstimate,
        options: UpdateOptions | None = None,
        dirty: "frozenset[int] | set[int] | None" = None,
        cache: "NodeCacheProtocol | None" = None,
    ) -> HierCycleResult:
        """One post-order cycle over all constraints (or a dirty frontier).

        ``options`` overrides the solver's defaults for this cycle only
        (used by the annealing schedule).

        ``dirty`` restricts the post-order pass to the given node ids —
        the incremental re-solve of :mod:`repro.core.session`.  The set
        must be closed under the parent relation (a dirty node's
        ancestors are dirty too; see :meth:`Hierarchy.dirty_closure`);
        clean children of dirty nodes are read from ``cache`` verbatim
        instead of being recomputed.  ``cache`` (an object with
        ``load(nid)`` / ``store(nid, estimate)``) also receives every
        posterior this pass computes, which is how a session keeps its
        warm state current (and streams it to its store).

        The cycle never writes ``estimate``: leaves take their block
        through :meth:`StructureEstimate.extract_atoms`, which copies, and
        the output is a new estimate.  Callers may pass an estimate they
        keep (a session's warm start) without copying it, and arrays
        marked read-only work.
        """
        if estimate.n_atoms != self.hierarchy.n_atoms:
            raise HierarchyError(
                f"estimate covers {estimate.n_atoms} atoms, hierarchy expects "
                f"{self.hierarchy.n_atoms}"
            )
        if dirty is not None and cache is None and len(dirty) < len(self.hierarchy.nodes):
            raise HierarchyError("a dirty-restricted cycle needs a posterior cache")
        cycle = self._cycle_index
        opts = options if options is not None else self.options
        outer = current_recorder()
        rec = outer if outer is not None else Recorder()
        records: list[NodeSolveRecord] = []
        node_results: dict[int, StructureEstimate] = {}
        total_timer = Timer()
        with obs.span(
            "cycle",
            cat="solve",
            cycle=cycle,
            solver="hier",
            nodes=len(self.hierarchy.nodes),
            rows=self.n_constraint_rows,
        ), recording(rec):
            # The same scheduler figures the parallel solver publishes
            # (``repro obs top``): one lane, busy for each node's seconds.
            obs.set_gauge("sched.workers", 1.0)
            with total_timer:
                for node in self.hierarchy.post_order():
                    if dirty is not None and node.nid not in dirty:
                        continue
                    node_results[node.nid] = self._solve_node(
                        node, estimate, node_results, rec, records, opts, cache
                    )
                    if cache is not None:
                        cache.store(node.nid, node_results[node.nid])
        obs.inc("solve.cycles")
        obs.observe_latency("cycle.seconds", total_timer.elapsed)
        final = cycle_output(self.hierarchy, estimate, node_results, cache)
        self._cycle_index += 1
        return HierCycleResult(
            final, total_timer.elapsed, rec, records, self.n_constraint_rows
        )

    def _solve_node(
        self,
        node: HierarchyNode,
        global_estimate: StructureEstimate,
        node_results: dict[int, StructureEstimate],
        rec: Recorder,
        records: list[NodeSolveRecord],
        opts: UpdateOptions,
        cache: "NodeCacheProtocol | None" = None,
    ) -> StructureEstimate:
        """Run ``node`` through :func:`run_node` and record it.

        An injected crash fault kills the node before it starts, as a
        crashed worker loses its task; the node restarts, up to
        :data:`NODE_CRASH_ATTEMPTS` starts, before the crash propagates.
        Nothing has run yet, so a restarted node is indistinguishable
        from a first run.
        """
        injector = current_injector()
        for attempt in range(1, NODE_CRASH_ATTEMPTS + 1):
            try:
                if injector is not None:
                    injector.maybe_crash(f"node {node.nid}")
                break
            except WorkerCrashError:
                obs.instant("node.restart", cat="fault", nid=node.nid, attempt=attempt)
                obs.inc("solve.node_restarts")
                if attempt == NODE_CRASH_ATTEMPTS:
                    raise

        def prior() -> StructureEstimate:
            if node.is_leaf:
                return global_estimate.extract_atoms(node.atoms)
            # Children are mutually uncorrelated until this node's
            # boundary-spanning constraints connect them.  On a
            # dirty-restricted pass, clean children were skipped — their
            # converged posteriors come from the cache.
            parts = []
            for c in node.children:
                part = node_results.pop(c.nid, None)
                if part is None:
                    part = cache.load(c.nid)
                    obs.inc("session.cache_hits")
                parts.append(part)
            return StructureEstimate.block_diagonal(parts)

        # ``apply_batch`` is looked up in this module on every call, so a
        # wrapper installed at ``repro.core.hier_solver.apply_batch``
        # (perfbench's traced run) sees each batch.
        posterior, record = run_node(
            node_attrs(node, self.batch_size),
            prior,
            node.constraints,
            node.column_map(self.hierarchy.n_atoms),
            opts,
            rec,
            apply_batch,
        )
        obs.inc("sched.nodes_completed")
        obs.inc("sched.busy_seconds", record.seconds)
        records.append(record)
        return posterior

    def solve(
        self,
        estimate: StructureEstimate,
        max_cycles: int = 50,
        tol: float = 1e-6,
        gauge_invariant: bool = False,
        anneal: tuple[float, float] | None = None,
    ) -> ConvergenceReport:
        """Iterate cycles to convergence (see :mod:`repro.core.convergence`)."""
        return solve_to_convergence(
            self, estimate, max_cycles, tol, gauge_invariant, anneal
        )
