"""The hierarchical solver: post-order tree computation (§3).

Every leaf is updated with its own constraints as an independent instance
of the flat problem; a parent's state is then the block-diagonal
concatenation of its children's posteriors (initially uncorrelated), to
which the parent applies the constraints that span its children.  The
root's posterior is the full-structure estimate.

Each node's kernel events are tagged with the node id, producing the
per-node work profile the machine simulator and the processor-assignment
heuristic consume.

Robustness (see ``docs/robustness.md``): the solver optionally writes a
per-node checkpoint after every completed post-order node, so a killed
cycle resumes from its last completed node; batches whose updates fail
terminally (after the escalating-regularization retries inside
:func:`repro.core.update.apply_batch`) are quarantined and reported
instead of aborting the solve; and injected node crashes are absorbed by
a bounded node-level restart, modeling a supervisor restarting a dead
subtree worker.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro import obs
from repro.constraints.batch import make_batches
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
    from repro.faults.checkpoint import CheckpointManager


@dataclass
class NodeSolveRecord:
    """Work performed at one tree node during a cycle.

    ``quarantined`` and ``retries`` carry a worker's records home; the
    parallel solver builds its cycle's ledger from them.
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
    """Outcome of one hierarchical cycle."""

    estimate: StructureEstimate
    seconds: float
    recorder: Recorder
    records: list[NodeSolveRecord]
    n_constraint_rows: int
    quarantined: tuple[QuarantineRecord, ...] = ()
    retries: tuple[RetryReport, ...] = ()
    nodes_resumed: int = 0
    replayed: bool = False

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
    checkpoint:
        Optional :class:`~repro.faults.CheckpointManager`.  When given,
        every completed node of the running cycle and the output of every
        completed cycle are persisted; re-running the solve against the
        same directory resumes from the last completed post-order node
        with bitwise-identical results.
    node_crash_attempts:
        How many times a node is (re)started when a crash fault surfaces
        inside it before the crash propagates (models supervisor
        restarts of dead subtree workers).
    """

    def __init__(
        self,
        hierarchy: Hierarchy,
        batch_size: int = 16,
        options: UpdateOptions = UpdateOptions(),
        checkpoint: "CheckpointManager | None" = None,
        node_crash_attempts: int = 3,
    ):
        self.hierarchy = hierarchy
        self.batch_size = int(batch_size)
        self.options = options
        self.checkpoint = checkpoint
        self.node_crash_attempts = max(1, int(node_crash_attempts))
        self.n_constraint_rows = sum(n.n_constraint_rows for n in hierarchy.nodes)
        self._cycle_index = 0
        if checkpoint is not None:
            from repro.io import assigned_constraints_token

            # Cached node/cycle estimates are only valid for the exact
            # constraint set that produced them; binding with the set's
            # fingerprint makes an edited re-run discard them instead of
            # replaying stale results (see CheckpointManager.bind).
            checkpoint.bind(
                hierarchy.n_atoms,
                constraints_token=assigned_constraints_token(hierarchy),
            )

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
        warm state current.  Restricted passes are the session's domain:
        they cannot be combined with the solver-level ``checkpoint``
        (sessions persist through their own :class:`SessionStore`).

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
        if dirty is not None and self.checkpoint is not None:
            raise HierarchyError(
                "dirty-restricted cycles are incompatible with the per-node "
                "checkpoint; use a SolveSession with a SessionStore instead"
            )
        if dirty is not None and cache is None and len(dirty) < len(self.hierarchy.nodes):
            raise HierarchyError("a dirty-restricted cycle needs a posterior cache")
        cycle = self._cycle_index
        ck = self.checkpoint
        if ck is not None:
            cached = ck.completed_cycle_estimate(cycle)
            if cached is not None:
                # This cycle already ran to completion in a previous
                # (interrupted) solve; replay its stored output verbatim.
                self._cycle_index += 1
                return HierCycleResult(
                    cached, 0.0, Recorder(), [], self.n_constraint_rows, replayed=True
                )
            ck.start_cycle(cycle)
        opts = options if options is not None else self.options
        outer = current_recorder()
        rec = outer if outer is not None else Recorder()
        records: list[NodeSolveRecord] = []
        node_results: dict[int, StructureEstimate] = {}
        quarantined: list[QuarantineRecord] = []
        retries: list[RetryReport] = []
        resumed = 0
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
                    if ck is not None and ck.has_node(node.nid):
                        # Discard the children consumed by the original run
                        # of this node, mirroring the memory behaviour.
                        for child in node.children:
                            node_results.pop(child.nid, None)
                        node_results[node.nid] = ck.load_node(node.nid)
                        resumed += 1
                        continue
                    node_results[node.nid] = self._solve_node(
                        node, estimate, node_results, rec, records, opts,
                        quarantined, retries, cache=cache,
                    )
                    if ck is not None:
                        ck.save_node(node.nid, node_results[node.nid])
                    if cache is not None:
                        cache.store(node.nid, node_results[node.nid])
        obs.inc("solve.cycles")
        obs.observe_latency("cycle.seconds", total_timer.elapsed)
        final = cycle_output(self.hierarchy, estimate, node_results, cache)
        if ck is not None:
            ck.finish_cycle(cycle, final)
        self._cycle_index += 1
        return HierCycleResult(
            final,
            total_timer.elapsed,
            rec,
            records,
            self.n_constraint_rows,
            quarantined=tuple(quarantined),
            retries=tuple(retries),
            nodes_resumed=resumed,
        )

    def _solve_node(
        self,
        node: HierarchyNode,
        global_estimate: StructureEstimate,
        node_results: dict[int, StructureEstimate],
        rec: Recorder,
        records: list[NodeSolveRecord],
        opts: UpdateOptions,
        quarantined: list[QuarantineRecord],
        retries: list[RetryReport],
        cache: "NodeCacheProtocol | None" = None,
    ) -> StructureEstimate:
        timer = Timer()
        with obs.span(
            f"node[{node.nid}]",
            cat="solve",
            nid=node.nid,
            node_name=node.name,
            depth=node.depth,
            state_dim=node.state_dim,
            rows=node.n_constraint_rows,
            leaf=node.is_leaf,
            batch_size=self.batch_size,
            parent_nid=-1 if node.parent is None else node.parent.nid,
        ) as sp, rec.tagged(node.nid):
            n_events_before = len(rec.events)
            with timer:
                if node.is_leaf:
                    prior = global_estimate.extract_atoms(node.atoms)
                else:
                    # Children are mutually uncorrelated until this node's
                    # boundary-spanning constraints connect them.  On a
                    # dirty-restricted pass, clean children were skipped —
                    # their converged posteriors come from the cache.
                    parts = []
                    for c in node.children:
                        part = node_results.pop(c.nid, None)
                        if part is None:
                            part = cache.load(c.nid)
                            obs.inc("session.cache_hits")
                        parts.append(part)
                    prior = StructureEstimate.block_diagonal(parts)
                local, n_batches = self._compute_node(
                    node, prior, opts, quarantined, retries
                )
            if sp is not None:
                sp.attrs["n_batches"] = n_batches
            events = rec.events[n_events_before:]
        obs.inc("sched.nodes_completed")
        obs.inc("sched.busy_seconds", timer.elapsed)
        records.append(
            NodeSolveRecord(
                nid=node.nid,
                name=node.name,
                depth=node.depth,
                state_dim=node.state_dim,
                n_constraint_rows=node.n_constraint_rows,
                n_batches=n_batches,
                seconds=timer.elapsed,
                events=list(events),
            )
        )
        return local

    def _compute_node(
        self,
        node: HierarchyNode,
        prior: StructureEstimate,
        opts: UpdateOptions,
        quarantined: list[QuarantineRecord],
        retries: list[RetryReport],
    ) -> tuple[StructureEstimate, int]:
        """Apply a node's batches to its prior, absorbing injected crashes.

        A crash fault aborts the node's partial work and restarts the
        whole node from ``prior`` (bounded attempts); partial updates are
        never committed, so a restarted node is indistinguishable from a
        first run.
        """
        injector = current_injector()
        crashes = 0
        while True:
            try:
                if injector is not None:
                    injector.maybe_sleep()
                    injector.maybe_crash(f"node {node.nid}")
                return self._apply_node_batches(node, prior, opts, quarantined, retries)
            except WorkerCrashError:
                crashes += 1
                obs.instant(
                    "node.restart", cat="fault", nid=node.nid, attempt=crashes
                )
                obs.inc("solve.node_restarts")
                if crashes >= self.node_crash_attempts:
                    raise

    def _apply_node_batches(
        self,
        node: HierarchyNode,
        prior: StructureEstimate,
        opts: UpdateOptions,
        quarantined: list[QuarantineRecord],
        retries: list[RetryReport],
    ) -> tuple[StructureEstimate, int]:
        if not node.constraints:
            return prior, 0
        batches = make_batches(node.constraints, self.batch_size)
        # Looked up in this module on every call, so a wrapper installed at
        # ``repro.core.hier_solver.apply_batch`` (perfbench's traced run)
        # sees each batch.  ``prior`` was built for this node alone
        # (extract_atoms or block_diagonal), so the first batch consumes
        # it.  A node restarts only under an active fault injector, which
        # disables every in-place downdate, so a restart reads it intact.
        local = apply_batches(
            prior,
            batches,
            node.column_map(self.hierarchy.n_atoms),
            opts,
            node.nid,
            quarantined,
            retries,
            apply=apply_batch,
            consume_estimate=True,
        )
        return local, len(batches)

    def solve(
        self,
        estimate: StructureEstimate,
        max_cycles: int = 50,
        tol: float = 1e-6,
        gauge_invariant: bool = False,
        anneal: tuple[float, float] | None = None,
    ) -> "ConvergenceReport":
        """Iterate cycles to convergence (delegates to :mod:`convergence`).

        ``anneal=(start, decay)`` inflates all measurement variances by
        ``max(1, start · decay^cycle)`` — see
        :func:`repro.core.convergence.annealing_schedule`.

        The returned report carries the robustness ledger of the whole
        solve: every quarantined batch and every retry report from every
        cycle.
        """
        from dataclasses import replace

        from repro.core.convergence import solve_with_annealing

        quarantine: list[QuarantineRecord] = []
        retries: list[RetryReport] = []

        def runner(est: StructureEstimate, scale: float) -> StructureEstimate:
            result = self.run_cycle(
                est, replace(self.options, noise_scale=self.options.noise_scale * scale)
            )
            quarantine.extend(result.quarantined)
            retries.extend(result.retries)
            return result.estimate

        report = solve_with_annealing(
            runner,
            estimate,
            max_cycles,
            tol,
            gauge_invariant=gauge_invariant,
            anneal=anneal,
        )
        report.quarantine = quarantine
        report.retries = retries
        return report
