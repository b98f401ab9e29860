"""Incremental dirty-path re-solve: a warm-start session over the hierarchy.

A converged hierarchical solve leaves behind far more than its final
estimate: every tree node holds a converged posterior whose value depends
only on (a) the cycle-input estimate restricted to its subtree's atoms
and (b) the constraint sets assigned inside that subtree.  Editing a few
constraints therefore invalidates only the posteriors on the *dirty
path* — the LCA node owning each edited constraint plus its root-ward
ancestors (:meth:`~repro.core.hierarchy.Hierarchy.dirty_closure`); every
other subtree's computation would come out bit-identical if redone.

:class:`SolveSession` exploits that. After a cold bootstrap
(:meth:`SolveSession.solve`, the usual convergence loop) it retains the
final cycle's per-node posteriors and that cycle's input estimate (the
*warm start*: the converged mean under the original prior covariance —
the fixed point of the paper's reset-covariance iteration).  Constraint
deltas (:meth:`add_constraints` / :meth:`remove_constraints` /
:meth:`update_constraints`) are routed to their owner nodes and mark
only the dirty path; :meth:`resolve` then re-runs a *single* cycle
restricted to the dirty frontier, reading clean children's posteriors
from the cache.  The result is bit-identical to a full pass over the
edited problem from the same warm start (``resolve(scope="full")``), at
the cost of the dirty path only.

Caching planes
--------------
* Serial/thread backends keep posteriors as host arrays.
* The process backend borrows the scheduler's shared-memory plane: a
  completed node's segment is *promoted* (pinned under its nid with a
  generation tag) instead of released, and the node's next pass
  rewrites that same segment, so after the first cycle no pass creates
  a segment.  Clean subtrees' posterior bytes stay resident in shared
  memory across re-solves and reach a dirty parent's worker by handle
  — never re-pickled, never re-uploaded (see
  :class:`repro.parallel.shm.SharedEstimatePlane`).

Persistence
-----------
With a :class:`~repro.faults.SessionStore`, the session snapshots its
manifest before each re-solve and streams recomputed node posteriors
during it, so a killed warm re-solve resumed via :meth:`SolveSession.load`
redoes only the dirty nodes that had not yet completed — and can never
replay a stale posterior for a node whose constraints changed, because
such a node's generation tag still predates the staged re-solve.
"""

from __future__ import annotations

import itertools
from bisect import insort
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Iterable, Mapping, Protocol, Sequence

import numpy as np

from repro import obs
from repro.constraints.base import Constraint
from repro.core.hier_solver import HierarchicalSolver, NodeSolveRecord
from repro.core.hierarchy import Hierarchy, HierarchyNode
from repro.core.state import StructureEstimate
from repro.core.update import UpdateOptions
from repro.errors import HierarchyError, SessionError
from repro.util.timer import Timer

if TYPE_CHECKING:
    from repro.faults.checkpoint import SessionStore
    from repro.parallel.executors import Executor

__all__ = [
    "NodeCacheProtocol",
    "SessionResolveResult",
    "SolveSession",
]


class NodeCacheProtocol(Protocol):
    """What the solvers require of a posterior cache on restricted passes."""

    def load(self, nid: int) -> StructureEstimate: ...

    def store(self, nid: int, estimate: StructureEstimate) -> None: ...


@dataclass(frozen=True)
class SessionResolveResult:
    """Outcome of one incremental re-solve.

    ``dirty_nids`` is the frontier that was recomputed; ``cache_hits``
    counts the clean-child posteriors consumed from the cache (each one
    a subtree whose entire recomputation was skipped); ``generation`` is
    the session generation this pass committed.
    """

    estimate: StructureEstimate
    seconds: float
    generation: int
    scope: str
    dirty_nids: tuple[int, ...]
    cache_hits: int
    records: list[NodeSolveRecord]

    @property
    def n_dirty(self) -> int:
        return len(self.dirty_nids)


class _SessionCache:
    """load/store facade handed to the solvers.

    Resolution order on ``load``: pinned shared-memory segment (process
    backend), then host arrays, then the on-disk session store (a session
    resumed via :meth:`SolveSession.load` faults posteriors in lazily).
    The scheduler recognizes the ``plane`` attribute to promote completed
    segments in place of a host-side store (see
    :meth:`ParallelHierarchicalSolver._ingest`); a promoted posterior is
    copied out of its segment only when a store streams it.
    """

    def __init__(self, session: "SolveSession", plane=None):
        self._session = session
        self.plane = plane
        self._host: dict[int, StructureEstimate] = {}

    def load(self, nid: int) -> StructureEstimate:
        if self.plane is not None and self.plane.has_pinned(nid):
            return self.plane.pinned_posterior(nid)
        est = self._host.get(nid)
        if est is None and self._session.store is not None:
            est = self._session.store.load_node(nid)
            self._host[nid] = est
        if est is None:
            raise SessionError(f"no cached posterior for node {nid}")
        return est

    def store(self, nid: int, estimate: StructureEstimate) -> None:
        self._host[nid] = estimate
        self._session._note_cached(nid)

    def note_promoted(self, nid: int) -> None:
        """A solver pinned this node's segment; the plane copy rules."""
        self._host.pop(nid, None)
        self._session._note_cached(nid)


class SolveSession:
    """Warm-start solve state retained across constraint edits.

    With ``UpdateOptions(kernel_impl="vector")`` the session also keeps
    the compiled assembly plans warm for free: plans are cached in the
    workspace arena keyed by constraint *identity*
    (:meth:`repro.linalg.workspace.Workspace.plan_for`), and
    :meth:`_rebuild_node` keeps unedited constraint objects while edits
    replace exactly the edited ones — so a warm :meth:`resolve` reuses
    every clean batch's plan and rebuilds only plans whose batch
    contained an edited constraint (or whose node's batch packing
    shifted around an insertion/removal).

    Parameters
    ----------
    hierarchy:
        The structure tree.  The session takes ownership of constraint
        assignment: any existing assignment is cleared.
    constraints:
        Initial constraint set (more can be added later).  Each
        constraint gets a stable integer id (returned by
        :meth:`add_constraints`) used to address it in later deltas.
    executor:
        ``None`` runs the serial post-order solver; otherwise the
        executor backs a :class:`~repro.parallel.scheduler.ParallelHierarchicalSolver`
        (``shared_memory`` as there).  With a pickling backend the
        session owns a shared-memory plane and keeps node posteriors
        pinned on it across re-solves.
    store:
        Optional :class:`~repro.faults.SessionStore` (or directory path)
        for crash-resumable persistence.  A fresh session *clears* any
        prior contents of the directory; use :meth:`SolveSession.load`
        to resume one instead.
    session_id / labels:
        Metric identity.  ``session_id`` defaults to a process-unique
        ``s<N>``; the session publishes labeled per-session series
        (``session.solves{session=...}`` etc.) combining the id, the
        backend and the kernel implementation with any extra ``labels``
        (e.g. ``{"tenant": ...}``) — the per-tenant accounting hook the
        solve-as-a-service layer builds on.
    """

    #: Process-wide allocator behind the default ``s<N>`` session ids.
    _session_ids = itertools.count()

    def __init__(
        self,
        hierarchy: Hierarchy,
        constraints: Sequence[Constraint] = (),
        *,
        batch_size: int = 16,
        options: UpdateOptions = UpdateOptions(),
        executor: "Executor | None" = None,
        shared_memory: bool | None = None,
        store: "SessionStore | str | Path | None" = None,
        session_id: str | None = None,
        labels: "dict | None" = None,
        _clear_store: bool = True,
    ):
        self.hierarchy = hierarchy
        self.batch_size = int(batch_size)
        self.options = options
        self.store = self._coerce_store(store)
        # Per-session metric identity: every series the session (and the
        # workers it dispatches) publishes carries these labels, which is
        # what gives a multi-session process per-tenant accounting.
        if session_id is None:
            session_id = f"s{next(SolveSession._session_ids)}"
        self.session_id = session_id
        self.labels = {
            "session": session_id,
            "backend": type(executor).__name__ if executor is not None else "serial",
            "kernel_impl": options.kernel_impl,
        }
        if labels:
            self.labels.update(labels)
        if self.store is not None and _clear_store:
            self.store.clear()
        self._constraints: dict[int, Constraint] = {}
        self._owner: dict[int, int] = {}
        self._node_cids: dict[int, list[int]] = {}
        self._next_cid = 0
        self._dirty: set[int] = set()
        self._node_generation: dict[int, int] = {}
        self._cycle_input: StructureEstimate | None = None
        self._last_estimate: StructureEstimate | None = None
        self._streaming = False
        self._staged_snapshot: list[int] | None = None
        self.generation = 0
        self._leaf_of = hierarchy.atom_leaf_map()
        hierarchy.clear_constraints()
        self._plane = None
        if executor is None:
            self.solver = HierarchicalSolver(hierarchy, batch_size, options)
        else:
            # Deferred: repro.parallel imports repro.core submodules; the
            # lazy import keeps repro.core importable on its own.
            from repro.parallel.scheduler import ParallelHierarchicalSolver
            from repro.parallel.shm import SharedEstimatePlane

            use_shm = (
                shared_memory
                if shared_memory is not None
                else executor.needs_pickling
            )
            if use_shm:
                self._plane = SharedEstimatePlane()
            self.solver = ParallelHierarchicalSolver(
                hierarchy,
                batch_size,
                options,
                executor=executor,
                shared_memory=shared_memory,
                plane=self._plane,
                labels=self.labels,
            )
        self.cache = _SessionCache(self, plane=self._plane)
        # The solver's (reporting-only) row count starts at 0 here and is
        # kept current by every method that changes the constraint set.
        if constraints:
            self.add_constraints(constraints)

    @staticmethod
    def _coerce_store(store) -> "SessionStore | None":
        if store is None:
            return None
        if isinstance(store, (str, Path)):
            from repro.faults.checkpoint import SessionStore

            return SessionStore(store)
        return store

    # ------------------------------------------------------------- deltas
    @property
    def constraints(self) -> dict[int, Constraint]:
        """Live constraint set, keyed by constraint id (global order)."""
        return dict(self._constraints)

    @property
    def dirty_nids(self) -> frozenset[int]:
        """Dirty path staged for the next :meth:`resolve`."""
        return frozenset(self._dirty)

    @property
    def estimate(self) -> StructureEstimate | None:
        """Latest solved estimate (``None`` before the bootstrap)."""
        return self._last_estimate

    def owner_of(self, cid: int) -> int:
        """Owner node id of constraint ``cid``."""
        return self._owner[cid]

    def _lca_owner(self, c: Constraint) -> int:
        node: HierarchyNode | None = None
        for a in c.atoms:
            lid = self._leaf_of[a] if 0 <= a < len(self._leaf_of) else -1
            if lid < 0:
                raise HierarchyError(
                    f"constraint atom {a} not covered by hierarchy"
                )
            leaf = self.hierarchy.nodes[lid]
            node = (
                leaf
                if node is None
                else self.hierarchy.lowest_common_ancestor(node, leaf)
            )
        assert node is not None
        return node.nid

    def _rebuild_node(self, nid: int) -> None:
        # Node lists are kept as the cid-ascending subsequence of the
        # global insertion order — exactly what a cold
        # assign_constraints() over the full set would produce, so a warm
        # pass applies batches in the cold pass's order (bit-identity).
        node = self.hierarchy.nodes[nid]
        node.constraints[:] = [
            self._constraints[c] for c in self._node_cids.get(nid, [])
        ]

    def _mark_dirty(self, seed_nids: Iterable[int]) -> None:
        self._dirty |= self.hierarchy.dirty_closure(seed_nids)

    def add_constraints(self, constraints: Sequence[Constraint]) -> list[int]:
        """Append constraints; returns their ids.  Marks the dirty paths."""
        cids: list[int] = []
        seeds: list[int] = []
        for c in constraints:
            cid = self._next_cid
            self._next_cid += 1
            owner = self._lca_owner(c)
            self._constraints[cid] = c
            self._owner[cid] = owner
            self._node_cids.setdefault(owner, []).append(cid)
            self.hierarchy.nodes[owner].constraints.append(c)
            self.solver.n_constraint_rows += c.dimension
            cids.append(cid)
            seeds.append(owner)
        self._mark_dirty(seeds)
        obs.inc("session.deltas", len(cids))
        return cids

    def remove_constraints(self, cids: Iterable[int]) -> None:
        """Drop constraints by id.  Marks the dirty paths."""
        seeds: list[int] = []
        for cid in cids:
            if cid not in self._constraints:
                raise SessionError(f"unknown constraint id {cid}")
            owner = self._owner.pop(cid)
            self.solver.n_constraint_rows -= self._constraints.pop(cid).dimension
            self._node_cids[owner].remove(cid)
            self._rebuild_node(owner)
            seeds.append(owner)
        self._mark_dirty(seeds)
        obs.inc("session.deltas", len(seeds))

    def update_constraints(self, changes: Mapping[int, Constraint]) -> None:
        """Replace constraints in place by id.  Marks the dirty paths.

        A replacement keeps its id and therefore its position in the
        global order; if its atoms move it to a different owner node,
        both the old and the new owner's paths go dirty.
        """
        seeds: list[int] = []
        for cid, c in changes.items():
            if cid not in self._constraints:
                raise SessionError(f"unknown constraint id {cid}")
            old_owner = self._owner[cid]
            new_owner = self._lca_owner(c)
            self.solver.n_constraint_rows += (
                c.dimension - self._constraints[cid].dimension
            )
            self._constraints[cid] = c
            if new_owner == old_owner:
                self._rebuild_node(old_owner)
                seeds.append(old_owner)
            else:
                self._node_cids[old_owner].remove(cid)
                insort(self._node_cids.setdefault(new_owner, []), cid)
                self._owner[cid] = new_owner
                self._rebuild_node(old_owner)
                self._rebuild_node(new_owner)
                seeds.extend((old_owner, new_owner))
        self._mark_dirty(seeds)
        obs.inc("session.deltas", len(changes))

    # -------------------------------------------------------------- solving
    def _bump_generation(self) -> int:
        self.generation += 1
        if self._plane is not None:
            self._plane.generation = self.generation
        return self.generation

    def solve(
        self,
        initial: StructureEstimate,
        max_cycles: int = 50,
        tol: float = 1e-6,
        gauge_invariant: bool = False,
    ):
        """Cold bootstrap: iterate full cycles to convergence.

        Runs the paper's reset-covariance iteration at noise scale 1 (no
        annealing — cached posteriors must come from a constant-scale
        pass for warm re-solves to be exact).  On return the session
        holds the final cycle's per-node posteriors plus that cycle's
        input estimate, and every subsequent delta re-solves warm.

        Returns a :class:`~repro.core.convergence.ConvergenceReport`.
        """
        from repro.core.convergence import ConvergenceReport

        if initial.n_atoms != self.hierarchy.n_atoms:
            raise HierarchyError(
                f"estimate covers {initial.n_atoms} atoms, hierarchy expects "
                f"{self.hierarchy.n_atoms}"
            )
        # The session's one copy of the caller's covariance, so it never
        # aliases an array the caller owns.
        prior_cov = initial.covariance.copy()
        current = initial
        deltas: list[float] = []
        converged = False
        cycle_input: StructureEstimate | None = None
        with obs.span(
            "session.solve",
            cat="session",
            nodes=len(self.hierarchy.nodes),
            constraints=len(self._constraints),
        ):
            for _cycle in range(1, max_cycles + 1):
                # The solver never writes its input, so every cycle shares
                # the session's one copy of the prior covariance.
                start = StructureEstimate(current.mean.copy(), prior_cov)
                self._bump_generation()
                result = self.solver.run_cycle(start, dirty=None, cache=self.cache)
                nxt = result.estimate
                if gauge_invariant:
                    from repro.molecules.superpose import superposed_rmsd

                    delta = superposed_rmsd(nxt.coords, current.coords)
                else:
                    diff = nxt.mean - current.mean
                    delta = float(np.sqrt(diff @ diff / max(1, nxt.n_atoms)))
                deltas.append(delta)
                cycle_input = start
                current = nxt
                if delta <= tol:
                    converged = True
                    break
        self._cycle_input = cycle_input
        self._last_estimate = current
        self._dirty.clear()
        obs.inc("session.solves")
        obs.inc("session.solves", labels=self.labels)
        if self.store is not None:
            self._persist_all()
        return ConvergenceReport(current, len(deltas), deltas, converged=converged)

    def resolve(self, scope: str = "dirty") -> SessionResolveResult:
        """Re-solve the staged dirty path from the warm start.

        ``scope="dirty"`` (default) recomputes only the dirty frontier;
        ``scope="full"`` re-runs every node from the same warm start —
        the cache-free reference a dirty-path result is bit-identical to.
        Either way the session's cache is updated and the dirty set
        cleared, so consecutive deltas compose.
        """
        if self._cycle_input is None:
            raise SessionError(
                "session has no warm state; run solve() before resolve()"
            )
        if scope not in ("dirty", "full"):
            raise SessionError(f"scope must be 'dirty' or 'full', got {scope!r}")
        if scope == "full":
            dirty = frozenset(n.nid for n in self.hierarchy.nodes)
        else:
            dirty = frozenset(self._dirty)
        gen = self._bump_generation()
        cache_hits = sum(
            1
            for nid in dirty
            for c in self.hierarchy.nodes[nid].children
            if c.nid not in dirty
        )
        timer = Timer()
        with obs.span(
            f"resolve[{gen}]",
            cat="session",
            generation=gen,
            scope=scope,
            dirty=len(dirty),
            clean=len(self.hierarchy.nodes) - len(dirty),
        ), timer:
            if self.store is not None:
                # Stage the re-solve before touching anything: a crash
                # from here on resumes against this manifest, redoing
                # only dirty nodes not yet carrying generation ``gen``.
                self._persist_manifest(staged=sorted(dirty))
                self._streaming = True
            try:
                # Passed uncopied: the solver never writes its input.
                result = self.solver.run_cycle(
                    self._cycle_input, dirty=dirty, cache=self.cache
                )
            finally:
                self._streaming = False
        self._dirty.clear()
        self._last_estimate = result.estimate
        if self.store is not None:
            self._persist_manifest(staged=None)
        obs.inc("session.resolves")
        obs.inc("session.resolves", labels=self.labels)
        obs.inc("session.dirty_nodes", len(dirty))
        obs.inc("session.clean_nodes", len(self.hierarchy.nodes) - len(dirty))
        obs.observe_latency("resolve.seconds", timer.elapsed)
        return SessionResolveResult(
            estimate=result.estimate,
            seconds=timer.elapsed,
            generation=gen,
            scope=scope,
            dirty_nids=tuple(sorted(dirty)),
            cache_hits=cache_hits,
            records=result.records,
        )

    # --------------------------------------------------------- persistence
    def _note_cached(self, nid: int) -> None:
        """Bookkeeping for every posterior a pass commits to the cache."""
        self._node_generation[nid] = self.generation
        if self.store is not None and self._streaming:
            self.store.save_node(nid, self.cache.load(nid))
            self._persist_manifest(staged=self._staged_snapshot)

    def _manifest_dict(self, staged) -> dict:
        from repro.io import _encode_hierarchy, encode_constraint

        return {
            "n_atoms": self.hierarchy.n_atoms,
            "batch_size": self.batch_size,
            "kernel_impl": self.options.kernel_impl,
            "hierarchy": _encode_hierarchy(self.hierarchy.root),
            "constraints": [
                [cid, self._owner[cid], encode_constraint(c)]
                for cid, c in self._constraints.items()
            ],
            "next_cid": self._next_cid,
            "generation": self.generation,
            "node_generations": {
                str(nid): gen for nid, gen in self._node_generation.items()
            },
            "staged": staged,
        }

    def _persist_manifest(self, staged: list[int] | None) -> None:
        assert self.store is not None
        if staged is not None:
            staged_payload = {"dirty": list(staged), "generation": self.generation}
            self._staged_snapshot = staged  # re-used by streaming saves
        else:
            staged_payload = None
        self.store.save_manifest(self._manifest_dict(staged_payload))

    def _persist_all(self) -> None:
        """Full snapshot (end of a bootstrap solve)."""
        assert self.store is not None and self._cycle_input is not None
        self.store.save_cycle_input(self._cycle_input)
        for node in self.hierarchy.nodes:
            self.store.save_node(node.nid, self.cache.load(node.nid))
        self._persist_manifest(staged=None)

    @classmethod
    def load(
        cls,
        store: "SessionStore | str | Path",
        *,
        batch_size: int | None = None,
        options: UpdateOptions | None = None,
        executor: "Executor | None" = None,
        shared_memory: bool | None = None,
        session_id: str | None = None,
        labels: "dict | None" = None,
    ) -> "SolveSession":
        """Rebuild a session from a :class:`SessionStore` directory.

        ``batch_size``/``options`` default to the values recorded in the
        manifest — warm re-solves are only exact under the solver
        configuration that produced the cached posteriors.

        If the stored manifest has a *staged* re-solve (the previous
        process died mid-:meth:`resolve`), the loaded session's dirty
        set contains exactly the staged nodes whose recomputation had
        not finished — calling :meth:`resolve` completes the interrupted
        pass without redoing finished work and without ever replaying a
        pre-edit posterior for an edited node.
        """
        from repro.io import _decode_hierarchy, decode_constraint

        store = cls._coerce_store(store)
        assert store is not None
        manifest = store.load_manifest()
        if batch_size is None:
            batch_size = manifest.get("batch_size", 16)
        if options is None:
            options = UpdateOptions(kernel_impl=manifest.get("kernel_impl", "fast"))
        root = _decode_hierarchy(manifest["hierarchy"])
        hierarchy = Hierarchy(root, manifest["n_atoms"])
        session = cls(
            hierarchy,
            (),
            batch_size=batch_size,
            options=options,
            executor=executor,
            shared_memory=shared_memory,
            store=store,
            session_id=session_id,
            labels=labels,
            _clear_store=False,
        )
        for cid, owner, enc in manifest["constraints"]:
            c = decode_constraint(enc)
            session._constraints[cid] = c
            session._owner[cid] = owner
            session._node_cids.setdefault(owner, []).append(cid)
            hierarchy.nodes[owner].constraints.append(c)
            session.solver.n_constraint_rows += c.dimension
        session._next_cid = manifest["next_cid"]
        session._node_generation = {
            int(k): v for k, v in manifest["node_generations"].items()
        }
        session._cycle_input = store.load_cycle_input()
        session._last_estimate = None
        staged = manifest.get("staged")
        if staged is None:
            session.generation = manifest["generation"]
        else:
            gen = staged["generation"]
            # Re-enter the staged re-solve: resolve() will bump back to
            # ``gen``; nodes already carrying it are done, the rest are
            # the remaining dirty frontier (root-ward closed, because a
            # parent only completes after its dirty children).
            session.generation = gen - 1
            session._dirty = {
                nid
                for nid in staged["dirty"]
                if session._node_generation.get(nid) != gen
            }
            obs.inc("session.resumes")
        if session._plane is not None:
            session._plane.generation = session.generation
        return session

    # ----------------------------------------------------------- lifecycle
    def close(self) -> None:
        """Release the session's shared-memory plane (idempotent)."""
        if self._plane is not None:
            self._plane.close()

    def __enter__(self) -> "SolveSession":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
