"""Shared-memory estimate plane for cross-process node dispatch.

The process backend used to pickle every node prior (an n-vector plus an
n×n covariance) into the task and the full posterior back out — O(n²)
bytes per node per direction, every wavefront.  The estimate plane moves
those arrays through ``multiprocessing.shared_memory`` instead: each
node's task ships an :class:`EstimateHandle` (a name and a dimension —
O(bytes), not O(n²)) to the segment the worker writes its posterior
into, and a parent's task ships its children's handles, from which the
worker builds the parent's block-diagonal prior itself
(:func:`posterior_views`).  The dispatching process writes only leaf
priors and reads only the root's posterior.

Segment layout (all float64)::

    [ prior mean (n) | prior cov (n×n) | posterior mean (n) | posterior cov (n×n) ]

Only a leaf's prior slot is ever written; an inner node's stays
untouched, and untouched pages of a segment cost no memory.

Lifetime rules
--------------
* Segments are created **and** unlinked only by the owning
  :class:`SharedEstimatePlane` in the dispatching process.  Workers
  attach and detach; they never unlink.  This is what lets the plane
  survive the executor's pool-rebuild crash recovery: a rebuilt pool's
  fresh workers attach to the same named segments.
* A node's segment is written by its own task (the posterior slot,
  fully overwritten on every attempt) and, for a leaf, by the
  dispatcher before submission (the prior slot, never written again).
  Nothing else writes it until its parent has completed, so a
  resubmitted task re-reads an intact prior and intact child
  posteriors.
* A node keeps one segment for the plane's lifetime when it is pinned
  (:meth:`SharedEstimatePlane.promote`): a session's next pass claims
  the same segment back (:meth:`SharedEstimatePlane.claim`) and
  rewrites it in place, so after the first cycle no segment is created
  or unlinked.  A claimed segment is unpinned while its task is in
  flight and pinned again on completion; a pass that raises therefore
  never leaves a pin naming a partly written posterior, and
  :meth:`SharedEstimatePlane.close_transient` releases the segments of
  its unfinished nodes.
* Without pins (a solver's private per-cycle plane) segments are
  transient: a child's is released when its parent completes, the
  root's at cycle end.
* Resource-tracker registrations (which attach performs too on this
  Python) are left to coalesce in the fork-shared tracker's set cache
  and are cleared exactly once by the owner's ``unlink`` — see
  :func:`_attach` for why no manual untracking happens.  If the owner
  dies without unlinking, the tracker does it once the pool's workers
  have exited too.
* :meth:`SharedEstimatePlane.release` and :meth:`close` are idempotent,
  so crash-recovery paths may release defensively; ``close`` (or
  ``close_transient`` on a borrowed plane) runs in the scheduler's
  ``finally`` so no cycle outcome leaks segments.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass
from multiprocessing import shared_memory
from typing import Iterator, Sequence

import numpy as np

from repro import obs
from repro.core.state import StructureEstimate

__all__ = [
    "EstimateHandle",
    "SharedEstimatePlane",
    "posterior_views",
    "read_prior",
    "write_posterior",
]


@dataclass(frozen=True)
class EstimateHandle:
    """Picklable reference to one node's estimate segment.

    ``name`` is the OS-level shared-memory name; ``n_state`` the state
    dimension (enough to reconstruct the full layout).  Pickling a handle
    costs O(len(name)) bytes regardless of the state dimension.
    """

    name: str
    n_state: int


def _segment_size(n: int) -> int:
    return 8 * (2 * n + 2 * n * n)


def _mean_view(buf: memoryview, n: int, slot: int) -> np.ndarray:
    """Mean view for slot 0 (prior) or 1 (posterior)."""
    offset = 0 if slot == 0 else 8 * (n + n * n)
    return np.frombuffer(buf, dtype=np.float64, count=n, offset=offset)


def _cov_view(buf: memoryview, n: int, slot: int) -> np.ndarray:
    """Covariance view for slot 0 (prior) or 1 (posterior)."""
    offset = 8 * n if slot == 0 else 8 * (2 * n + n * n)
    return np.frombuffer(buf, dtype=np.float64, count=n * n, offset=offset).reshape(
        n, n
    )


def _attach(handle: EstimateHandle) -> shared_memory.SharedMemory:
    """Worker-side attach; segment ownership stays with the parent.

    On this Python, attaching registers the name with the resource
    tracker just like creating does.  The pool's forked workers share
    the parent's tracker, whose cache is a *set*: the duplicate
    registrations coalesce, and the single ``unregister`` issued by the
    owning plane's ``unlink`` clears the name exactly once (tracker-pipe
    writes are ordered, and every worker registration precedes the
    parent's unlink because the parent only unlinks a segment after
    every task that reads or writes it has returned).  Unbalanced manual
    unregisters would instead race another attach and spill ``KeyError``
    noise from the tracker — so no untracking happens here.  A segment
    that survives a hard crash of the dispatching process is unlinked by
    the tracker when it shuts down, which is once every process holding
    its pipe has exited: the dispatcher and its pool workers, which end
    themselves when their parent dies
    (:func:`repro.parallel.executors._exit_with_parent`).
    """
    return shared_memory.SharedMemory(name=handle.name)


def read_prior(handle: EstimateHandle) -> StructureEstimate:
    """Copy a leaf's prior out of ``handle``'s segment (worker side)."""
    shm = _attach(handle)
    try:
        n = handle.n_state
        mean = _mean_view(shm.buf, n, 0).copy()
        cov = _cov_view(shm.buf, n, 0).copy()
    finally:
        # Every array above is a fresh copy; nothing references the
        # mapping, so the close is legal even on the error path.
        shm.close()
    return StructureEstimate(mean, cov)


@contextmanager
def posterior_views(
    sources: Sequence[EstimateHandle | StructureEstimate],
) -> Iterator[list[StructureEstimate]]:
    """The posteriors in ``sources`` as estimates, for reading only (worker side).

    A handle becomes an estimate over views of its segment's posterior
    slot, valid inside the ``with`` block; an in-process estimate passes
    through.  The yielded list is emptied on exit, which drops the views
    so the mappings can close.
    """
    segments: list[shared_memory.SharedMemory] = []
    parts: list[StructureEstimate] = []
    try:
        for src in sources:
            if isinstance(src, EstimateHandle):
                segments.append(_attach(src))
                parts.append(_posterior_in(segments[-1], src.n_state))
            else:
                parts.append(src)
        yield parts
    finally:
        parts.clear()
        for shm in segments:
            try:
                shm.close()
            except BufferError:  # an error's traceback still holds a view
                pass


def _posterior_in(shm: shared_memory.SharedMemory, n: int) -> StructureEstimate:
    return StructureEstimate(_mean_view(shm.buf, n, 1), _cov_view(shm.buf, n, 1))


def write_posterior(handle: EstimateHandle, estimate: StructureEstimate) -> None:
    """Write ``estimate`` into ``handle``'s posterior slot (worker side).

    The slot is fully overwritten, so a resubmitted task (crash recovery)
    simply replaces whatever a lost attempt may have left behind.
    """
    n = handle.n_state
    if estimate.mean.shape != (n,):
        raise ValueError(
            f"posterior has state dim {estimate.mean.shape[0]}, segment holds {n}"
        )
    shm = _attach(handle)
    mean = cov = None
    try:
        mean = _mean_view(shm.buf, n, 1)
        cov = _cov_view(shm.buf, n, 1)
        mean[:] = estimate.mean
        cov[:, :] = estimate.covariance
    finally:
        del mean, cov  # the mapping cannot close while views are exported
        shm.close()


class SharedEstimatePlane:
    """Owner of the per-node estimate segments in the dispatching process.

    Each pass claims one segment per dispatched node (:meth:`claim`).  A
    session keeps completed nodes' segments *pinned* across re-solves
    (see :mod:`repro.core.session`): :meth:`promote` records a segment
    as node ``nid``'s cached posterior with the plane's current
    *generation* tag.  A later pass hands a clean child's pinned segment
    to its parent's worker by handle (:meth:`pinned_handle`), and claims
    a dirty node's own segment back and rewrites it in place.  The
    session sets the generation once per pass, so a pin's tag records
    which pass last wrote it — the session's tests use this to prove
    clean subtrees were physically reused.
    """

    def __init__(self) -> None:
        self._segments: dict[str, shared_memory.SharedMemory] = {}
        self._dims: dict[str, int] = {}
        self._pinned: dict[int, str] = {}  # nid -> segment name
        self._pin_generation: dict[int, int] = {}
        self.generation = 0

    def __len__(self) -> int:
        return len(self._segments)

    def nbytes(self) -> int:
        """Total bytes currently held in live segments."""
        return sum(s.size for s in self._segments.values())

    def _create(self, n: int) -> EstimateHandle:
        shm = shared_memory.SharedMemory(create=True, size=_segment_size(n))
        self._segments[shm.name] = shm
        self._dims[shm.name] = n
        obs.inc("shm.segments_created")
        obs.inc("shm.bytes_allocated", shm.size)
        return EstimateHandle(name=shm.name, n_state=n)

    # ------------------------------------------------------------- a pass
    def claim(self, nid: int, n_state: int) -> EstimateHandle:
        """The segment node ``nid``'s task writes its posterior to this pass.

        A pinned node gets its own segment back, unpinned until
        :meth:`promote` pins it again, so a session's pass creates no
        segment and a pass that raises leaves no pin on a partly written
        posterior.  Any other node gets a fresh segment.
        """
        name = self._pinned.pop(nid, None)
        self._pin_generation.pop(nid, None)
        if name is None:
            return self._create(n_state)
        return EstimateHandle(name=name, n_state=self._dims[name])

    def put_prior(self, estimate: StructureEstimate, handle: EstimateHandle) -> None:
        """Write ``estimate`` as the prior of ``handle``'s segment (a leaf's)."""
        shm = self._segments[handle.name]
        n = handle.n_state
        _mean_view(shm.buf, n, 0)[:] = estimate.mean
        _cov_view(shm.buf, n, 0)[:, :] = estimate.covariance

    def read_posterior(self, handle: EstimateHandle) -> StructureEstimate:
        """Copy the posterior out of ``handle``'s segment (parent side)."""
        shm = self._segments[handle.name]
        n = self._dims[handle.name]
        return StructureEstimate(
            _mean_view(shm.buf, n, 1).copy(), _cov_view(shm.buf, n, 1).copy()
        )

    # ------------------------------------------------------------- pinning
    def promote(self, handle: EstimateHandle, nid: int) -> None:
        """Pin ``handle``'s segment as node ``nid``'s posterior segment.

        The segment stays alive across re-solves (it is exempt from
        :meth:`release`) until the node is claimed again or the plane is
        closed.  Pinning a node's own claimed segment is bookkeeping
        only; a different segment pinned for ``nid`` is destroyed.
        """
        if handle.name not in self._segments:
            raise KeyError(f"segment {handle.name} is not owned by this plane")
        previous = self._pinned.get(nid)
        self._pinned[nid] = handle.name
        self._pin_generation[nid] = self.generation
        if previous is not None and previous != handle.name:
            self._destroy(previous)
        obs.inc("shm.segments_pinned")

    def pin_posterior(self, nid: int, estimate: StructureEstimate) -> None:
        """Pin a posterior for ``nid`` by copying it into a fresh segment.

        Used for a posterior held only host-side (a session reloaded from
        its store) that a worker must read by handle.
        """
        n = estimate.mean.shape[0]
        handle = self._create(n)
        shm = self._segments[handle.name]
        _mean_view(shm.buf, n, 1)[:] = estimate.mean
        _cov_view(shm.buf, n, 1)[:, :] = estimate.covariance
        self.promote(handle, nid)

    def has_pinned(self, nid: int) -> bool:
        return nid in self._pinned

    def pinned_handle(self, nid: int) -> EstimateHandle:
        """Handle to node ``nid``'s pinned segment, for a parent's worker to read."""
        name = self._pinned[nid]
        obs.inc("shm.segments_reused")
        return EstimateHandle(name=name, n_state=self._dims[name])

    def pinned_posterior(self, nid: int) -> StructureEstimate:
        """Copy node ``nid``'s posterior out of its pinned segment."""
        name = self._pinned.get(nid)
        if name is None:
            raise KeyError(f"no pinned segment for node {nid}")
        return self.read_posterior(EstimateHandle(name=name, n_state=self._dims[name]))

    def pinned_generation(self, nid: int) -> int:
        """Generation tag of node ``nid``'s pinned segment."""
        return self._pin_generation[nid]

    def pinned_name(self, nid: int) -> str:
        """OS-level segment name pinned for ``nid`` (for lifetime checks)."""
        return self._pinned[nid]

    # ------------------------------------------------------------- release
    def release(self, handle: EstimateHandle) -> None:
        """Destroy ``handle``'s segment; safe to call more than once.

        Pinned segments are exempt: a session's children stay pinned
        when their parent completes.
        """
        if handle.name in self._pinned.values():
            return
        self._destroy(handle.name)

    def _destroy(self, name: str) -> None:
        shm = self._segments.pop(name, None)
        self._dims.pop(name, None)
        if shm is None:
            return
        shm.close()
        try:
            shm.unlink()
        except FileNotFoundError:  # pragma: no cover - already gone
            pass
        obs.inc("shm.segments_released")

    def close(self) -> None:
        """Release every live segment, pinned included (idempotent)."""
        self._pinned.clear()
        self._pin_generation.clear()
        for name in list(self._segments):
            self._destroy(name)

    def close_transient(self) -> None:
        """Release every segment that is not pinned (end of one pass)."""
        pinned = set(self._pinned.values())
        for name in list(self._segments):
            if name not in pinned:
                self._destroy(name)

    def __enter__(self) -> "SharedEstimatePlane":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
