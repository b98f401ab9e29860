"""Kernel-event recording: operation categories, FLOPs and memory traffic.

The estimation core performs all heavy arithmetic through the kernels in
:mod:`repro.linalg`.  When a :class:`Recorder` is active (via the
:func:`recording` context manager), every kernel call appends a
:class:`KernelEvent` describing *what* was computed — category, FLOPs,
bytes touched, operand shapes, wall time, and an opaque ``tag`` that the
hierarchical solver uses to attribute events to tree nodes.

The event stream is the interface between the *algorithm* and the
*machine*: the discrete-event multiprocessor simulator replays a recorded
stream to predict execution time on configurable hardware (the paper's
DASH and Challenge), and the host-time experiments aggregate the same
stream's wall times per category.
"""

from __future__ import annotations

from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass, field
from enum import Enum
from typing import Iterator

from repro.obs.metrics import current_metrics
from repro.obs.tracer import current_tracer
from repro.util.timer import wall_clock


class OpCategory(str, Enum):
    """The six operation categories of the paper's time-breakdown tables."""

    DENSE_SPARSE = "d-s"  # dense-sparse matrix products (C Hᵗ, H C Hᵗ)
    CHOLESKY = "chol"     # Cholesky factorization of the innovation covariance
    SYSTEM = "sys"        # triangular system solves producing the gain
    MATMAT = "m-m"        # dense matrix-matrix products (covariance update)
    MATVEC = "m-v"        # dense matrix-vector products (state update)
    VECTOR = "vec"        # O(n) vector operations

    def __str__(self) -> str:  # pragma: no cover - trivial
        return self.value


#: Canonical column order used by reports, matching Tables 3-6.
CATEGORY_ORDER: tuple[OpCategory, ...] = (
    OpCategory.DENSE_SPARSE,
    OpCategory.CHOLESKY,
    OpCategory.SYSTEM,
    OpCategory.MATMAT,
    OpCategory.MATVEC,
    OpCategory.VECTOR,
)


@dataclass(frozen=True, slots=True)
class KernelEvent:
    """One executed kernel.

    Attributes
    ----------
    category:
        Operation category (see :class:`OpCategory`).
    flops:
        Floating-point operations performed, by the canonical count for the
        kernel (e.g. ``2·p·q·r`` for a ``(p×q)·(q×r)`` product).
    bytes:
        Approximate memory traffic: 8 bytes per float64 element of every
        operand read or written, assuming no cache reuse.  The machine
        simulator combines this with its cache model.
    shape:
        Operand dimensions, kernel specific (documented per kernel).
    seconds:
        Host wall-clock time of the kernel call.
    tag:
        Opaque attribution label; the hierarchical solver stores the tree
        node id here.
    parallel_rows:
        The extent of the kernel's natural row-parallel axis — how many
        independent row-strips the work splits into.  The simulator uses
        it to bound intra-kernel parallelism (a Cholesky of a 16×16 matrix
        cannot use 32 processors).
    """

    category: OpCategory
    flops: float
    bytes: float
    shape: tuple[int, ...]
    seconds: float
    tag: object = None
    parallel_rows: int = 1


@dataclass
class Recorder:
    """Collects :class:`KernelEvent` objects emitted by kernels.

    A recorder also carries the *current tag*; the solver pushes a tree node
    id before running a node's update so that all kernels executed for the
    node are attributed to it.
    """

    events: list[KernelEvent] = field(default_factory=list)
    tag: object = None

    def record(
        self,
        category: OpCategory,
        flops: float,
        nbytes: float,
        shape: tuple[int, ...],
        seconds: float,
        parallel_rows: int = 1,
    ) -> None:
        self.events.append(
            KernelEvent(
                category=category,
                flops=flops,
                bytes=nbytes,
                shape=shape,
                seconds=seconds,
                tag=self.tag,
                parallel_rows=parallel_rows,
            )
        )

    @contextmanager
    def tagged(self, tag: object) -> Iterator[None]:
        """Attribute all events recorded in the block to ``tag``."""
        prev, self.tag = self.tag, tag
        try:
            yield
        finally:
            self.tag = prev

    # ---------------------------------------------------------------- stats
    def total_flops(self) -> float:
        return sum(e.flops for e in self.events)

    def total_seconds(self) -> float:
        return sum(e.seconds for e in self.events)

    def seconds_by_category(self) -> dict[OpCategory, float]:
        out = {c: 0.0 for c in OpCategory}
        for e in self.events:
            out[e.category] += e.seconds
        return out

    def flops_by_category(self) -> dict[OpCategory, float]:
        out = {c: 0.0 for c in OpCategory}
        for e in self.events:
            out[e.category] += e.flops
        return out

    def events_by_tag(self) -> dict[object, list[KernelEvent]]:
        out: dict[object, list[KernelEvent]] = {}
        for e in self.events:
            out.setdefault(e.tag, []).append(e)
        return out


_ACTIVE: ContextVar[Recorder | None] = ContextVar("repro_linalg_recorder", default=None)


def current_recorder() -> Recorder | None:
    """Return the recorder active in this context, or ``None``."""
    return _ACTIVE.get()


@contextmanager
def recording(recorder: Recorder | None = None) -> Iterator[Recorder]:
    """Activate ``recorder`` (or a fresh one) for the dynamic extent of the block.

    Nested ``recording`` blocks shadow outer ones; events go only to the
    innermost recorder.  Recording costs one :class:`KernelEvent` append
    per kernel call, which is not negligible: :func:`emit` takes about
    1.4 µs longer with a recorder active than without (1.7 against
    0.3 µs, a 2-vCPU host), and a steady serial ``build_ribo30s`` cycle
    makes about 5,700 calls, so recording costs it about 8 ms.
    """
    rec = recorder if recorder is not None else Recorder()
    token = _ACTIVE.set(rec)
    try:
        yield rec
    finally:
        _ACTIVE.reset(token)


def emit(
    category: OpCategory,
    flops: float,
    nbytes: float,
    shape: tuple[int, ...],
    seconds: float,
    parallel_rows: int = 1,
    op: str = "",
) -> None:
    """Record an event on the active recorder, if any (kernel-side helper).

    ``op`` names the specific kernel ("gemm", "solve_lower", ...) for the
    observability layer; the recorder itself keys on ``category`` only.
    When a :mod:`repro.obs` tracer or metrics registry is active the call
    additionally becomes a ``kernel`` span / kernel counters — this is
    the one choke point through which every instrumented kernel flows.
    """
    rec = _ACTIVE.get()
    if rec is not None:
        # Recorder.record inlined: this runs about 11 times per batch.
        rec.events.append(
            KernelEvent(category, flops, nbytes, shape, seconds, rec.tag, parallel_rows)
        )
    tracer = current_tracer()
    if tracer is not None:
        end = tracer.clock.now()
        tracer.complete(
            op or category.value,
            "kernel",
            end - seconds,
            end,
            op_category=category.value,
            flops=flops,
            bytes=nbytes,
            shape=list(shape),
        )
    registry = current_metrics()
    if registry is not None:
        registry.record_kernel(category.value, flops, seconds)


def timed() -> float:
    """Timestamp helper shared by kernels (process-default clock seconds)."""
    return wall_clock().now()
