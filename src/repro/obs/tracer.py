"""Span tracing for the hierarchical solve.

A :class:`Tracer` collects :class:`Span` records — named, attributed,
wall-clock-bracketed regions — and :class:`Instant` annotations (point
events such as an injected fault, a regularization retry, or a checkpoint
write).  Activation follows the same pattern as kernel recording and
fault injection: a contextvar-scoped active tracer
(:func:`tracing` / :func:`current_tracer`) that hook sites query.  With
no active tracer every hook is one contextvar read and the solve path is
bit-identical to an uninstrumented build.

Nesting is tracked through a second contextvar holding the current
parent span id, so spans opened anywhere in the dynamic extent of an
enclosing span — including across ``await``-free helper calls and kernel
wrappers — parent correctly: cycle → node → batch → kernel.

Crossing executor boundaries
----------------------------
Contextvars do not propagate into pool threads or worker processes, and
``time.perf_counter`` epochs differ between processes.  Workers therefore
run their task under a *local* collecting tracer and ship
:meth:`Tracer.payload` back with their result; the parent grafts it in
with :meth:`Tracer.merge`, which re-bases timestamps using each tracer's
recorded wall-clock epoch and re-parents the worker's root spans under
the dispatching span.  Worker spans keep their own ``pid``/``tid``, which
is what gives the Chrome-trace exporter one lane per worker.
"""

from __future__ import annotations

import itertools
import os
import threading
import time
from contextlib import contextmanager, nullcontext
from contextvars import ContextVar
from dataclasses import dataclass, field
from typing import Any, Iterator

from repro.obs.live import current_flight_recorder
from repro.util.timer import WallClock, wall_clock


@dataclass
class Span:
    """One named, timed, attributed region of the solve.

    ``start``/``end`` are in the recording tracer's clock domain;
    :meth:`Tracer.merge` re-bases foreign spans on arrival.  ``attrs``
    must hold JSON-serializable scalars (ints, floats, strings, bools) so
    every exporter can write them verbatim.
    """

    name: str
    cat: str
    start: float
    end: float
    attrs: dict[str, Any] = field(default_factory=dict)
    span_id: int = 0
    parent_id: int | None = None
    pid: int = 0
    tid: int = 0

    @property
    def duration(self) -> float:
        return self.end - self.start


@dataclass
class Instant:
    """A point-in-time annotation (fault injected, retry, checkpoint...)."""

    name: str
    cat: str
    ts: float
    attrs: dict[str, Any] = field(default_factory=dict)
    parent_id: int | None = None
    pid: int = 0
    tid: int = 0


class Tracer:
    """Collects spans and instants; safe for concurrent thread recording.

    ``epoch`` is ``time.time() - clock.now()`` at construction — the
    offset that maps this tracer's monotonic clock domain onto the shared
    wall clock, which is how spans recorded in different processes are
    merged onto one timeline (machine-local clocks agree on ``time.time``
    to far better precision than the spans we draw).
    """

    def __init__(self, clock: WallClock | None = None):
        self.clock = clock if clock is not None else wall_clock()
        self.spans: list[Span] = []
        self.instants: list[Instant] = []
        self.epoch = time.time() - self.clock.now()
        #: Tracer self-cost: seconds spent inside record bookkeeping (span
        #: construction, locking, appends) plus exporter time added by
        #: :func:`repro.obs.export.write_chrome_trace` /
        #: :func:`~repro.obs.export.write_spans_jsonl` — measured on the
        #: same injectable clock as the spans themselves, so analyses can
        #: weigh observability overhead against the recorded timeline.
        self.overhead_seconds = 0.0
        self._lock = threading.Lock()
        self._ids = itertools.count(1)

    def _new_id(self) -> int:
        with self._lock:
            return next(self._ids)

    # ------------------------------------------------------------ recording
    @contextmanager
    def span(self, name: str, cat: str = "solve", **attrs: Any) -> Iterator[Span]:
        """Open a span for the dynamic extent of the block.

        Yields the in-progress :class:`Span` so callers can add attributes
        discovered mid-region (e.g. a batch count known only after the
        work ran).  The span is committed on exit even when the block
        raises, so failed regions still appear on the timeline.
        """
        t_open = self.clock.now()
        sp = Span(
            name=name,
            cat=cat,
            start=t_open,
            end=0.0,
            attrs=dict(attrs),
            span_id=self._new_id(),
            parent_id=_PARENT.get(),
            pid=os.getpid(),
            tid=threading.get_ident(),
        )
        token = _PARENT.set(sp.span_id)
        # Enter-side bookkeeping happened between t_open and here; start
        # the span after it so record cost is excluded from the region.
        sp.start = self.clock.now()
        try:
            yield sp
        finally:
            _PARENT.reset(token)
            sp.end = self.clock.now()
            with self._lock:
                self.spans.append(sp)
                self.overhead_seconds += (sp.start - t_open) + (
                    self.clock.now() - sp.end
                )

    def complete(
        self, name: str, cat: str, start: float, end: float, **attrs: Any
    ) -> Span:
        """Record an already-timed region (used by the kernel wrappers)."""
        t0 = self.clock.now()
        sp = Span(
            name=name,
            cat=cat,
            start=start,
            end=end,
            attrs=dict(attrs),
            span_id=self._new_id(),
            parent_id=_PARENT.get(),
            pid=os.getpid(),
            tid=threading.get_ident(),
        )
        with self._lock:
            self.spans.append(sp)
            self.overhead_seconds += self.clock.now() - t0
        return sp

    def instant(self, name: str, cat: str = "annotation", **attrs: Any) -> Instant:
        """Record a point annotation at the current time."""
        t0 = self.clock.now()
        ev = Instant(
            name=name,
            cat=cat,
            ts=t0,
            attrs=dict(attrs),
            parent_id=_PARENT.get(),
            pid=os.getpid(),
            tid=threading.get_ident(),
        )
        with self._lock:
            self.instants.append(ev)
            self.overhead_seconds += self.clock.now() - t0
        return ev

    # ---------------------------------------------------- executor crossing
    def payload(self) -> dict:
        """Everything a worker ships back for :meth:`merge` (picklable)."""
        return {
            "epoch": self.epoch,
            "spans": self.spans,
            "instants": self.instants,
            "overhead_seconds": self.overhead_seconds,
        }

    def merge(self, payload: dict | None, parent_id: int | None = None) -> None:
        """Graft a worker tracer's payload into this tracer.

        Timestamps are re-based into this tracer's clock domain via the
        two epochs; span ids are re-allocated to avoid collisions; spans
        whose parent is not part of the payload (the worker's roots) are
        re-parented under ``parent_id``.
        """
        if not payload or (not payload["spans"] and not payload["instants"]):
            return
        shift = payload["epoch"] - self.epoch
        idmap = {sp.span_id: self._new_id() for sp in payload["spans"]}
        with self._lock:
            self.overhead_seconds += float(payload.get("overhead_seconds", 0.0))
            for sp in payload["spans"]:
                self.spans.append(
                    Span(
                        name=sp.name,
                        cat=sp.cat,
                        start=sp.start + shift,
                        end=sp.end + shift,
                        attrs=dict(sp.attrs),
                        span_id=idmap[sp.span_id],
                        parent_id=idmap.get(sp.parent_id, parent_id),
                        pid=sp.pid,
                        tid=sp.tid,
                    )
                )
            for ev in payload["instants"]:
                self.instants.append(
                    Instant(
                        name=ev.name,
                        cat=ev.cat,
                        ts=ev.ts + shift,
                        attrs=dict(ev.attrs),
                        parent_id=idmap.get(ev.parent_id, parent_id),
                        pid=ev.pid,
                        tid=ev.tid,
                    )
                )

    # ------------------------------------------------------------- queries
    def span_by_id(self) -> dict[int, Span]:
        return {sp.span_id: sp for sp in self.spans}

    def find(self, name: str | None = None, cat: str | None = None) -> list[Span]:
        """Spans matching ``name`` and/or ``cat`` (exact matches)."""
        return [
            sp
            for sp in self.spans
            if (name is None or sp.name == name) and (cat is None or sp.cat == cat)
        ]

    def ancestry(self, span: Span) -> list[Span]:
        """The chain of ancestors of ``span``, nearest first."""
        by_id = self.span_by_id()
        chain: list[Span] = []
        pid = span.parent_id
        while pid is not None and pid in by_id:
            parent = by_id[pid]
            chain.append(parent)
            pid = parent.parent_id
        return chain


# ----------------------------------------------------------- active context
_TRACER: ContextVar[Tracer | None] = ContextVar("repro_obs_tracer", default=None)
_PARENT: ContextVar[int | None] = ContextVar("repro_obs_parent", default=None)

#: Shared reusable no-op context manager returned when tracing is off.
_NULL_SPAN = nullcontext()


def current_tracer() -> Tracer | None:
    """The tracer hook sites should consult, or ``None`` (the default)."""
    return _TRACER.get()


@contextmanager
def tracing(tracer: Tracer | None = None) -> Iterator[Tracer]:
    """Activate ``tracer`` (or a fresh one) for the extent of the block.

    The parent-span context is reset for the block, so a shadowing tracer
    never inherits parent ids belonging to an outer tracer.
    """
    tr = tracer if tracer is not None else Tracer()
    t_tracer = _TRACER.set(tr)
    t_parent = _PARENT.set(None)
    try:
        yield tr
    finally:
        _PARENT.reset(t_parent)
        _TRACER.reset(t_tracer)
        # Publish the tracer's record self-cost into any metrics scope
        # still active around this one, so metrics snapshots carry
        # ``obs.overhead_seconds`` without the caller wiring it by hand.
        from repro.obs.metrics import current_metrics

        registry = current_metrics()
        if registry is not None:
            registry.gauge("obs.overhead_seconds").set(tr.overhead_seconds)


def span(name: str, cat: str = "solve", **attrs: Any):
    """Module-level span hook: records on the active tracer, or no-ops.

    Always usable as ``with span(...) as sp``; ``sp`` is ``None`` when no
    tracer is active, so callers adding mid-span attributes must guard.
    When a flight recorder is active (with or without a tracer) the span
    is additionally mirrored into its ring on exit, with duration.
    """
    tr = _TRACER.get()
    rec = current_flight_recorder()
    if rec is None:
        if tr is None:
            return _NULL_SPAN
        return tr.span(name, cat, **attrs)
    return _recorded_span(tr, rec, name, cat, attrs)


@contextmanager
def _recorded_span(tracer, recorder, name, cat, attrs):
    """Span hook path with an active flight recorder.

    Mid-span attributes added through the yielded span object make it
    into the flight event (the recorder reads ``sp.attrs`` at exit).
    """
    t0 = time.perf_counter()
    if tracer is None:
        try:
            yield None
        finally:
            recorder.record(
                "span", name, cat, attrs, duration=time.perf_counter() - t0
            )
    else:
        sp = None
        try:
            with tracer.span(name, cat, **attrs) as sp:
                yield sp
        finally:
            recorder.record(
                "span",
                name,
                cat,
                sp.attrs if sp is not None else attrs,
                duration=time.perf_counter() - t0,
            )


def instant(name: str, cat: str = "annotation", **attrs: Any) -> None:
    """Module-level instant hook: records on the active tracer, or no-ops.

    An active flight recorder also receives the instant — this is the
    choke point that lets forensic triggers (terminal batch failures,
    quarantine, pool rebuilds) dump the ring even when tracing is off.
    """
    tr = _TRACER.get()
    if tr is not None:
        tr.instant(name, cat, **attrs)
    rec = current_flight_recorder()
    if rec is not None:
        rec.record("instant", name, cat, attrs)
