"""Runtime metrics: counters, gauges and streaming log-bucket histograms.

A :class:`MetricsRegistry` is a flat, thread-safe name → metric map fed
by the solvers, executors, kernels and the fault/retry machinery.  The
registry follows the library's contextvar activation pattern
(:func:`metrics_scope` / :func:`current_metrics`); the module-level
helpers :func:`inc`, :func:`set_gauge`, :func:`observe` and
:func:`observe_latency` are the no-op-when-inactive hooks instrumented
code calls.

Metric name conventions (dot-separated, lowercase):

=================================  =============================================
``solve.cycles``                   counter — solver cycles completed
``solve.batches_quarantined``      counter — batches excluded after terminal failure
``solve.node_restarts``            counter — node-level crash restarts absorbed
``update.retry_total``             counter — failed update attempts that retried
``update.retry_recovered``         counter — retry sequences that then succeeded
``update.batch_failures``          counter — retry sequences that failed terminally
``kernel.calls`` / ``.flops`` /    counters — totals over all kernel invocations,
``kernel.seconds``                 plus ``kernel.<metric>.<cat>`` per category
``executor.tasks_resubmitted``     counter — tasks re-run after worker crashes
``executor.pool_rebuilds``         counter — broken process pools rebuilt
``sched.workers``                  gauge — backend concurrency of the last cycle
                                   (1 for the serial solver)
``sched.inflight``                 gauge — live submitted tasks
``sched.busy_seconds``             counter — summed worker-measured node seconds
``sched.nodes_completed``          counter — nodes solved (tasks ingested)
``cycle.seconds``                  histogram — per-cycle wall time (with
                                   ``cycle.seconds.p50``/``.p99`` gauges)
``resolve.seconds``                histogram — per-resolve wall time (same gauges)
``node.seconds``                   histogram — per-node-task worker seconds
``plan.cache_hits`` / ``.builds``  counters — vector-tier sparsity-plan reuse
``session.nodes_saved``            counter — node posteriors a durable session
                                   streamed to its store
``session.resumes``                counter — stores loaded with unfinished work
``faults.injected.<channel>``      counter — faults actually injected per channel
``obs.overhead_seconds``           gauge — tracer record self-cost
``obs.snapshotter_overhead_seconds``  gauge — heartbeat exporter self-cost
``obs.recorder_overhead_seconds``  gauge — flight-recorder self-cost
=================================  =============================================

Histograms
----------
:class:`Histogram` is a fixed log-bucket streaming summary: O(1) memory
(at most ``_MAX_BUCKET - _MIN_BUCKET + 2`` sparse buckets, in practice a
few dozen), supporting :meth:`~Histogram.quantile` and
:meth:`~Histogram.merge` with ~9% relative bucket resolution (4 buckets
per power of two).  Snapshots carry ``count/total/min/max/mean`` and
the ``buckets`` map.

Workers in other processes collect into their own registry and ship
:meth:`MetricsRegistry.snapshot` back with their results; the parent
folds it in with :meth:`MetricsRegistry.merge_snapshot`.
"""

from __future__ import annotations

import math
import threading
from contextlib import contextmanager
from contextvars import ContextVar
from typing import Iterator, Mapping

# --------------------------------------------------------- bucket geometry
#: 4 buckets per power of two ⇒ bucket edges grow by 2^(1/4) ≈ 1.19.
_LOG_BASE = math.log(2.0) / 4.0
#: Clamp range: covers roughly [2e-20, 5e19] seconds/rows/bytes.
_MIN_BUCKET = -256
_MAX_BUCKET = 256
#: Zero, negative and NaN observations land here (rendered as 0.0).
_UNDERFLOW = _MIN_BUCKET - 1


def bucket_index(v: float) -> int:
    """Log-bucket index of ``v`` (clamped; non-positive/NaN → underflow)."""
    if v != v or v <= 0.0:
        return _UNDERFLOW
    idx = int(math.floor(math.log(v) / _LOG_BASE))
    return max(_MIN_BUCKET, min(_MAX_BUCKET, idx))


def bucket_value(idx: int) -> float:
    """Representative value (geometric midpoint) of bucket ``idx``."""
    if idx <= _UNDERFLOW:
        return 0.0
    return math.exp((idx + 0.5) * _LOG_BASE)


def _quantile_from_buckets(
    buckets: Mapping[int, int], count: int, vmin: float, vmax: float, q: float
) -> float:
    if count <= 0:
        return 0.0
    q = min(1.0, max(0.0, q))
    rank = q * count
    cum = 0
    for idx in sorted(buckets):
        cum += buckets[idx]
        if cum >= rank:
            v = bucket_value(idx)
            # The summary min/max are exact; use them to pin the tails.
            return min(max(v, vmin), vmax)
    return vmax


def quantile_from_snapshot(h: Mapping, q: float) -> float:
    """Quantile estimate from a snapshotted histogram dict.

    Accepts the wire format of :meth:`MetricsRegistry.snapshot` (and any
    heartbeat ``metrics`` row carrying it).
    """
    count = int(h.get("count", 0) or 0)
    if count <= 0:
        return 0.0
    vmin = float(h.get("min", 0.0))
    vmax = float(h.get("max", vmin))
    counts = {int(k): int(v) for k, v in h["buckets"].items()}
    return _quantile_from_buckets(counts, count, vmin, vmax, q)


class Counter:
    """Monotonically increasing value (float to carry FLOP totals)."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0.0

    def inc(self, n: float = 1.0) -> None:
        self.value += n


class Gauge:
    """Last-write-wins value (queue depths, active workers...)."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0.0

    def set(self, v: float) -> None:
        self.value = float(v)


class Histogram:
    """Streaming log-bucket histogram: O(1) memory, mergeable quantiles.

    Tracks exact ``count``/``total``/``min``/``max`` plus a sparse map of
    fixed geometric buckets (4 per power of two), which is enough for
    p50/p99 latency gauges and SLO verdicts without storing observations.
    """

    __slots__ = ("count", "total", "vmin", "vmax", "buckets")

    def __init__(self) -> None:
        self.count = 0
        self.total = 0.0
        self.vmin = float("inf")
        self.vmax = float("-inf")
        self.buckets: dict[int, int] = {}

    def observe(self, v: float) -> None:
        v = float(v)
        self.count += 1
        self.total += v
        if v < self.vmin:
            self.vmin = v
        if v > self.vmax:
            self.vmax = v
        idx = bucket_index(v)
        self.buckets[idx] = self.buckets.get(idx, 0) + 1

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def quantile(self, q: float) -> float:
        """Bucket-resolution quantile estimate (exact at the extremes)."""
        return _quantile_from_buckets(
            self.buckets, self.count, self.vmin, self.vmax, q
        )

    def merge(self, other: "Histogram") -> None:
        """Fold another histogram's state into this one."""
        if other.count == 0:
            return
        self.count += other.count
        self.total += other.total
        self.vmin = min(self.vmin, other.vmin)
        self.vmax = max(self.vmax, other.vmax)
        for idx, n in other.buckets.items():
            self.buckets[idx] = self.buckets.get(idx, 0) + n


class MetricsRegistry:
    """Thread-safe registry of named counters, gauges and histograms."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counters: dict[str, Counter] = {}
        self._gauges: dict[str, Gauge] = {}
        self._histograms: dict[str, Histogram] = {}

    # --------------------------------------------------------- get-or-create
    def counter(self, name: str) -> Counter:
        with self._lock:
            metric = self._counters.get(name)
            if metric is None:
                metric = self._counters[name] = Counter()
            return metric

    def gauge(self, name: str) -> Gauge:
        with self._lock:
            metric = self._gauges.get(name)
            if metric is None:
                metric = self._gauges[name] = Gauge()
            return metric

    def histogram(self, name: str) -> Histogram:
        with self._lock:
            metric = self._histograms.get(name)
            if metric is None:
                metric = self._histograms[name] = Histogram()
            return metric

    # ------------------------------------------------------------ kernel hot path
    def record_kernel(self, cat: str, flops: float, seconds: float) -> None:
        """One kernel invocation: totals plus per-category breakdown."""
        self.counter("kernel.calls").inc()
        self.counter("kernel.flops").inc(flops)
        self.counter("kernel.seconds").inc(seconds)
        self.counter(f"kernel.calls.{cat}").inc()
        self.counter(f"kernel.flops.{cat}").inc(flops)
        self.counter(f"kernel.seconds.{cat}").inc(seconds)

    # ------------------------------------------------------------- transport
    def snapshot(self) -> dict:
        """JSON-serializable state, also the cross-process wire format."""
        with self._lock:
            return {
                "counters": {k: c.value for k, c in sorted(self._counters.items())},
                "gauges": {k: g.value for k, g in sorted(self._gauges.items())},
                "histograms": {
                    k: {
                        "count": h.count,
                        "total": h.total,
                        "min": h.vmin if h.count else 0.0,
                        "max": h.vmax if h.count else 0.0,
                        "mean": h.mean,
                        "buckets": {
                            str(idx): n for idx, n in sorted(h.buckets.items())
                        },
                    }
                    for k, h in sorted(self._histograms.items())
                },
            }

    def merge_snapshot(self, snap: dict | None) -> None:
        """Fold a worker registry's :meth:`snapshot` into this registry.

        Counters and histograms accumulate; gauges take the incoming
        value (last write wins, matching local semantics).
        """
        if not snap:
            return
        for name, value in snap.get("counters", {}).items():
            self.counter(name).inc(value)
        for name, value in snap.get("gauges", {}).items():
            self.gauge(name).set(value)
        for name, h in snap.get("histograms", {}).items():
            hist = self.histogram(name)
            if h["count"]:
                hist.count += int(h["count"])
                hist.total += float(h["total"])
                hist.vmin = min(hist.vmin, float(h["min"]))
                hist.vmax = max(hist.vmax, float(h["max"]))
                for k, n in h["buckets"].items():
                    idx = int(k)
                    hist.buckets[idx] = hist.buckets.get(idx, 0) + int(n)


# ----------------------------------------------------------- active context
_REGISTRY: ContextVar[MetricsRegistry | None] = ContextVar(
    "repro_obs_metrics", default=None
)


def current_metrics() -> MetricsRegistry | None:
    """The registry hook sites should consult, or ``None`` (the default)."""
    return _REGISTRY.get()


@contextmanager
def metrics_scope(registry: MetricsRegistry | None = None) -> Iterator[MetricsRegistry]:
    """Activate ``registry`` (or a fresh one) for the extent of the block."""
    reg = registry if registry is not None else MetricsRegistry()
    token = _REGISTRY.set(reg)
    try:
        yield reg
    finally:
        _REGISTRY.reset(token)


# ------------------------------------------------------------ no-op helpers
def inc(name: str, n: float = 1.0) -> None:
    """Increment a counter on the active registry, if any."""
    reg = _REGISTRY.get()
    if reg is not None:
        reg.counter(name).inc(n)


def set_gauge(name: str, v: float) -> None:
    """Set a gauge on the active registry, if any."""
    reg = _REGISTRY.get()
    if reg is not None:
        reg.gauge(name).set(v)


def observe(name: str, v: float) -> None:
    """Observe a histogram sample on the active registry, if any."""
    reg = _REGISTRY.get()
    if reg is not None:
        reg.histogram(name).observe(v)


def observe_latency(name: str, seconds: float) -> None:
    """Observe a latency sample and refresh its rolling p50/p99 gauges.

    Powers the live plane's per-cycle / per-resolve latency views: one
    histogram observation plus ``<name>.p50`` / ``<name>.p99`` gauges so
    heartbeat consumers get quantiles without replaying buckets.
    """
    reg = _REGISTRY.get()
    if reg is None:
        return
    h = reg.histogram(name)
    h.observe(float(seconds))
    reg.gauge(f"{name}.p50").set(h.quantile(0.5))
    reg.gauge(f"{name}.p99").set(h.quantile(0.99))
