"""Live telemetry plane: flight recorder, heartbeat exporter, SLO tracking.

Everything else in :mod:`repro.obs` is post-hoc — it reads a finished
trace after the run ends.  This module is the *while-it-runs* plane, in
three pieces:

* :class:`FlightRecorder` — an always-on bounded ring of the most recent
  spans and instants: a :class:`~repro.obs.tracer.Tracer` that keeps only
  its tail.  With nothing active the hooks cost two contextvar reads;
  with the ring on, each span or instant is one tracer record.  On a
  forensic trigger (terminal batch failure, quarantine, worker death,
  pool rebuild — or an explicit :meth:`~FlightRecorder.dump`) the ring is
  written as a spans log whose ``meta`` row says why.  Worker processes
  run their own ring and ship it home as a tracer payload plus the
  triggers they saw; the parent folds it in with
  :meth:`~FlightRecorder.merge` and re-fires those triggers.
* :class:`TelemetrySnapshotter` — a daemon thread writing
  :class:`~repro.obs.metrics.MetricsRegistry` snapshots to a heartbeat
  JSONL (a ``meta`` row, then ``metrics`` rows) at a fixed period,
  stamping tracer/recorder/its-own self-cost into each row so the live
  plane reports its overhead honestly.
* :class:`SLOSpec` / :class:`SLOTracker` — a latency objective
  ("p95 of ``cycle.seconds`` under 2 s") assessed as a rolling
  burn rate over heartbeat windows.

:func:`render_top` turns a heartbeat file into the ``repro obs top``
terminal view: fleet busy%, inflight tasks, resubmit and rebuild
counters, plan-cache hit rate, per-cycle/per-resolve p50/p99, per-session series
and the SLO verdict.

Flight records are timed on the tracer clock, and a dump's ``meta`` row
carries the epoch that maps it to wall time.  Heartbeat rows carry wall
``time.time()`` stamps, because their consumers live outside the process.
"""

from __future__ import annotations

import json
import os
import threading
import time
from collections import deque
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Iterator, Mapping

from repro.obs.export import read_jsonl_rows, write_spans_jsonl
from repro.obs.metrics import (
    MetricsRegistry,
    bucket_value,
    parse_metric_key,
    quantile_from_snapshot,
)
from repro.obs.tracer import _RECORDER, Instant, Span, Tracer

#: Instant names that dump the flight ring when a hook records them.  Any
#: instant carrying ``error=NotPositiveDefiniteError`` triggers regardless
#: of name.
DEFAULT_TRIGGERS = frozenset(
    {
        "update.batch_failed",
        "batch.quarantined",
        "executor.pool_rebuild",
        "executor.resubmit",
    }
)

_NPD_ERROR = "NotPositiveDefiniteError"

#: A batch loop quarantines each batch whose update failed terminally, so
#: ``update.batch_failed`` is followed, on the same thread, by
#: ``batch.quarantined``.  Both trigger; the pair is one failure and gets
#: one dump.
_FAILED, _QUARANTINED = "update.batch_failed", "batch.quarantined"


class FlightRecorder(Tracer):
    """A Tracer that keeps its last ``capacity`` records and dumps them on triggers.

    The :func:`~repro.obs.span`/:func:`~repro.obs.instant` hooks feed the
    active recorder: with a tracer active it keeps the records that
    tracer commits (:meth:`keep`), and without one it records them itself.
    Kernel spans are never kept.  Spans and instants share one ring in
    commit order; the oldest record is evicted first, and ``dropped``
    counts evictions.

    ``dump_dir=None`` (the worker-side configuration) records and detects
    triggers but never writes: they wait in :meth:`payload` and re-fire
    in the parent's :meth:`merge`.  ``max_dumps`` rate-limits artifact
    creation so a crash storm cannot fill a disk.

    A terminal batch failure fires twice: ``update.batch_failed`` dumps at
    once, and the ``batch.quarantined`` that follows on the same thread
    (``pid``, ``tid``) rewrites that dump in place, so each failing batch
    leaves one dump holding both instants and spends one of ``max_dumps``.
    """

    def __init__(
        self,
        capacity: int = 4096,
        dump_dir: str | Path | None = None,
        triggers: frozenset[str] | set[str] = DEFAULT_TRIGGERS,
        max_dumps: int = 5,
    ) -> None:
        super().__init__()
        self.capacity = int(capacity)
        self.dump_dir = Path(dump_dir) if dump_dir is not None else None
        self.triggers = frozenset(triggers)
        self.max_dumps = int(max_dumps)
        self.spans: deque[Span] = deque()
        self.instants: deque[Instant] = deque()
        self.recorded = 0
        self.dumps: list[Path] = []
        self._order: deque[bool] = deque()  # commit order; True = a span
        self._pending: list[dict] = []
        # (pid, tid) → the dump of a failed batch its quarantine completes
        self._failing: dict[tuple[int, int], tuple[Path, Mapping[str, Any]]] = {}

    @property
    def dropped(self) -> int:
        """Records evicted from the ring since construction."""
        return self.recorded - len(self._order)

    def _keep(self, record: Span | Instant) -> None:
        is_span = isinstance(record, Span)
        (self.spans if is_span else self.instants).append(record)
        self._order.append(is_span)
        self.recorded += 1
        if len(self._order) > self.capacity:
            (self.spans if self._order.popleft() else self.instants).popleft()

    # ------------------------------------------------------------- recording
    def keep(self, record: Span | Instant) -> None:
        """Keep a record the active tracer committed; an instant may trigger."""
        t0 = self.clock.now()
        with self._lock:
            self._keep(record)
            self.overhead_seconds += self.clock.now() - t0
        if isinstance(record, Instant):
            self._check(record)

    def instant(self, name: str, cat: str = "annotation", **attrs: Any) -> Instant:
        ev = super().instant(name, cat, **attrs)
        self._check(ev)
        return ev

    def _check(self, ev: Instant) -> None:
        if ev.name in self.triggers or ev.attrs.get("error") == _NPD_ERROR:
            self._fire(ev.name, ev.attrs, (ev.pid, ev.tid))

    def _fire(
        self, name: str, attrs: Mapping[str, Any], lane: tuple[int, int] | None
    ) -> None:
        if self.dump_dir is None:
            with self._lock:
                self._pending.append({"name": name, "attrs": dict(attrs), "lane": lane})
            return
        failed = self._failing.pop(lane, None) if name == _QUARANTINED else None
        if failed is not None:
            self._write(failed[0], _FAILED, failed[1])
        elif len(self.dumps) < self.max_dumps:
            path = self.dump(reason=name, trigger=attrs)
            if name == _FAILED:
                self._failing[lane] = (path, dict(attrs))

    # --------------------------------------------------------------- dumping
    def dump(
        self,
        path: str | Path | None = None,
        reason: str = "manual",
        trigger: Mapping[str, Any] | None = None,
    ) -> Path:
        """Write the ring as a spans log whose ``meta`` row says why and what it lost."""
        if path is None:
            if self.dump_dir is None:
                raise ValueError("no dump path given and recorder has no dump_dir")
            self.dump_dir.mkdir(parents=True, exist_ok=True)
            stamp = time.strftime("%Y%m%d-%H%M%S")
            slug = reason.replace(".", "-").replace("/", "-")
            name = f"flight-{slug}-{stamp}-{len(self.dumps) + 1:02d}.jsonl"
            path = self.dump_dir / name
        path = self._write(path, reason, trigger)
        self.dumps.append(path)
        return path

    def _write(
        self, path: str | Path, reason: str, trigger: Mapping[str, Any] | None
    ) -> Path:
        with self._lock:
            meta = {
                "reason": reason,
                "capacity": self.capacity,
                "recorded": self.recorded,
                "dropped": self.dropped,
                "events": len(self._order),
                "dumped_at": time.time(),
                "pid": os.getpid(),
            }
            if trigger is not None:
                meta["trigger"] = dict(trigger)
            return write_spans_jsonl(self, path, meta)

    # ------------------------------------------------------- worker transport
    def payload(self) -> dict:
        """The ring as a tracer payload, plus the triggers it could not fire."""
        return {**super().payload(), "triggers": list(self._pending)}

    def merge(self, payload: dict | None, parent_id: int | None = None) -> None:
        """Fold a worker ring's :meth:`payload` in, then fire its triggers here."""
        super().merge(payload, parent_id)
        for pending in (payload or {}).get("triggers", ()):
            self._fire(pending["name"], pending["attrs"], pending["lane"])


@contextmanager
def flight_recording(
    recorder: FlightRecorder | None = None, **kwargs: Any
) -> Iterator[FlightRecorder]:
    """Activate ``recorder`` (or ``FlightRecorder(**kwargs)``) for the block."""
    rec = recorder if recorder is not None else FlightRecorder(**kwargs)
    token = _RECORDER.set(rec)
    try:
        yield rec
    finally:
        _RECORDER.reset(token)


# ------------------------------------------------------- heartbeat exporter
class TelemetrySnapshotter:
    """Daemon thread writing registry snapshots to a heartbeat JSONL.

    The file holds one run: :meth:`start` truncates it and writes the
    ``meta`` row, and each beat appends one ``metrics`` row.  Each beat stamps the observability self-cost gauges
    (``obs.overhead_seconds`` from the tracer,
    ``obs.snapshotter_overhead_seconds`` for this thread,
    ``obs.recorder_overhead_seconds`` for the flight recorder) into the
    registry *before* snapshotting, so ``repro obs top`` can show the
    live plane's own price.  :meth:`stop` writes one final beat, so even
    a run shorter than ``period`` leaves a usable heartbeat file.
    """

    def __init__(
        self,
        registry: MetricsRegistry,
        path: str | Path,
        period: float = 1.0,
        tracer: Any | None = None,
        recorder: FlightRecorder | None = None,
    ) -> None:
        self.registry = registry
        self.path = Path(path)
        self.period = max(0.05, float(period))
        self.tracer = tracer
        self.recorder = recorder
        self.beats = 0
        self.overhead_seconds = 0.0
        self._started_at = 0.0
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None
        self._fh: Any = None
        self._lock = threading.Lock()

    def start(self) -> "TelemetrySnapshotter":
        if self._thread is not None:
            return self
        self._started_at = time.time()
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._fh = self.path.open("w")
        meta = {
            "type": "meta",
            "period_seconds": self.period,
            "started_at": self._started_at,
            "pid": os.getpid(),
        }
        self._fh.write(json.dumps(meta) + "\n")
        self._fh.flush()
        self._thread = threading.Thread(
            target=self._loop, name="repro-heartbeat", daemon=True
        )
        self._thread.start()
        return self

    def _loop(self) -> None:
        while not self._stop.wait(self.period):
            self.beat()

    def beat(self) -> None:
        """Write one ``metrics`` row (thread-safe; also callable directly)."""
        t0 = time.perf_counter()
        if self.tracer is not None:
            self.registry.gauge("obs.overhead_seconds").set(
                self.tracer.overhead_seconds
            )
        if self.recorder is not None:
            self.registry.gauge("obs.recorder_overhead_seconds").set(
                self.recorder.overhead_seconds
            )
        self.registry.gauge("obs.snapshotter_overhead_seconds").set(
            self.overhead_seconds
        )
        now = time.time()
        row = {
            "type": "metrics",
            "seq": self.beats,
            "ts": now,
            "uptime_seconds": now - self._started_at,
            "metrics": self.registry.snapshot(),
        }
        with self._lock:
            if self._fh is None:
                return
            self._fh.write(json.dumps(row) + "\n")
            self._fh.flush()
            self.beats += 1
        self.overhead_seconds += time.perf_counter() - t0

    def stop(self) -> None:
        if self._thread is None:
            return
        self._stop.set()
        self._thread.join(timeout=5.0)
        self._thread = None
        self.beat()
        with self._lock:
            if self._fh is not None:
                self._fh.close()
                self._fh = None

    def __enter__(self) -> "TelemetrySnapshotter":
        return self.start()

    def __exit__(self, *exc: Any) -> None:
        self.stop()


def parse_heartbeat_spec(spec: str) -> tuple[Path, float]:
    """Parse ``PATH`` or ``PATH:SECS`` into ``(path, period_seconds)``."""
    path, sep, tail = spec.rpartition(":")
    if sep:
        try:
            period = float(tail)
        except ValueError:
            return Path(spec), 1.0
        if period <= 0:
            raise ValueError(f"heartbeat period must be positive: {spec!r}")
        return Path(path), period
    return Path(spec), 1.0


def read_heartbeats(path: str | Path) -> tuple[dict, list[dict]]:
    """Load a heartbeat JSONL: ``(meta row, metrics rows in file order)``."""
    meta: dict = {}
    rows: list[dict] = []
    for row in read_jsonl_rows(path):
        if row.get("type") == "meta":
            meta = row
        elif row.get("type") == "metrics":
            rows.append(row)
    return meta, rows


# ------------------------------------------------------------------- SLOs
@dataclass(frozen=True)
class SLOSpec:
    """A latency objective: ``objective`` of ``metric`` ≤ ``target_seconds``."""

    metric: str
    target_seconds: float
    objective: float = 0.95

    @classmethod
    def parse(cls, spec: str) -> "SLOSpec":
        """Parse ``METRIC:TARGET`` or ``METRIC:TARGET:OBJECTIVE``."""
        parts = spec.split(":")
        if len(parts) not in (2, 3):
            raise ValueError(
                f"SLO spec must be METRIC:TARGET[:OBJECTIVE], got {spec!r}"
            )
        metric = parts[0]
        target = float(parts[1])
        objective = float(parts[2]) if len(parts) == 3 else 0.95
        if not 0.0 < objective < 1.0:
            raise ValueError(f"SLO objective must be in (0, 1): {spec!r}")
        if target <= 0:
            raise ValueError(f"SLO target must be positive: {spec!r}")
        return cls(metric=metric, target_seconds=target, objective=objective)


def good_bad_from_buckets(
    buckets: Mapping[str, int] | Mapping[int, int], target: float
) -> tuple[int, int]:
    """Split bucket counts into (≤ target, > target) by representative value."""
    good = bad = 0
    for key, n in buckets.items():
        if bucket_value(int(key)) <= target:
            good += int(n)
        else:
            bad += int(n)
    return good, bad


class SLOTracker:
    """Rolling burn-rate verdict over per-window good/bad sample counts.

    ``burn_rate`` is the classic SRE ratio: observed bad fraction over the
    error budget ``1 - objective``.  ≤ 1 means within budget (``ok``),
    ≤ 2 is ``warn``, above that ``breach``.
    """

    def __init__(self, spec: SLOSpec, window: int = 60) -> None:
        self.spec = spec
        self._window: deque[tuple[int, int]] = deque(maxlen=max(1, int(window)))

    def update(self, good: int, bad: int) -> None:
        self._window.append((int(good), int(bad)))

    @property
    def good(self) -> int:
        return sum(g for g, _ in self._window)

    @property
    def bad(self) -> int:
        return sum(b for _, b in self._window)

    def burn_rate(self) -> float | None:
        total = self.good + self.bad
        if total == 0:
            return None
        bad_frac = self.bad / total
        return bad_frac / max(1e-9, 1.0 - self.spec.objective)

    def verdict(self) -> str:
        rate = self.burn_rate()
        if rate is None:
            return "no-data"
        if rate <= 1.0:
            return "ok"
        if rate <= 2.0:
            return "warn"
        return "breach"


# -------------------------------------------------------------- obs top view
def _counter(row: dict, name: str) -> float:
    return float(row.get("metrics", {}).get("counters", {}).get(name, 0.0))


def _gauge(row: dict, name: str, default: float = 0.0) -> float:
    return float(row.get("metrics", {}).get("gauges", {}).get(name, default))


def _histogram(row: dict, name: str) -> dict:
    return row.get("metrics", {}).get("histograms", {}).get(name, {})


def _delta_buckets(new: dict, old: dict) -> dict[int, int]:
    out: dict[int, int] = {}
    for key, n in (new.get("buckets") or {}).items():
        out[int(key)] = int(n)
    for key, n in (old.get("buckets") or {}).items():
        idx = int(key)
        out[idx] = out.get(idx, 0) - int(n)
    return {idx: n for idx, n in out.items() if n > 0}


def _pct(x: float) -> str:
    return f"{100.0 * x:.1f}%"


def render_top(
    meta: dict,
    rows: list[dict],
    slo: SLOSpec | None = None,
    window: int = 5,
    path: str | Path | None = None,
) -> str:
    """Render the ``repro obs top`` view from heartbeat rows.

    Rates (busy%) come from counter deltas over the last ``window``
    beats; levels (inflight, p50/p99 gauges) come from the newest beat.
    Pure function of its inputs, so tests can feed it synthetic
    heartbeats.
    """
    if not rows:
        return "no heartbeats yet"
    last = rows[-1]
    base = rows[max(0, len(rows) - 1 - max(1, window))]
    dt = max(1e-9, float(last["ts"]) - float(base["ts"]))
    span_beats = int(last.get("seq", 0)) - int(base.get("seq", 0))

    lines: list[str] = []
    title = "repro obs top"
    if path is not None:
        title += f" — {Path(path).name}"
    lines.append(title)
    lines.append(
        f"beat {last.get('seq', 0)}  uptime {float(last.get('uptime_seconds', 0.0)):.1f}s  "
        f"period {float(meta.get('period_seconds', 0.0)):.2g}s  "
        f"pid {meta.get('pid', '?')}  window {span_beats} beats ({dt:.1f}s)"
    )

    # ---- fleet level + busy rates
    workers = _gauge(last, "sched.workers")
    inflight = _gauge(last, "sched.inflight")
    busy_delta = _counter(last, "sched.busy_seconds") - _counter(
        base, "sched.busy_seconds"
    )
    busy_line = f"workers {int(workers)}  inflight {int(inflight)}"
    if workers > 0:
        busy_line += f"  busy {_pct(min(1.0, busy_delta / (dt * workers)))}"
    lines.append(busy_line)

    # ---- counters: resubmits, rebuilds, plan cache
    resub = _counter(last, "executor.tasks_resubmitted")
    rebuilds = _counter(last, "executor.pool_rebuilds")
    hits = _counter(last, "plan.cache_hits")
    builds = _counter(last, "plan.cache_builds")
    plan_line = "n/a"
    if hits + builds > 0:
        plan_line = _pct(hits / (hits + builds)) + " hit"
    lines.append(
        f"resubmits {int(resub)}  pool_rebuilds {int(rebuilds)}  "
        f"plan-cache {plan_line}"
    )

    # ---- latency quantiles
    for metric, label in (("cycle.seconds", "cycle"), ("resolve.seconds", "resolve"), ("node.seconds", "node")):
        h = _histogram(last, metric)
        if not h.get("count"):
            continue
        p50 = _gauge(last, f"{metric}.p50", quantile_from_snapshot(h, 0.5))
        p99 = _gauge(last, f"{metric}.p99", quantile_from_snapshot(h, 0.99))
        lines.append(
            f"{label:<8} p50 {p50:.4g}s  p99 {p99:.4g}s  (n={int(h['count'])})"
        )

    # ---- SLO verdict over the window
    if slo is not None:
        tracker = SLOTracker(slo, window=max(1, window))
        for i in range(1, len(rows)):
            good, bad = good_bad_from_buckets(
                _delta_buckets(
                    _histogram(rows[i], slo.metric), _histogram(rows[i - 1], slo.metric)
                ),
                slo.target_seconds,
            )
            tracker.update(good, bad)
        first_h = _histogram(rows[0], slo.metric)
        if first_h.get("count"):
            g0, b0 = good_bad_from_buckets(first_h.get("buckets") or {}, slo.target_seconds)
            tracker.update(g0, b0)
        rate = tracker.burn_rate()
        rate_str = f"{rate:.2f}" if rate is not None else "-"
        lines.append(
            f"SLO {slo.metric} <= {slo.target_seconds:g}s @{slo.objective:.0%}: "
            f"{tracker.verdict()} (burn {rate_str}, {tracker.good} good / {tracker.bad} bad)"
        )

    # ---- per-session labeled series
    sessions: dict[str, dict[str, float]] = {}
    for key, value in last.get("metrics", {}).get("counters", {}).items():
        name, labels = parse_metric_key(key)
        if not labels or not name.startswith("session."):
            continue
        ident = labels.get("session") or ",".join(
            f"{k}={v}" for k, v in sorted(labels.items())
        )
        extra = ",".join(
            f"{k}={v}" for k, v in sorted(labels.items()) if k != "session"
        )
        label = f"{ident}{{{extra}}}" if extra else ident
        sessions.setdefault(label, {})[name.removeprefix("session.")] = value
    if sessions:
        parts = []
        for label in sorted(sessions):
            stats = " ".join(
                f"{k}={v:g}" for k, v in sorted(sessions[label].items())
            )
            parts.append(f"{label} {stats}")
        lines.append("sessions: " + " | ".join(parts))

    # ---- live-plane self-cost
    tracer_cost = _gauge(last, "obs.overhead_seconds")
    snap_cost = _gauge(last, "obs.snapshotter_overhead_seconds")
    rec_cost = _gauge(last, "obs.recorder_overhead_seconds")
    uptime = max(1e-9, float(last.get("uptime_seconds", 0.0)))
    total_cost = tracer_cost + snap_cost + rec_cost
    lines.append(
        f"self-cost: tracer {tracer_cost:.4g}s  snapshotter {snap_cost:.4g}s  "
        f"recorder {rec_cost:.4g}s ({_pct(total_cost / uptime)} of uptime)"
    )
    return "\n".join(lines)
