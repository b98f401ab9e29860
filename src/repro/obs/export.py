"""Exporters: Chrome trace-event JSON, flat JSONL span log, terminal summary.

Three views of one recorded solve:

* :func:`write_chrome_trace` — the Trace Event Format consumed by
  ``chrome://tracing`` and `Perfetto <https://ui.perfetto.dev>`_.  Spans
  become balanced ``B``/``E`` duration events, one lane per ``(pid,
  tid)`` — i.e. per worker — with fault/retry/checkpoint annotations as
  thread-scoped instant (``i``) events and metadata (``M``) events
  naming the lanes.
* :func:`write_spans_jsonl` — one JSON object per span/instant, for
  ad-hoc ``jq``/pandas analysis of the same data.
* :func:`format_obs_summary` — a monospace per-category breakdown of
  *host* kernel time mirroring the paper's Tables 3-6 layout, plus span
  and metric rollups.

``B``/``E`` events are generated by walking each lane's span *tree* in
stack order rather than sorting raw timestamps, so nesting is valid by
construction even when float → integer-microsecond rounding collapses
neighbouring timestamps; a per-lane monotonic cursor keeps emitted
timestamps non-decreasing.
"""

from __future__ import annotations

import itertools
import json
from pathlib import Path
from typing import Any

from repro.obs.metrics import MetricsRegistry, quantile_from_snapshot
from repro.obs.tracer import Instant, Span, Tracer


# --------------------------------------------------------- chrome trace JSON
def chrome_trace_events(tracer: Tracer) -> list[dict[str, Any]]:
    """Build the Trace Event Format event list for ``tracer``'s records."""
    spans = tracer.spans
    instants = tracer.instants
    if not spans and not instants:
        return []
    t0 = min(
        [sp.start for sp in spans] + [ev.ts for ev in instants]
    )

    def us(t: float) -> int:
        return max(0, round((t - t0) * 1e6))

    events: list[dict[str, Any]] = []
    lanes: dict[tuple[int, int], list[Span]] = {}
    for sp in spans:
        lanes.setdefault((sp.pid, sp.tid), []).append(sp)

    # Lane metadata: name processes and threads so Perfetto lanes read as
    # "main" / "worker-k" instead of raw thread idents.
    main_lane = lanes and min(lanes, key=lambda key: min(s.start for s in lanes[key]))
    pids_seen: set[int] = set()
    for i, (pid, tid) in enumerate(sorted(lanes)):
        if pid not in pids_seen:
            pids_seen.add(pid)
            events.append(
                {
                    "name": "process_name",
                    "ph": "M",
                    "pid": pid,
                    "tid": 0,
                    "ts": 0,
                    "args": {"name": f"repro pid={pid}"},
                }
            )
        label = "main" if (pid, tid) == main_lane else f"worker-{i}"
        events.append(
            {
                "name": "thread_name",
                "ph": "M",
                "pid": pid,
                "tid": tid,
                "ts": 0,
                "args": {"name": label},
            }
        )

    for (pid, tid), lane_spans in sorted(lanes.items()):
        lane_ids = {sp.span_id for sp in lane_spans}
        children: dict[int | None, list[Span]] = {}
        roots: list[Span] = []
        for sp in lane_spans:
            if sp.parent_id in lane_ids:
                children.setdefault(sp.parent_id, []).append(sp)
            else:
                # Parent lives in another lane (or nowhere): lane root.
                roots.append(sp)
        cursor = 0

        def emit_tree(sp: Span) -> None:
            nonlocal cursor
            cursor = max(cursor, us(sp.start))
            events.append(
                {
                    "name": sp.name,
                    "cat": sp.cat,
                    "ph": "B",
                    "ts": cursor,
                    "pid": pid,
                    "tid": tid,
                    "args": dict(sp.attrs),
                }
            )
            for child in sorted(
                children.get(sp.span_id, ()), key=lambda c: (c.start, c.span_id)
            ):
                emit_tree(child)
            cursor = max(cursor, us(sp.end))
            events.append(
                {"name": sp.name, "cat": sp.cat, "ph": "E", "ts": cursor,
                 "pid": pid, "tid": tid}
            )

        for root in sorted(roots, key=lambda s: (s.start, s.span_id)):
            emit_tree(root)

    for ev in instants:
        events.append(
            {
                "name": ev.name,
                "cat": ev.cat,
                "ph": "i",
                "s": "t",
                "ts": us(ev.ts),
                "pid": ev.pid,
                "tid": ev.tid,
                "args": dict(ev.attrs),
            }
        )
    return events


def write_chrome_trace(tracer: Tracer, path: str | Path) -> Path:
    """Write ``tracer``'s records as a Chrome trace-event JSON file.

    The tracer's accumulated record self-cost travels in ``otherData`` so
    offline analysis can report observability overhead; the export's
    own wall time is then added to ``tracer.overhead_seconds`` (visible
    to metrics snapshots and any later export, not to this file).
    """
    path = Path(path)
    t0 = tracer.clock.now()
    doc = {
        "traceEvents": chrome_trace_events(tracer),
        "displayTimeUnit": "ms",
        "otherData": {
            "producer": "repro.obs",
            "obs_overhead_seconds": tracer.overhead_seconds,
        },
    }
    path.write_text(json.dumps(doc))
    tracer.overhead_seconds += tracer.clock.now() - t0
    return path


# -------------------------------------------------------------- JSONL spans
def write_spans_jsonl(tracer: Tracer, path: str | Path) -> Path:
    """Write one JSON object per span and instant, ordered by start time.

    The first line is a ``meta`` row carrying the tracer's accumulated
    record self-cost (``obs_overhead_seconds``); the export's own wall
    time is added to ``tracer.overhead_seconds`` after writing, so it is
    visible to metrics snapshots and later exports but never to this
    file — which keeps the write → load → write round trip byte-exact.
    """
    path = Path(path)
    t0 = tracer.clock.now()
    rows: list[dict[str, Any]] = []
    for sp in tracer.spans:
        rows.append(
            {
                "type": "span",
                "name": sp.name,
                "cat": sp.cat,
                "start": sp.start,
                "end": sp.end,
                "dur": sp.duration,
                "span_id": sp.span_id,
                "parent_id": sp.parent_id,
                "pid": sp.pid,
                "tid": sp.tid,
                "attrs": dict(sp.attrs),
            }
        )
    for ev in tracer.instants:
        rows.append(
            {
                "type": "instant",
                "name": ev.name,
                "cat": ev.cat,
                "ts": ev.ts,
                "parent_id": ev.parent_id,
                "pid": ev.pid,
                "tid": ev.tid,
                "attrs": dict(ev.attrs),
            }
        )
    rows.sort(key=lambda r: r.get("start", r.get("ts", 0.0)))
    rows.insert(
        0, {"type": "meta", "obs_overhead_seconds": tracer.overhead_seconds}
    )
    with path.open("w") as fh:
        for row in rows:
            fh.write(json.dumps(row) + "\n")
    tracer.overhead_seconds += tracer.clock.now() - t0
    return path


# ----------------------------------------------------------- trace loaders
def read_spans_jsonl(path: str | Path) -> Tracer:
    """Load a :func:`write_spans_jsonl` file back into a :class:`Tracer`.

    Exact round-trip: writing the returned tracer with
    :func:`write_spans_jsonl` reproduces the input file byte-for-byte
    (rows are kept in file order, which the writer sorts by start time).
    Span ids are preserved; the tracer's id allocator is advanced past
    the largest loaded id so later merges cannot collide.
    """
    path = Path(path)
    tracer = Tracer()
    max_id = 0
    with path.open() as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line:
                continue
            try:
                row = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ValueError(f"{path}:{lineno}: not JSON: {exc}") from exc
            kind = row.get("type")
            if kind == "span":
                sp = Span(
                    name=row["name"],
                    cat=row["cat"],
                    start=float(row["start"]),
                    end=float(row["end"]),
                    attrs=dict(row.get("attrs", {})),
                    span_id=int(row["span_id"]),
                    parent_id=(
                        None if row.get("parent_id") is None else int(row["parent_id"])
                    ),
                    pid=int(row["pid"]),
                    tid=int(row["tid"]),
                )
                tracer.spans.append(sp)
                max_id = max(max_id, sp.span_id)
            elif kind == "instant":
                tracer.instants.append(
                    Instant(
                        name=row["name"],
                        cat=row["cat"],
                        ts=float(row["ts"]),
                        attrs=dict(row.get("attrs", {})),
                        parent_id=(
                            None
                            if row.get("parent_id") is None
                            else int(row["parent_id"])
                        ),
                        pid=int(row["pid"]),
                        tid=int(row["tid"]),
                    )
                )
            elif kind == "meta":
                tracer.overhead_seconds = float(
                    row.get("obs_overhead_seconds", 0.0)
                )
            else:
                raise ValueError(
                    f"{path}:{lineno}: unknown record type {kind!r}"
                )
    tracer._ids = itertools.count(max_id + 1)
    return tracer


def read_chrome_trace(path: str | Path) -> Tracer:
    """Reconstruct spans/instants from a :func:`write_chrome_trace` file.

    ``B``/``E`` events are re-paired per lane in stack order, so nesting
    *within* a lane is recovered exactly; cross-lane parent links (a
    worker's re-parented root under the dispatching span) are not part
    of the Chrome format and come back as lane roots.  Timestamps return
    as seconds.  Prefer the spans-JSONL form for analysis — this loader
    exists so a trace already shipped to Perfetto can still be analyzed.
    """
    path = Path(path)
    doc = json.loads(path.read_text())
    events = doc.get("traceEvents", []) if isinstance(doc, dict) else []
    tracer = Tracer()
    if isinstance(doc, dict):
        other = doc.get("otherData")
        if isinstance(other, dict):
            tracer.overhead_seconds = float(
                other.get("obs_overhead_seconds", 0.0)
            )
    stacks: dict[tuple[int, int], list[Span]] = {}
    for ev in events:
        ph = ev.get("ph")
        if ph not in ("B", "E", "i"):
            continue
        pid, tid = int(ev.get("pid", 0)), int(ev.get("tid", 0))
        lane = (pid, tid)
        ts = float(ev.get("ts", 0)) / 1e6
        if ph == "B":
            stack = stacks.setdefault(lane, [])
            sp = Span(
                name=str(ev.get("name", "")),
                cat=str(ev.get("cat", "")),
                start=ts,
                end=ts,
                attrs=dict(ev.get("args", {})),
                span_id=tracer._new_id(),
                parent_id=stack[-1].span_id if stack else None,
                pid=pid,
                tid=tid,
            )
            stack.append(sp)
        elif ph == "E":
            stack = stacks.get(lane)
            if not stack:
                raise ValueError(f"unbalanced E event in lane {lane}")
            sp = stack.pop()
            sp.end = ts
            tracer.spans.append(sp)
        else:
            tracer.instants.append(
                Instant(
                    name=str(ev.get("name", "")),
                    cat=str(ev.get("cat", "")),
                    ts=ts,
                    attrs=dict(ev.get("args", {})),
                    parent_id=None,
                    pid=pid,
                    tid=tid,
                )
            )
    for lane, stack in stacks.items():
        if stack:
            raise ValueError(
                f"unclosed span {stack[-1].name!r} in lane {lane}"
            )
    return tracer


def load_trace(path: str | Path) -> Tracer:
    """Load a trace file by format: ``.jsonl`` spans log or Chrome JSON."""
    path = Path(path)
    if path.suffix == ".jsonl":
        return read_spans_jsonl(path)
    return read_chrome_trace(path)


# ------------------------------------------------------------- metrics JSON
def write_metrics_json(
    registry: MetricsRegistry, path: str | Path, extra: dict | None = None
) -> Path:
    """Write a registry snapshot (plus optional run context) as JSON."""
    path = Path(path)
    doc = registry.snapshot()
    if extra:
        doc["run"] = extra
    path.write_text(json.dumps(doc, indent=2, sort_keys=True))
    return path


# ---------------------------------------------------------- terminal summary
def format_obs_summary(
    tracer: Tracer | None, registry: MetricsRegistry | None = None
) -> str:
    """Per-category host-time breakdown plus span/metric rollups.

    The first table mirrors the paper's per-category layout (Tables 3-6)
    for the measuring host, computed from the recorded kernel spans.
    """
    # Deferred import: counters imports repro.obs, so the category order
    # cannot be a module-level dependency of the exporters.
    from repro.linalg.counters import CATEGORY_ORDER

    lines: list[str] = []
    if tracer is not None:
        kernel = [sp for sp in tracer.spans if sp.cat == "kernel"]
        per_cat: dict[str, list[float]] = {}
        for sp in kernel:
            cat = str(sp.attrs.get("op_category", sp.name))
            slot = per_cat.setdefault(cat, [0, 0.0, 0.0])
            slot[0] += 1
            slot[1] += sp.duration
            slot[2] += float(sp.attrs.get("flops", 0.0))
        total_sec = sum(v[1] for v in per_cat.values())
        lines.append("host kernel time by category:")
        header = f"{'cat':>5} {'calls':>8} {'sec':>9} {'GFLOP':>9} {'GF/s':>8} {'share':>6}"
        lines.append(header)
        lines.append("-" * len(header))
        ordered = [c.value for c in CATEGORY_ORDER]
        for cat in ordered + sorted(set(per_cat) - set(ordered)):
            calls, sec, flops = per_cat.get(cat, [0, 0.0, 0.0])
            rate = flops / sec / 1e9 if sec > 0 else 0.0
            share = sec / total_sec if total_sec > 0 else 0.0
            lines.append(
                f"{cat:>5} {calls:>8d} {sec:>9.4f} {flops / 1e9:>9.4f} "
                f"{rate:>8.2f} {share:>6.1%}"
            )
        rollup: dict[tuple[str, str], list[float]] = {}
        for sp in tracer.spans:
            if sp.cat == "kernel":
                continue
            name = sp.name.split("[", 1)[0]
            slot = rollup.setdefault((sp.cat, name), [0, 0.0])
            slot[0] += 1
            slot[1] += sp.duration
        if rollup:
            lines.append("")
            lines.append("spans:")
            lines.append(f"{'cat':>12} {'name':<24} {'count':>7} {'sec':>9}")
            for (cat, name), (count, sec) in sorted(rollup.items()):
                lines.append(f"{cat:>12} {name:<24} {int(count):>7d} {sec:>9.4f}")
        if tracer.instants:
            counts: dict[str, int] = {}
            for ev in tracer.instants:
                counts[ev.name] = counts.get(ev.name, 0) + 1
            lines.append("")
            lines.append("annotations: " + ", ".join(
                f"{name}×{n}" for name, n in sorted(counts.items())
            ))
    if registry is not None:
        snap = registry.snapshot()
        interesting = {
            name: value
            for name, value in snap["counters"].items()
            if "." in name and not name.startswith("kernel.") or name.startswith("kernel.flops")
        }
        if interesting or snap["gauges"] or snap["histograms"]:
            lines.append("")
            lines.append("metrics:")
            for name, value in sorted(interesting.items()):
                pretty = f"{value:.6g}" if value != int(value) else f"{int(value)}"
                lines.append(f"  {name} = {pretty}")
            for name, value in sorted(snap["gauges"].items()):
                lines.append(f"  {name} = {value:.6g} (gauge)")
            for name, h in sorted(snap["histograms"].items()):
                lines.append(
                    f"  {name}: n={h['count']} mean={h['mean']:.4g} "
                    f"p50={quantile_from_snapshot(h, 0.5):.4g} "
                    f"p99={quantile_from_snapshot(h, 0.99):.4g} "
                    f"min={h['min']:.4g} max={h['max']:.4g}"
                )
    return "\n".join(lines) if lines else "(no observability data recorded)"
