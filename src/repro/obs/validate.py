"""Exported-trace schema validation: Chrome trace-event JSON and spans JSONL.

Checks the invariants the exporters guarantee and that downstream
consumers depend on.  For Chrome traces: every ``B`` has a matching
``E`` in its lane, lanes use consistent integer ``pid``/``tid``,
timestamps are non-negative and non-decreasing within a lane's duration
events, and instant events carry a valid scope.  For spans-JSONL files
(:func:`repro.obs.export.write_spans_jsonl`): well-typed rows sorted by
start time, unique span ids, resolvable parent references, JSON-scalar
attributes, and — the cross-process merge invariant — spans sharing a
``(pid, tid)`` lane must properly nest, never partially overlap, even
when their parents live in another lane.  Flight-recorder dumps and
heartbeat files from :mod:`repro.obs.live` are validated too, routed by
their typed header row.  Runnable as a module for the CI smoke step; the
file format is picked by extension (``.jsonl`` → typed JSONL: spans log,
flight dump or heartbeat by header; anything else → Chrome JSON)::

    python -m repro.obs.validate trace.json --require-depth 4 \\
        --expect-name cycle --expect-name batch
    python -m repro.obs.validate spans.jsonl --expect-name node
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

_PHASES = {"B", "E", "X", "i", "M"}


def validate_chrome_trace(doc: object) -> list[str]:
    """Return a list of schema problems (empty means the trace is valid)."""
    problems: list[str] = []
    if not isinstance(doc, dict) or not isinstance(doc.get("traceEvents"), list):
        return ["top level must be an object with a 'traceEvents' list"]
    stacks: dict[tuple[int, int], list[tuple[str, int]]] = {}
    cursors: dict[tuple[int, int], int] = {}
    for i, ev in enumerate(doc["traceEvents"]):
        where = f"event {i}"
        if not isinstance(ev, dict):
            problems.append(f"{where}: not an object")
            continue
        ph = ev.get("ph")
        if ph not in _PHASES:
            problems.append(f"{where}: unknown or missing phase {ph!r}")
            continue
        if not isinstance(ev.get("pid"), int) or not isinstance(ev.get("tid"), int):
            problems.append(f"{where}: pid/tid must be integers")
            continue
        if ph == "M":
            continue
        ts = ev.get("ts")
        if not isinstance(ts, (int, float)) or ts < 0:
            problems.append(f"{where}: ts must be a non-negative number")
            continue
        lane = (ev["pid"], ev["tid"])
        if ph in ("B", "E"):
            if ts < cursors.get(lane, 0):
                problems.append(f"{where}: ts decreases within lane {lane}")
            cursors[lane] = max(cursors.get(lane, 0), int(ts))
        if ph == "B":
            name = ev.get("name")
            if not isinstance(name, str) or not name:
                problems.append(f"{where}: B event needs a non-empty name")
                continue
            stacks.setdefault(lane, []).append((name, i))
        elif ph == "E":
            stack = stacks.get(lane)
            if not stack:
                problems.append(f"{where}: E without matching B in lane {lane}")
            else:
                open_name, _ = stack.pop()
                # E events may omit the name; when present it must close
                # the innermost open B (proper nesting).
                name = ev.get("name")
                if name is not None and name != open_name:
                    problems.append(
                        f"{where}: E {name!r} closes B {open_name!r} in lane {lane}"
                    )
        elif ph == "X":
            dur = ev.get("dur")
            if not isinstance(dur, (int, float)) or dur < 0:
                problems.append(f"{where}: X event needs a non-negative dur")
        elif ph == "i":
            if ev.get("s", "t") not in ("g", "p", "t"):
                problems.append(f"{where}: instant scope must be g, p or t")
    for lane, stack in stacks.items():
        for name, i in stack:
            problems.append(f"event {i}: B {name!r} in lane {lane} never closed")
    return problems


def trace_stats(doc: dict) -> dict:
    """Lane count, span count and maximum nesting depth of a valid trace."""
    lanes: set[tuple[int, int]] = set()
    depth = 0
    max_depth = 0
    spans = 0
    depths: dict[tuple[int, int], int] = {}
    for ev in doc.get("traceEvents", []):
        ph = ev.get("ph")
        if ph == "M":
            continue
        lane = (ev.get("pid"), ev.get("tid"))
        lanes.add(lane)
        if ph == "B":
            spans += 1
            depth = depths.get(lane, 0) + 1
            depths[lane] = depth
            max_depth = max(max_depth, depth)
        elif ph == "E":
            depths[lane] = max(0, depths.get(lane, 0) - 1)
    return {"lanes": len(lanes), "spans": spans, "max_depth": max_depth}


_SCALAR = (str, int, float, bool, type(None))


def validate_spans_jsonl(rows: list[object]) -> list[str]:
    """Return schema problems for parsed spans-JSONL rows (empty = valid).

    ``rows`` is the parsed file: one dict per line, in file order.
    Beyond per-row typing this enforces the invariants the exporter and
    the cross-process merge guarantee together: rows sorted by
    start/instant time, span ids unique, parent ids resolvable within
    the file, and per-lane proper nesting — two spans on one ``(pid,
    tid)`` lane are either disjoint or one contains the other, which is
    what makes per-worker busy-time attribution well defined.
    """
    problems: list[str] = []
    span_ids: set[int] = set()
    parent_refs: list[tuple[int, object]] = []
    lanes: dict[tuple[int, int], list[tuple[float, float, int]]] = {}
    prev_key = None
    for i, row in enumerate(rows):
        where = f"row {i}"
        if not isinstance(row, dict):
            problems.append(f"{where}: not an object")
            continue
        kind = row.get("type")
        if kind == "meta":
            # Header row carrying tracer self-cost; no timestamp, so it
            # participates in neither the sort nor the nesting sweep.
            v = row.get("obs_overhead_seconds", 0.0)
            if not isinstance(v, (int, float)) or v < 0:
                problems.append(
                    f"{where}: meta obs_overhead_seconds must be a "
                    "non-negative number"
                )
            continue
        if kind not in ("span", "instant"):
            problems.append(f"{where}: unknown or missing type {kind!r}")
            continue
        if not isinstance(row.get("name"), str) or not row["name"]:
            problems.append(f"{where}: needs a non-empty string name")
        if not isinstance(row.get("pid"), int) or not isinstance(row.get("tid"), int):
            problems.append(f"{where}: pid/tid must be integers")
            continue
        attrs = row.get("attrs", {})
        if not isinstance(attrs, dict):
            problems.append(f"{where}: attrs must be an object")
        else:
            for key, value in attrs.items():
                if isinstance(value, list):
                    # Flat scalar lists are fine (e.g. a kernel's shape).
                    if all(isinstance(v, _SCALAR) for v in value):
                        continue
                    problems.append(
                        f"{where}: attr {key!r} list must hold only scalars"
                    )
                elif not isinstance(value, _SCALAR):
                    problems.append(
                        f"{where}: attr {key!r} must be a JSON scalar, "
                        f"got {type(value).__name__}"
                    )
        if kind == "span":
            start, end = row.get("start"), row.get("end")
            if not isinstance(start, (int, float)) or not isinstance(
                end, (int, float)
            ):
                problems.append(f"{where}: span needs numeric start/end")
                continue
            if end < start:
                problems.append(f"{where}: span ends ({end}) before it starts ({start})")
            dur = row.get("dur")
            if isinstance(dur, (int, float)) and abs(dur - (end - start)) > 1e-9:
                problems.append(f"{where}: dur {dur} != end - start")
            sid = row.get("span_id")
            if not isinstance(sid, int):
                problems.append(f"{where}: span needs an integer span_id")
            elif sid in span_ids:
                problems.append(f"{where}: duplicate span_id {sid}")
            else:
                span_ids.add(sid)
            key = float(start)
            # Wavefront spans are post-hoc interval annotations over the
            # dispatch timeline; under barrier-free dependency dispatch
            # consecutive wavefronts overlap by design, so they are not
            # part of any lane's call stack and skip the nesting check.
            if not str(row.get("name", "")).startswith("wavefront["):
                lanes.setdefault((row["pid"], row["tid"]), []).append(
                    (float(start), float(end), i)
                )
        else:
            ts = row.get("ts")
            if not isinstance(ts, (int, float)):
                problems.append(f"{where}: instant needs a numeric ts")
                continue
            key = float(ts)
        parent = row.get("parent_id")
        if parent is not None:
            if not isinstance(parent, int):
                problems.append(f"{where}: parent_id must be an integer or null")
            else:
                parent_refs.append((i, parent))
        if prev_key is not None and key < prev_key:
            problems.append(f"{where}: rows not sorted by start time")
        prev_key = key
    for i, parent in parent_refs:
        if parent not in span_ids:
            problems.append(f"row {i}: parent_id {parent} matches no span in file")
    for lane, entries in sorted(lanes.items()):
        # Proper nesting via a sweep: each span must close inside its
        # enclosing span; a start before the enclosing end with an end
        # after it is a partial overlap.
        stack: list[tuple[float, float, int]] = []
        # Sort longest-first at equal starts so the enclosing span is on
        # the stack before the spans it contains.
        for start, end, i in sorted(entries, key=lambda e: (e[0], -e[1], e[2])):
            while stack and stack[-1][1] <= start:
                stack.pop()
            if stack and end > stack[-1][1]:
                problems.append(
                    f"row {i}: span partially overlaps row {stack[-1][2]} "
                    f"in lane {lane}"
                )
            stack.append((start, end, i))
    return problems


def spans_jsonl_stats(rows: list[dict]) -> dict:
    """Lane count, span count and maximum nesting depth of a valid spans log."""
    span_rows = [r for r in rows if r.get("type") == "span"]
    lanes = {
        (r.get("pid"), r.get("tid"))
        for r in rows
        if r.get("type") in ("span", "instant")
    }
    parents = {
        r["span_id"]: r.get("parent_id")
        for r in span_rows
        if isinstance(r.get("span_id"), int)
    }
    max_depth = 0
    for sid in parents:
        depth, cur, seen = 1, parents.get(sid), {sid}
        while isinstance(cur, int) and cur in parents and cur not in seen:
            seen.add(cur)
            depth += 1
            cur = parents.get(cur)
        max_depth = max(max_depth, depth)
    return {"lanes": len(lanes), "spans": len(span_rows), "max_depth": max_depth}


def validate_flight_jsonl(rows: list[object]) -> list[str]:
    """Schema problems for a flight-recorder dump (empty = valid).

    Checks the invariants :meth:`repro.obs.live.FlightRecorder.dump`
    guarantees: a versioned ``flight_meta`` header whose event count and
    drop accounting match the body, followed by event rows sorted by
    wall timestamp, each a span (with non-negative ``dur``) or instant
    with scalar attrs.
    """
    problems: list[str] = []
    if not rows:
        return ["empty file"]
    meta = rows[0]
    if not isinstance(meta, dict) or meta.get("type") != "flight_meta":
        return ["first row must be a flight_meta header"]
    if meta.get("version") != 1:
        problems.append("flight_meta version must be 1")
    for key in ("capacity", "recorded", "dropped", "events"):
        v = meta.get(key)
        if not isinstance(v, int) or v < 0:
            problems.append(f"flight_meta {key} must be a non-negative integer")
    if not isinstance(meta.get("reason"), str) or not meta.get("reason"):
        problems.append("flight_meta needs a non-empty reason")
    overhead = meta.get("overhead_seconds", 0.0)
    if not isinstance(overhead, (int, float)) or overhead < 0:
        problems.append("flight_meta overhead_seconds must be non-negative")
    body = rows[1:]
    if isinstance(meta.get("events"), int) and meta["events"] != len(body):
        problems.append(
            f"flight_meta claims {meta['events']} events, file has {len(body)}"
        )
    if (
        isinstance(meta.get("recorded"), int)
        and isinstance(meta.get("dropped"), int)
        and meta["recorded"] - meta["dropped"] != len(body)
    ):
        problems.append("flight_meta recorded - dropped != event count")
    prev_ts = None
    for i, row in enumerate(body, start=1):
        where = f"row {i}"
        if not isinstance(row, dict):
            problems.append(f"{where}: not an object")
            continue
        kind = row.get("kind")
        if kind not in ("span", "instant"):
            problems.append(f"{where}: kind must be span or instant, got {kind!r}")
            continue
        if not isinstance(row.get("name"), str) or not row["name"]:
            problems.append(f"{where}: needs a non-empty string name")
        ts = row.get("ts")
        if not isinstance(ts, (int, float)):
            problems.append(f"{where}: needs a numeric ts")
            continue
        if prev_ts is not None and ts < prev_ts:
            problems.append(f"{where}: events not sorted by ts")
        prev_ts = ts
        if not isinstance(row.get("pid"), int):
            problems.append(f"{where}: pid must be an integer")
        if kind == "span":
            dur = row.get("dur")
            if not isinstance(dur, (int, float)) or dur < 0:
                problems.append(f"{where}: span needs a non-negative dur")
        attrs = row.get("attrs", {})
        if not isinstance(attrs, dict):
            problems.append(f"{where}: attrs must be an object")
        else:
            for key, value in attrs.items():
                if not isinstance(value, _SCALAR):
                    problems.append(
                        f"{where}: attr {key!r} must be a JSON scalar, "
                        f"got {type(value).__name__}"
                    )
    return problems


def flight_jsonl_stats(rows: list[dict]) -> dict:
    """Reason, event/trigger counts and pid fanout of a valid flight dump."""
    meta = rows[0] if rows else {}
    body = [r for r in rows[1:] if isinstance(r, dict)]
    return {
        "reason": meta.get("reason", "?"),
        "events": len(body),
        "spans": sum(1 for r in body if r.get("kind") == "span"),
        "instants": sum(1 for r in body if r.get("kind") == "instant"),
        "pids": len({r.get("pid") for r in body}),
        "dropped": meta.get("dropped", 0),
    }


def validate_heartbeat_jsonl(rows: list[object]) -> list[str]:
    """Schema problems for a heartbeat file (empty = valid).

    Checks what :class:`repro.obs.live.TelemetrySnapshotter` guarantees:
    a versioned ``heartbeat_meta`` header, then beat rows with strictly
    increasing ``seq``, non-decreasing ``ts``/``uptime_seconds`` and a
    well-formed embedded metrics snapshot (numeric counters/gauges,
    histogram dicts with consistent counts and integer bucket keys).
    """
    problems: list[str] = []
    if not rows:
        return ["empty file"]
    meta = rows[0]
    if not isinstance(meta, dict) or meta.get("type") != "heartbeat_meta":
        return ["first row must be a heartbeat_meta header"]
    if meta.get("version") != 1:
        problems.append("heartbeat_meta version must be 1")
    period = meta.get("period_seconds")
    if not isinstance(period, (int, float)) or period <= 0:
        problems.append("heartbeat_meta period_seconds must be positive")
    prev_seq = None
    prev_ts = None
    for i, row in enumerate(rows[1:], start=1):
        where = f"row {i}"
        if not isinstance(row, dict):
            problems.append(f"{where}: not an object")
            continue
        if row.get("type") != "heartbeat":
            problems.append(f"{where}: type must be heartbeat")
            continue
        seq = row.get("seq")
        if not isinstance(seq, int) or seq < 0:
            problems.append(f"{where}: seq must be a non-negative integer")
        elif prev_seq is not None and seq <= prev_seq:
            problems.append(f"{where}: seq must be strictly increasing")
        if isinstance(seq, int):
            prev_seq = seq
        ts = row.get("ts")
        if not isinstance(ts, (int, float)):
            problems.append(f"{where}: needs a numeric ts")
        elif prev_ts is not None and ts < prev_ts:
            problems.append(f"{where}: ts must be non-decreasing")
        else:
            prev_ts = ts
        uptime = row.get("uptime_seconds")
        if not isinstance(uptime, (int, float)) or uptime < 0:
            problems.append(f"{where}: uptime_seconds must be non-negative")
        metrics = row.get("metrics")
        if not isinstance(metrics, dict):
            problems.append(f"{where}: needs a metrics snapshot object")
            continue
        for section in ("counters", "gauges"):
            block = metrics.get(section, {})
            if not isinstance(block, dict):
                problems.append(f"{where}: metrics.{section} must be an object")
                continue
            for name, value in block.items():
                if not isinstance(value, (int, float)):
                    problems.append(
                        f"{where}: metrics.{section}[{name!r}] must be numeric"
                    )
        hists = metrics.get("histograms", {})
        if not isinstance(hists, dict):
            problems.append(f"{where}: metrics.histograms must be an object")
            continue
        for name, h in hists.items():
            if not isinstance(h, dict):
                problems.append(f"{where}: histogram {name!r} must be an object")
                continue
            count = h.get("count")
            if not isinstance(count, int) or count < 0:
                problems.append(
                    f"{where}: histogram {name!r} count must be a "
                    "non-negative integer"
                )
                continue
            buckets = h.get("buckets")
            if buckets is None:
                continue
            if not isinstance(buckets, dict):
                problems.append(f"{where}: histogram {name!r} buckets must be an object")
                continue
            total_n = 0
            for key, n in buckets.items():
                try:
                    int(key)
                except (TypeError, ValueError):
                    problems.append(
                        f"{where}: histogram {name!r} bucket key {key!r} "
                        "must be an integer"
                    )
                    continue
                if not isinstance(n, int) or n < 0:
                    problems.append(
                        f"{where}: histogram {name!r} bucket {key} count "
                        "must be a non-negative integer"
                    )
                    continue
                total_n += n
            if total_n != count:
                problems.append(
                    f"{where}: histogram {name!r} bucket counts sum to "
                    f"{total_n}, count says {count}"
                )
    if prev_seq is None:
        problems.append("heartbeat file has no beat rows")
    return problems


def heartbeat_jsonl_stats(rows: list[dict]) -> dict:
    """Beat count, uptime and series count of a valid heartbeat file."""
    beats = [r for r in rows[1:] if isinstance(r, dict)]
    last = beats[-1] if beats else {}
    metrics = last.get("metrics", {})
    series = sum(
        len(metrics.get(section, {}))
        for section in ("counters", "gauges", "histograms")
    )
    return {
        "beats": len(beats),
        "uptime_seconds": float(last.get("uptime_seconds", 0.0)),
        "series": series,
    }


def _read_jsonl_rows(path: Path) -> list[object]:
    rows: list[object] = []
    with path.open() as fh:
        for line in fh:
            line = line.strip()
            if line:
                rows.append(json.loads(line))
    return rows


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.obs.validate",
        description="Validate an exported trace (Chrome JSON or spans JSONL)",
    )
    parser.add_argument(
        "trace", help="path to the trace file (.jsonl = spans log)"
    )
    parser.add_argument(
        "--require-depth",
        type=int,
        default=0,
        help="fail unless some lane nests at least this deep",
    )
    parser.add_argument(
        "--expect-name",
        action="append",
        default=[],
        help="fail unless a span with this name prefix exists (repeatable)",
    )
    args = parser.parse_args(argv)
    path = Path(args.trace)
    is_jsonl = path.suffix == ".jsonl"
    try:
        if is_jsonl:
            rows = _read_jsonl_rows(path)
        else:
            doc = json.loads(path.read_text())
    except (OSError, json.JSONDecodeError) as exc:
        print(f"unreadable trace {args.trace}: {exc}", file=sys.stderr)
        return 1
    if is_jsonl and rows and isinstance(rows[0], dict):
        first_type = rows[0].get("type")
        if first_type == "flight_meta":
            problems = validate_flight_jsonl(rows)
            for problem in problems:
                print(f"INVALID {problem}", file=sys.stderr)
            if problems:
                return 1
            stats = flight_jsonl_stats(rows)
            print(
                f"valid flight dump ({stats['reason']}): {stats['events']} events "
                f"({stats['spans']} spans, {stats['instants']} instants) from "
                f"{stats['pids']} pids, {stats['dropped']} dropped"
            )
            return 0
        if first_type == "heartbeat_meta":
            problems = validate_heartbeat_jsonl(rows)
            for problem in problems:
                print(f"INVALID {problem}", file=sys.stderr)
            if problems:
                return 1
            stats = heartbeat_jsonl_stats(rows)
            print(
                f"valid heartbeat: {stats['beats']} beats over "
                f"{stats['uptime_seconds']:.1f}s, {stats['series']} series"
            )
            return 0
    problems = validate_spans_jsonl(rows) if is_jsonl else validate_chrome_trace(doc)
    for problem in problems:
        print(f"INVALID {problem}", file=sys.stderr)
    if problems:
        return 1
    if is_jsonl:
        stats = spans_jsonl_stats(rows)
        names = {r["name"] for r in rows if r.get("type") == "span"}
    else:
        stats = trace_stats(doc)
        names = {
            ev.get("name", "")
            for ev in doc["traceEvents"]
            if ev.get("ph") == "B"
        }
    for expected in args.expect_name:
        if not any(name.startswith(expected) for name in names):
            print(f"INVALID no span named {expected!r} in trace", file=sys.stderr)
            return 1
    if stats["max_depth"] < args.require_depth:
        print(
            f"INVALID max nesting depth {stats['max_depth']} < "
            f"required {args.require_depth}",
            file=sys.stderr,
        )
        return 1
    print(
        f"valid: {stats['spans']} spans across {stats['lanes']} lanes, "
        f"max depth {stats['max_depth']}"
    )
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
