"""Exported-trace schema validation: the JSONL record schema and Chrome JSON.

Every ``.jsonl`` artifact :mod:`repro.obs` writes — a spans log, a
flight dump, a heartbeat — is one schema (:mod:`repro.obs.export`), and
:func:`validate_spans_jsonl` checks all of it: one ``meta`` row first;
``span``/``instant`` rows well typed, sorted by start time, with unique
span ids, resolvable parent references, JSON-scalar attributes and — the
cross-process merge invariant — spans sharing a ``(pid, tid)`` lane
properly nested, never partially overlapping, even when their parents
live in another lane; a flight dump's ``meta`` accounting matching its
rows; and ``metrics`` rows (heartbeat beats) with strictly increasing
``seq``, non-decreasing ``ts`` and well-formed registry snapshots.

Chrome trace-event JSON is a write-only view for Perfetto; for it every
``B`` has a matching ``E`` in its lane, lanes use consistent integer
``pid``/``tid``, timestamps are non-negative and non-decreasing within a
lane's duration events, and instant events carry a valid scope.

Runnable as a module for the CI smoke steps; the format is picked by
extension (``.jsonl`` → the JSONL schema, anything else → Chrome JSON)::

    python -m repro.obs.validate trace.json --require-depth 4 \\
        --expect-name cycle --expect-name batch
    python -m repro.obs.validate spans.jsonl --expect-name node
    python -m repro.obs.validate hb.jsonl
"""

from __future__ import annotations

import argparse
import json
import sys
from collections import Counter
from pathlib import Path

from repro.obs.export import read_jsonl_rows

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


def _is_number(v: object) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def validate_spans_jsonl(rows: list[object]) -> list[str]:
    """Return schema problems for parsed JSONL rows (empty = valid).

    ``rows`` is the parsed file: one dict per line, in file order.  Beyond
    per-row typing this enforces the invariants the writers and the
    cross-process merge guarantee together: ``span``/``instant`` rows
    sorted by start/instant time, span ids unique, parent ids resolvable
    within the file, and per-lane proper nesting — two spans on one
    ``(pid, tid)`` lane are either disjoint or one contains the other,
    which is what makes per-worker busy-time attribution well defined.
    A flight dump's ``meta`` row (it names a ``reason``) must account for
    its rows: ``events = recorded - dropped`` = the number of
    ``span``/``instant`` rows.  A heartbeat's (it names
    ``period_seconds``) must be followed by ``metrics`` rows.
    """
    if not rows or not isinstance(rows[0], dict) or rows[0].get("type") != "meta":
        return ["row 0: the first row must be the meta row"]
    problems: list[str] = []
    span_ids: set[int] = set()
    parent_refs: list[tuple[int, object]] = []
    lanes: dict[tuple[int, int], list[tuple[float, float, int]]] = {}
    prev_key = None
    events = beats = 0
    prev_seq = prev_ts = None
    for i, row in enumerate(rows[1:], start=1):
        where = f"row {i}"
        if not isinstance(row, dict):
            problems.append(f"{where}: not an object")
            continue
        kind = row.get("type")
        if kind == "metrics":
            beats += 1
            seq, ts = row.get("seq"), row.get("ts")
            if not isinstance(seq, int) or seq < 0:
                problems.append(f"{where}: seq must be a non-negative integer")
            elif prev_seq is not None and seq <= prev_seq:
                problems.append(f"{where}: seq must be strictly increasing")
            else:
                prev_seq = seq
            if not _is_number(ts):
                problems.append(f"{where}: needs a numeric ts")
            elif prev_ts is not None and ts < prev_ts:
                problems.append(f"{where}: ts must be non-decreasing")
            else:
                prev_ts = ts
            uptime = row.get("uptime_seconds")
            if not _is_number(uptime) or uptime < 0:
                problems.append(f"{where}: uptime_seconds must be non-negative")
            problems.extend(_snapshot_problems(where, row.get("metrics")))
            continue
        if kind not in ("span", "instant"):
            problems.append(f"{where}: unknown or missing type {kind!r}")
            continue
        events += 1
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
            if not _is_number(start) or not _is_number(end):
                problems.append(f"{where}: span needs numeric start/end")
                continue
            if end < start:
                problems.append(f"{where}: span ends ({end}) before it starts ({start})")
            dur = row.get("dur")
            if _is_number(dur) and abs(dur - (end - start)) > 1e-9:
                problems.append(f"{where}: dur {dur} != end - start")
            sid = row.get("span_id")
            if not isinstance(sid, int):
                problems.append(f"{where}: span needs an integer span_id")
            elif sid in span_ids:
                problems.append(f"{where}: duplicate span_id {sid}")
            else:
                span_ids.add(sid)
            key = float(start)
            lanes.setdefault((row["pid"], row["tid"]), []).append(
                (float(start), float(end), i)
            )
        else:
            ts = row.get("ts")
            if not _is_number(ts):
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
    return _meta_problems(rows[0], events, beats) + problems


def _meta_problems(meta: dict, events: int, beats: int) -> list[str]:
    """Problems with the meta row of a file holding ``events`` span/instant
    rows and ``beats`` metrics rows."""
    problems = []
    for key in ("epoch", "dumped_at", "started_at"):
        if key in meta and not _is_number(meta[key]):
            problems.append(f"meta: {key} must be a number")
    v = meta.get("obs_overhead_seconds", 0.0)
    if not _is_number(v) or v < 0:
        problems.append("meta: obs_overhead_seconds must be a non-negative number")
    if "period_seconds" in meta:
        period = meta["period_seconds"]
        if not _is_number(period) or period <= 0:
            problems.append("meta: period_seconds must be positive")
        if beats == 0:
            problems.append("meta: a heartbeat needs metrics rows")
    if "reason" in meta:
        if not isinstance(meta["reason"], str) or not meta["reason"]:
            problems.append("meta: a dump needs a non-empty reason")
        keys = ("capacity", "recorded", "dropped", "events")
        bad = [k for k in keys if not isinstance(meta.get(k), int) or meta[k] < 0]
        problems += [f"meta: {k} must be a non-negative integer" for k in bad]
        if not bad and not meta["events"] == meta["recorded"] - meta["dropped"] == events:
            problems.append(
                f"meta: events {meta['events']} = recorded {meta['recorded']} "
                f"- dropped {meta['dropped']} must equal the {events} "
                "span/instant rows"
            )
    return problems


def _snapshot_problems(where: str, metrics: object) -> list[str]:
    """Problems with one registry snapshot (:meth:`MetricsRegistry.snapshot`)."""
    if not isinstance(metrics, dict):
        return [f"{where}: needs a metrics snapshot object"]
    problems = []
    for section in ("counters", "gauges"):
        block = metrics.get(section, {})
        if not isinstance(block, dict):
            problems.append(f"{where}: metrics.{section} must be an object")
            continue
        for name, value in block.items():
            if not _is_number(value):
                problems.append(f"{where}: metrics.{section}[{name!r}] must be numeric")
    hists = metrics.get("histograms", {})
    if not isinstance(hists, dict):
        return problems + [f"{where}: metrics.histograms must be an object"]
    for name, h in hists.items():
        what = f"{where}: histogram {name!r}"
        count = h.get("count") if isinstance(h, dict) else None
        buckets = h.get("buckets") if isinstance(h, dict) else None
        if not isinstance(count, int) or count < 0:
            problems.append(f"{what} count must be a non-negative integer")
            continue
        if not isinstance(buckets, dict):
            problems.append(f"{what} needs a buckets object")
            continue
        total_n = 0
        for key, n in buckets.items():
            try:
                int(key)
            except (TypeError, ValueError):
                problems.append(f"{what} bucket key {key!r} must be an integer")
                continue
            if not isinstance(n, int) or n < 0:
                problems.append(
                    f"{what} bucket {key} count must be a non-negative integer"
                )
                continue
            total_n += n
        if total_n != count:
            problems.append(
                f"{what} bucket counts sum to {total_n}, count says {count}"
            )
    return problems


def spans_jsonl_stats(rows: list[dict]) -> dict:
    """Lane count, span count and maximum nesting depth of a valid JSONL file."""
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


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.obs.validate",
        description="Validate an exported trace (.jsonl record schema or Chrome JSON)",
    )
    parser.add_argument(
        "trace",
        help="path to the file (.jsonl = spans log, flight dump or heartbeat)",
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
    is_jsonl = Path(args.trace).suffix == ".jsonl"
    try:
        if is_jsonl:
            rows = read_jsonl_rows(args.trace)
        else:
            doc = json.loads(Path(args.trace).read_text())
    except (OSError, ValueError) as exc:
        print(f"unreadable trace {args.trace}: {exc}", file=sys.stderr)
        return 1
    problems = validate_spans_jsonl(rows) if is_jsonl else validate_chrome_trace(doc)
    for problem in problems:
        print(f"INVALID {problem}", file=sys.stderr)
    if problems:
        return 1
    if is_jsonl:
        stats = spans_jsonl_stats(rows)
        names = {r["name"] for r in rows if r.get("type") == "span"}
        kinds = Counter(r["type"] for r in rows[1:])
        extra = f", {kinds['instant']} instants, {kinds['metrics']} metrics rows"
    else:
        stats = trace_stats(doc)
        names = {
            ev.get("name", "")
            for ev in doc["traceEvents"]
            if ev.get("ph") == "B"
        }
        extra = ""
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
        f"max depth {stats['max_depth']}{extra}"
    )
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
