"""Post-hoc trace analytics: critical path, load imbalance, Equation-1 drift.

The observability layer records what a solve *did* (:mod:`repro.obs`
spans and metrics); this module turns those records into answers about
the paper's two load-bearing parallel claims:

* **Critical path** — the dependency-dispatch DAG over tree-node solves
  (child → parent edges from the :class:`~repro.core.hierarchy.Hierarchy`)
  has a longest duration-weighted chain that lower-bounds the wall time
  of *any* schedule.  :func:`critical_path` finds it and reports the
  headroom between serial work and that bound — the speedup perfect tree
  parallelism could reach (Figures 6-8 are exactly this bound priced on
  modeled machines).
* **Load imbalance** — :func:`worker_utilization` attributes each
  worker lane's busy/idle split per solver pass, including the warm
  ``resolve[k]`` passes of an incremental session, so "the tree axis
  keeps processors busy" is checked rather than assumed.
* **Equation-1 drift** — :func:`eq1_drift` compares
  :meth:`WorkModel.node_work <repro.core.workmodel.WorkModel.node_work>`
  predictions against measured node-span durations (robustly rescaled,
  so host speed cancels) and issues a fit-quality verdict: a stale
  calibration is detected instead of silently mis-assigning processors.

Everything here is strictly post-hoc: it consumes a live
:class:`~repro.obs.tracer.Tracer` or a spans log loaded with
:func:`~repro.obs.export.read_spans_jsonl`, and never touches the solve
path.
:func:`doctor_report` bundles all three analyses (the ``repro obs
doctor`` CLI); :func:`format_doctor_report` renders the terminal view.

The dependency DAG comes from the hierarchy when one is supplied, and
otherwise from the ``parent_nid`` attribute node spans carry — so a
spans-JSONL file is self-contained and analyzable offline.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from repro.core.workmodel import WorkModel, analytic_work_model, drift_report
from repro.errors import TraceAnalysisError
from repro.obs.tracer import Span, Tracer

if TYPE_CHECKING:
    from repro.core.hierarchy import Hierarchy


@dataclass
class NodeSpanStat:
    """One node solve extracted from a trace, in analyzer form."""

    nid: int
    name: str
    start: float
    end: float
    lane: tuple[int, int]
    state_dim: int | None = None
    rows: int | None = None
    batch_size: int | None = None
    parent_nid: int | None = None  # None = attribute absent; -1 = root

    @property
    def seconds(self) -> float:
        return self.end - self.start


@dataclass
class SolvePass:
    """One solver pass (a ``cycle`` or warm ``resolve[k]`` span) + its nodes."""

    label: str
    index: int
    start: float
    end: float
    solver: str
    backend: str | None
    nodes: dict[int, NodeSpanStat] = field(default_factory=dict)

    @property
    def wall_seconds(self) -> float:
        return self.end - self.start


# --------------------------------------------------------------- extraction
def _span_parent_map(tracer: Tracer) -> dict[int, Span]:
    by_id = tracer.span_by_id()
    return {
        sp.span_id: by_id[sp.parent_id]
        for sp in tracer.spans
        if sp.parent_id is not None and sp.parent_id in by_id
    }


def _enclosing_pass(sp: Span, parents: dict[int, Span]) -> Span | None:
    """Nearest ancestor that is a ``cycle`` span (the solver-pass anchor)."""
    cur = parents.get(sp.span_id)
    while cur is not None:
        if cur.name == "cycle":
            return cur
        cur = parents.get(cur.span_id)
    return None


def _node_stat(sp: Span) -> NodeSpanStat:
    attrs = sp.attrs

    def _int(key: str) -> int | None:
        v = attrs.get(key)
        return None if v is None else int(v)

    return NodeSpanStat(
        nid=int(attrs["nid"]),
        name=str(attrs.get("node_name") or sp.name),
        start=sp.start,
        end=sp.end,
        lane=(sp.pid, sp.tid),
        state_dim=_int("state_dim"),
        rows=_int("rows"),
        batch_size=_int("batch_size"),
        parent_nid=_int("parent_nid"),
    )


def solve_passes(tracer: Tracer) -> list[SolvePass]:
    """Extract every solver pass (cold cycles and warm re-solves) in order.

    Node spans attach to their pass through span ancestry; a node span
    with no ``cycle`` ancestor belongs to no pass.  A trace with no
    ``cycle`` spans raises :class:`TraceAnalysisError` — there is nothing
    to analyze.
    """
    parents = _span_parent_map(tracer)
    cycles = sorted(
        (sp for sp in tracer.spans if sp.name == "cycle"),
        key=lambda sp: (sp.start, sp.span_id),
    )
    if not cycles:
        raise TraceAnalysisError(
            "trace contains no 'cycle' spans; was the solve run under tracing?"
        )
    passes: list[SolvePass] = []
    by_span_id: dict[int, SolvePass] = {}
    for i, sp in enumerate(cycles):
        label = f"cycle[{sp.attrs.get('cycle', i)}]"
        anc = parents.get(sp.span_id)
        while anc is not None:
            if anc.name.startswith("resolve["):
                label = anc.name
                break
            anc = parents.get(anc.span_id)
        p = SolvePass(
            label=label,
            index=i,
            start=sp.start,
            end=sp.end,
            solver=str(sp.attrs.get("solver", "hier")),
            backend=sp.attrs.get("backend"),
        )
        passes.append(p)
        by_span_id[sp.span_id] = p
    node_spans = [
        sp
        for sp in tracer.spans
        if sp.name.startswith("node[") and "nid" in sp.attrs
    ]
    for sp in node_spans:
        anchor = _enclosing_pass(sp, parents)
        if anchor is None:
            continue
        target = by_span_id[anchor.span_id]
        stat = _node_stat(sp)
        prev = target.nodes.get(stat.nid)
        if prev is None or stat.seconds > prev.seconds:
            # Node-level crash restarts re-run a node; keep the attempt
            # that did the work (the completed, longest one).
            target.nodes[stat.nid] = stat
    return [p for p in passes if p.nodes]


# ------------------------------------------------------------- the node DAG
def dag_edges(
    passes: list[SolvePass], hierarchy: "Hierarchy | None" = None
) -> dict[int, int]:
    """``nid → parent nid`` (root maps to ``-1``) for every traced node.

    Prefers the hierarchy when given; otherwise reads the ``parent_nid``
    attribute off the node spans.  Traces recorded before that attribute
    existed need the hierarchy (pass ``--problem`` on the CLI).
    """
    if hierarchy is not None:
        return {
            n.nid: -1 if n.parent is None else n.parent.nid
            for n in hierarchy.nodes
        }
    edges: dict[int, int] = {}
    missing: set[int] = set()
    for p in passes:
        for stat in p.nodes.values():
            if stat.parent_nid is None:
                missing.add(stat.nid)
            else:
                edges[stat.nid] = stat.parent_nid
    if missing:
        raise TraceAnalysisError(
            f"node spans {sorted(missing)[:8]} carry no parent_nid attribute; "
            "re-record the trace or supply the problem file for the hierarchy"
        )
    return edges


# ------------------------------------------------------------ critical path
def critical_path(p: SolvePass, edges: dict[int, int]) -> dict:
    """Longest duration-weighted root→leaf chain through the pass's DAG.

    Returns the chain (root first), its length in seconds, the total
    serial work, the measured wall time, and the derived bounds:
    ``perfect_speedup`` (serial / critical path — what infinitely many
    processors could reach on this tree) and ``achieved_speedup``
    (serial / wall).  A dirty-restricted pass is analyzed over the nodes
    it actually ran; clean cached subtrees contribute no work, exactly
    as they cost none.
    """
    nodes = p.nodes
    children: dict[int, list[int]] = {}
    roots: list[int] = []
    for nid in sorted(nodes):
        parent = edges.get(nid, -1)
        if parent in nodes:
            children.setdefault(parent, []).append(nid)
        else:
            roots.append(nid)
    finish: dict[int, float] = {}

    def _finish(nid: int) -> float:
        if nid not in finish:
            kids = children.get(nid, ())
            finish[nid] = nodes[nid].seconds + (
                max(_finish(k) for k in kids) if kids else 0.0
            )
        return finish[nid]

    top = max(roots, key=lambda nid: (_finish(nid), -nid))
    chain: list[dict] = []
    cur: int | None = top
    cp_seconds = _finish(top)
    while cur is not None:
        stat = nodes[cur]
        chain.append(
            {
                "nid": cur,
                "name": stat.name,
                "seconds": stat.seconds,
                "share": stat.seconds / cp_seconds if cp_seconds > 0 else 0.0,
            }
        )
        kids = children.get(cur, ())
        cur = max(kids, key=lambda k: (_finish(k), -k)) if kids else None
    serial = sum(s.seconds for s in nodes.values())
    wall = p.wall_seconds
    return {
        "chain": chain,
        "critical_path_seconds": cp_seconds,
        "serial_seconds": serial,
        "wall_seconds": wall,
        "n_nodes": len(nodes),
        "perfect_speedup": serial / cp_seconds if cp_seconds > 0 else 1.0,
        "achieved_speedup": serial / wall if wall > 0 else 0.0,
        # Perfect minus achieved speedup: the load-imbalance/overhead gap
        # left on the table (0 = nothing left).
        "headroom": max(
            0.0,
            (serial / cp_seconds if cp_seconds > 0 else 1.0)
            - (serial / wall if wall > 0 else 0.0),
        ),
        "critical_fraction_of_wall": cp_seconds / wall if wall > 0 else 0.0,
    }


# --------------------------------------------------------------- utilization
def worker_utilization(p: SolvePass) -> dict:
    """Per-lane busy/idle attribution and the pass's imbalance summary.

    A lane is one ``(pid, tid)`` — a worker thread or process, or the
    main thread for serial solves.  Busy time is the sum of node-span
    durations on the lane (workers run node tasks one at a time); idle
    gaps are the spaces between consecutive node solves inside the pass
    window, attributed to the nodes they fall between.  Imbalance is
    ``max busy / mean busy`` across lanes — 1.0 is a perfectly balanced
    pass.
    """
    lanes: dict[tuple[int, int], list[NodeSpanStat]] = {}
    for stat in p.nodes.values():
        lanes.setdefault(stat.lane, []).append(stat)
    wall = p.wall_seconds
    out_lanes = []
    busies = []
    for lane in sorted(lanes):
        stats = sorted(lanes[lane], key=lambda s: (s.start, s.nid))
        busy = sum(s.seconds for s in stats)
        busies.append(busy)
        gaps = []
        prev_end, prev_nid = p.start, None
        for s in stats:
            gap = s.start - prev_end
            if gap > 0:
                gaps.append({"seconds": gap, "after_nid": prev_nid, "before_nid": s.nid})
            if s.end >= prev_end:
                prev_end, prev_nid = s.end, s.nid
        tail = p.end - prev_end
        if tail > 0:
            gaps.append({"seconds": tail, "after_nid": prev_nid, "before_nid": None})
        gaps.sort(key=lambda g: -g["seconds"])
        out_lanes.append(
            {
                "pid": lane[0],
                "tid": lane[1],
                "n_nodes": len(stats),
                "busy_seconds": busy,
                "utilization": busy / wall if wall > 0 else 0.0,
                "idle_seconds": max(0.0, wall - busy),
                "longest_gaps": gaps[:3],
            }
        )
    mean_busy = float(np.mean(busies)) if busies else 0.0
    max_busy = max(busies) if busies else 0.0
    worst_lane = None
    if out_lanes:
        lane_keys = sorted(lanes)
        i = max(range(len(out_lanes)), key=lambda j: out_lanes[j]["busy_seconds"])
        heaviest = max(lanes[lane_keys[i]], key=lambda s: (s.seconds, -s.nid))
        worst_lane = {
            "pid": out_lanes[i]["pid"],
            "tid": out_lanes[i]["tid"],
            "busy_seconds": out_lanes[i]["busy_seconds"],
            "heaviest": {
                "nid": heaviest.nid,
                "name": heaviest.name,
                "measured_seconds": heaviest.seconds,
                # Filled by doctor_report from the pass's Equation-1
                # residuals (needs the scaled model prediction).
                "predicted_seconds": None,
            },
        }
    return {
        "n_lanes": len(out_lanes),
        "wall_seconds": wall,
        "mean_utilization": (
            float(np.mean([ln["utilization"] for ln in out_lanes])) if out_lanes else 0.0
        ),
        "imbalance": max_busy / mean_busy if mean_busy > 0 else 1.0,
        "worst_lane": worst_lane,
        "lanes": out_lanes,
    }


# -------------------------------------------------------------- Eq. 1 drift
def eq1_drift(
    p: SolvePass,
    model: WorkModel | None = None,
    r2_threshold: float = 0.7,
    rel_threshold: float = 0.5,
    top: int = 5,
) -> dict:
    """Equation-1 predicted vs measured node durations for one pass.

    Delegates the statistics to
    :func:`repro.core.workmodel.drift_report` (robust host-speed rescale,
    per-node residuals, R², verdict) over every traced node that carries
    the ``state_dim``/``rows``/``batch_size`` attributes and did real
    work.  The worst relative residuals are surfaced with their node
    ids so a mis-modeled subtree is nameable, not just detectable.
    """
    model = model if model is not None else analytic_work_model()
    usable = [
        s
        for s in sorted(p.nodes.values(), key=lambda s: s.nid)
        if s.state_dim is not None
        and s.rows is not None
        and s.batch_size is not None
        and s.rows > 0
    ]
    report = drift_report(
        model,
        [s.state_dim for s in usable],
        [s.rows for s in usable],
        [s.batch_size for s in usable],
        [s.seconds for s in usable],
        r2_threshold=r2_threshold,
        rel_threshold=rel_threshold,
    )
    # drift_report keeps sample order for its usable subset; re-attach nids.
    kept = [
        s
        for s in usable
        if model.node_work(s.state_dim, s.rows, s.batch_size) > 0 and s.seconds > 0
    ]
    for stat, row in zip(kept, report["residuals"]):
        row["nid"] = stat.nid
        row["name"] = stat.name
    report["worst"] = sorted(
        report["residuals"], key=lambda r: -r["rel"]
    )[:top]
    return report


# ------------------------------------------------------------ doctor bundle
def doctor_report(
    tracer: Tracer,
    hierarchy: "Hierarchy | None" = None,
    model: WorkModel | None = None,
    r2_threshold: float = 0.7,
    rel_threshold: float = 0.5,
) -> dict:
    """Run all three analyses over every solver pass in the trace.

    Returns a JSON-ready document: per-pass critical path, utilization
    and Equation-1 drift, the merged DAG edge list (stable across
    backends for the same problem — the acceptance invariant), and
    top-level verdict lines summarizing what, if anything, looks wrong.
    """
    passes = solve_passes(tracer)
    edges = dag_edges(passes, hierarchy)
    per_pass = []
    for p in passes:
        util = worker_utilization(p)
        eq1 = eq1_drift(
            p, model, r2_threshold=r2_threshold, rel_threshold=rel_threshold
        )
        wl = util.get("worst_lane")
        if wl is not None:
            predicted = {r["nid"]: r["predicted"] for r in eq1.get("residuals", [])}
            wl["heaviest"]["predicted_seconds"] = predicted.get(
                wl["heaviest"]["nid"]
            )
        per_pass.append(
            {
                "label": p.label,
                "solver": p.solver,
                "backend": p.backend,
                "wall_seconds": p.wall_seconds,
                "critical_path": critical_path(p, edges),
                "utilization": util,
                "eq1": eq1,
            }
        )
    verdicts = _verdicts(per_pass)
    if tracer.overhead_seconds > 0:
        total_wall = sum(p.wall_seconds for p in passes)
        share = tracer.overhead_seconds / total_wall if total_wall > 0 else 0.0
        verdicts.append(
            f"tracer self-cost: {tracer.overhead_seconds:.4f}s of record/export "
            f"bookkeeping ({share:.2%} of traced wall)"
        )
    traced_nids = sorted({nid for p in passes for nid in p.nodes})
    return {
        "passes": per_pass,
        "obs_overhead_seconds": tracer.overhead_seconds,
        "dag": {
            "nodes": traced_nids,
            "edges": sorted(
                (nid, parent)
                for nid, parent in edges.items()
                if nid in set(traced_nids)
            ),
        },
        "verdicts": verdicts,
    }


def _verdicts(per_pass: list[dict]) -> list[str]:
    verdicts: list[str] = []
    full = [p for p in per_pass if p["label"].startswith("cycle")]
    anchor = full[0] if full else per_pass[0]
    cp = anchor["critical_path"]
    verdicts.append(
        f"critical path {cp['critical_path_seconds']:.3f}s of "
        f"{cp['serial_seconds']:.3f}s serial work: perfect tree parallelism "
        f"tops out at {cp['perfect_speedup']:.2f}x "
        f"(achieved {cp['achieved_speedup']:.2f}x)"
    )
    util = anchor["utilization"]
    if util["n_lanes"] > 1:
        state = "BALANCED" if util["imbalance"] <= 1.5 else "IMBALANCED"
        line = (
            f"{state}: {util['n_lanes']} lanes at "
            f"{util['mean_utilization']:.1%} mean utilization, "
            f"imbalance {util['imbalance']:.2f}"
        )
        wl = util.get("worst_lane")
        if wl is not None:
            heavy = wl["heaviest"]
            predicted = (
                f"{heavy['predicted_seconds']:.4f}s predicted"
                if heavy.get("predicted_seconds") is not None
                else "no prediction"
            )
            line += (
                f"; worst lane (pid={wl['pid']} tid={wl['tid']}) carries "
                f"node[{heavy['nid']}] {heavy['name']}: "
                f"{heavy['measured_seconds']:.4f}s measured vs {predicted}"
            )
        verdicts.append(line)
    else:
        verdicts.append(
            f"single lane (serial pass): {util['mean_utilization']:.1%} of the "
            "wall inside node solves"
        )
    eq1 = anchor["eq1"]
    if eq1["verdict"] == "insufficient-data":
        verdicts.append("Equation 1: not enough instrumented node spans to judge")
    else:
        state = "OK" if eq1["verdict"] == "calibrated" else "STALE"
        verdicts.append(
            f"Equation 1 {state}: R2={eq1['r2']:.3f} "
            f"median |rel residual|={eq1['median_abs_rel']:.1%} over "
            f"{eq1['n_samples']} nodes"
        )
    return verdicts


# ---------------------------------------------------------------- rendering
def format_doctor_report(report: dict, top: int = 5) -> str:
    """Monospace rendering of a :func:`doctor_report` document."""
    lines: list[str] = []
    for verdict in report["verdicts"]:
        lines.append(f"* {verdict}")
    for p in report["passes"]:
        lines.append("")
        backend = f" backend={p['backend']}" if p["backend"] else ""
        lines.append(
            f"== {p['label']} (solver={p['solver']}{backend}, "
            f"wall {p['wall_seconds']:.4f}s) =="
        )
        cp = p["critical_path"]
        lines.append(
            f"critical path: {cp['critical_path_seconds']:.4f}s over "
            f"{len(cp['chain'])} nodes "
            f"({cp['critical_fraction_of_wall']:.1%} of wall); "
            f"serial {cp['serial_seconds']:.4f}s; "
            f"perfect speedup {cp['perfect_speedup']:.2f}x"
        )
        for link in cp["chain"][:top]:
            lines.append(
                f"  node[{link['nid']}] {link['name']:<28} "
                f"{link['seconds']:.4f}s ({link['share']:.1%} of path)"
            )
        if len(cp["chain"]) > top:
            lines.append(f"  ... {len(cp['chain']) - top} more")
        util = p["utilization"]
        lines.append(
            f"lanes: {util['n_lanes']}  mean util {util['mean_utilization']:.1%}  "
            f"imbalance {util['imbalance']:.2f}"
        )
        for ln in util["lanes"]:
            gap = ln["longest_gaps"][0]["seconds"] if ln["longest_gaps"] else 0.0
            lines.append(
                f"  lane pid={ln['pid']} tid={ln['tid']}: {ln['n_nodes']:>3} nodes, "
                f"busy {ln['busy_seconds']:.4f}s ({ln['utilization']:.1%}), "
                f"longest gap {gap:.4f}s"
            )
        wl = util.get("worst_lane")
        if wl is not None and util["n_lanes"] > 1:
            heavy = wl["heaviest"]
            predicted = (
                f"predicted {heavy['predicted_seconds']:.4f}s"
                if heavy.get("predicted_seconds") is not None
                else "no prediction"
            )
            lines.append(
                f"  worst lane pid={wl['pid']} tid={wl['tid']}: heaviest "
                f"node[{heavy['nid']}] {heavy['name']} "
                f"measured {heavy['measured_seconds']:.4f}s, {predicted}"
            )
        eq1 = p["eq1"]
        if eq1["verdict"] == "insufficient-data":
            lines.append("eq1: insufficient data")
        else:
            lines.append(
                f"eq1: {eq1['verdict']} (R2 {eq1['r2']:.3f}, median |rel| "
                f"{eq1['median_abs_rel']:.1%}, scale {eq1['scale']:.3g})"
            )
            for r in eq1["worst"][:top]:
                lines.append(
                    f"  node[{r['nid']}] measured {r['measured']:.4f}s vs "
                    f"predicted {r['predicted']:.4f}s (rel {r['rel']:.1%})"
                )
    return "\n".join(lines)
