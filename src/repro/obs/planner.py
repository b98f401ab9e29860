"""Capacity planning: predict latency/cost at any fleet size from one trace.

:mod:`repro.obs.analysis` answers "what did this solve do?"; this module
answers "what would it do on N workers?".  From a single traced workload
— spans JSONL or Chrome trace, any backend — it reconstructs the
node-dependency DAG and per-node costs the node spans already carry
(``state_dim``/``rows``/``batch_size``/``parent_nid``), then runs a
deterministic **list-scheduling simulation** of that DAG on a
hypothetical fleet of ``w`` homogeneous workers: tasks become ready when
their children finish, ready tasks go to free workers longest-remaining-
chain first (HEFT-style upward rank), and no worker idles while work is
ready.  The simulated makespan is bracketed by construction between the
critical-path lower bound and the serial upper bound.

Predictions are probabilistic, asg-sim style: each of ``trials``
repeated runs perturbs every node cost by a factor resampled from the
observed Equation-1 residual distribution
(:func:`repro.core.workmodel.drift_report`'s signed relative residuals —
the empirical "how wrong are per-node cost estimates on this host"
noise), all worker counts share each trial's perturbed cost vector
(paired samples), and the per-worker-count makespan/cost distributions
are summarized with :func:`cost_ci` 95% intervals and ordered with
:func:`compare_cis`.  Dollar cost prices each simulated run through
:class:`repro.machine.costmodel.FleetCostModel`.

The headline is the knee recommendation: the smallest worker count
whose predicted marginal speedup from adding more workers falls below
the configured threshold — "this workload wants N workers; adding more
buys <X%".  :func:`self_validation` closes the loop against reality:
re-simulating the trace at its own lane count must land within a drift
budget of the measured wall time, which is the prediction-vs-measured
gate CI enforces with ``repro obs plan --max-drift``.  Predictions at
other fleet sizes are diagnostic only: they assume node seconds do not
change with the fleet and that dispatch and transfer cost nothing.

Everything here is strictly post-hoc and off the solve path.
"""

from __future__ import annotations

import heapq
import math
from collections import deque
from dataclasses import dataclass, field

import numpy as np

from repro.core.workmodel import WorkModel
from repro.errors import TraceAnalysisError
from repro.machine.costmodel import FleetCostModel
from repro.obs.analysis import SolvePass, dag_edges, eq1_drift, solve_passes
from repro.obs.tracer import Tracer

#: Normal-approximation z-scores, as in asg-sim's cost.py.
Z_SCORES = {95: 1.96, 99: 2.58, 99.5: 2.81, 99.9: 3.29}

DEFAULT_TRIALS = 20
DEFAULT_KNEE = 0.10
DEFAULT_MAX_DRIFT = 0.30
#: Gaussian noise width used when the trace carries too few Equation-1
#: residuals to resample an empirical distribution.
FALLBACK_SIGMA = 0.10
#: Floor on a perturbed cost factor: noise never erases a task.
MIN_COST_FACTOR = 0.05


# ----------------------------------------------------- confidence intervals
def cost_ci(results, percent: float = 95) -> tuple[float, float]:
    """Normal-approximation CI of the sample mean (asg-sim semantics).

    ``mean ± z·s/√n`` with the sample standard deviation; a single
    sample has no spread estimate and returns a zero-width interval.
    """
    z = Z_SCORES.get(percent)
    if z is None:
        raise ValueError(
            f"unsupported CI percent {percent}; choose from {sorted(Z_SCORES)}"
        )
    arr = np.asarray(list(results), dtype=np.float64)
    if arr.size == 0:
        raise ValueError("cost_ci needs at least one sample")
    mean = float(arr.mean())
    if arr.size == 1:
        return (mean, mean)
    spread = z * float(arr.std(ddof=1)) / math.sqrt(arr.size)
    return (mean - spread, mean + spread)


def compare_cis(a: tuple[float, float], b: tuple[float, float]) -> int:
    """1 if interval ``a`` lies wholly below ``b``, -1 if wholly above, else 0."""
    if a[1] < b[0]:
        return 1
    if b[1] < a[0]:
        return -1
    return 0


# ------------------------------------------------------------ planner input
@dataclass
class PlannerInput:
    """One traced solver pass reduced to what the simulator needs."""

    label: str
    backend: str | None
    wall_seconds: float
    n_lanes: int
    costs: dict[int, float]  # nid -> seconds (overhead-discounted)
    edges: dict[int, int]  # nid -> parent nid (root -> -1)
    residual_rels: list[float] = field(default_factory=list)
    noise_source: str = "default-sigma"
    obs_overhead_seconds: float = 0.0
    overhead_discount: float = 1.0

    @property
    def serial_seconds(self) -> float:
        return sum(self.costs.values())

    @property
    def critical_path_seconds(self) -> float:
        """Longest cost-weighted leaf→root chain (makespan lower bound)."""
        finish: dict[int, float] = {}
        for nid in _dependency_order(self.costs, self.edges):
            finish[nid] = self.costs[nid] + max(
                (finish[k] for k in _children(self.costs, self.edges).get(nid, ())),
                default=0.0,
            )
        return max(finish.values(), default=0.0)


def _children(costs: dict[int, float], edges: dict[int, int]) -> dict[int, list[int]]:
    children: dict[int, list[int]] = {}
    for nid in costs:
        parent = edges.get(nid, -1)
        if parent in costs:
            children.setdefault(parent, []).append(nid)
    return children


def _dependency_order(
    costs: dict[int, float], edges: dict[int, int]
) -> list[int]:
    """Node ids children-before-parents; raises on a dependency cycle."""
    pending = {nid: 0 for nid in costs}
    for nid in costs:
        parent = edges.get(nid, -1)
        if parent in pending:
            pending[parent] += 1
    queue = deque(sorted(n for n, deps in pending.items() if deps == 0))
    order: list[int] = []
    while queue:
        nid = queue.popleft()
        order.append(nid)
        parent = edges.get(nid, -1)
        if parent in pending:
            pending[parent] -= 1
            if pending[parent] == 0:
                queue.append(parent)
    if len(order) != len(costs):
        stuck = sorted(set(costs) - set(order))
        raise TraceAnalysisError(
            f"dependency cycle through nodes {stuck[:8]}; trace DAG is corrupt"
        )
    return order


def _anchor_pass(passes: list[SolvePass], pass_index: int | None) -> SolvePass:
    if pass_index is not None:
        return passes[pass_index]
    full = [p for p in passes if p.label.startswith("cycle")]
    return full[0] if full else passes[0]


def planner_input(
    tracer: Tracer,
    hierarchy=None,
    model: WorkModel | None = None,
    pass_index: int | None = None,
    discount_overhead: bool = True,
) -> PlannerInput:
    """Reduce a traced solve to simulator inputs.

    The anchor pass is the first full ``cycle`` (matching the doctor's
    verdicts) unless ``pass_index`` picks another.  When the tracer
    carries record self-cost (``overhead_seconds``), the anchor's share
    of it — proportional to its share of trace records — is discounted
    uniformly out of the node costs, so tracing overhead does not
    inflate the predicted work.
    """
    passes = solve_passes(tracer)
    edges = dag_edges(passes, hierarchy)
    p = _anchor_pass(passes, pass_index)
    costs = {nid: stat.seconds for nid, stat in p.nodes.items()}
    serial = sum(costs.values())
    discount = 1.0
    if discount_overhead and tracer.overhead_seconds > 0 and serial > 0:
        n_records = len(tracer.spans) + len(tracer.instants)
        in_pass = sum(1 for sp in tracer.spans if p.start <= sp.start <= p.end)
        share = in_pass / n_records if n_records else 0.0
        pass_overhead = tracer.overhead_seconds * share
        discount = max(0.0, 1.0 - pass_overhead / serial)
        costs = {nid: sec * discount for nid, sec in costs.items()}
    drift = eq1_drift(p, model)
    rels = [float(r["rel_signed"]) for r in drift.get("residuals", [])]
    return PlannerInput(
        label=p.label,
        backend=p.backend,
        wall_seconds=p.wall_seconds,
        n_lanes=len({stat.lane for stat in p.nodes.values()}),
        costs=costs,
        edges=edges,
        residual_rels=rels,
        noise_source="eq1-residuals" if len(rels) >= 4 else "default-sigma",
        obs_overhead_seconds=tracer.overhead_seconds,
        overhead_discount=discount,
    )


# ------------------------------------------------------------ the simulator
def simulate_schedule(
    costs: dict[int, float],
    edges: dict[int, int],
    workers: int,
) -> dict:
    """Greedy list-scheduling of the node DAG on ``workers`` workers.

    A node is ready once every child has finished; ready nodes are
    assigned to free workers by descending upward rank (node cost plus
    the cost of its chain to the root — the longest-remaining-work
    heuristic), ties broken by node id for determinism.  Returns the
    makespan, fleet utilization, and per-node latency (ready → finish,
    i.e. queueing plus service) percentiles.
    """
    if workers < 1:
        raise ValueError(f"need at least one worker, got {workers}")
    if not costs:
        raise TraceAnalysisError("no traced node costs to schedule")
    children = _children(costs, edges)
    order = _dependency_order(costs, edges)
    # Upward rank flows root → leaf: rank(n) = cost(n) + rank(parent).
    rank: dict[int, float] = {}
    for nid in reversed(order):
        parent = edges.get(nid, -1)
        rank[nid] = costs[nid] + rank.get(parent, 0.0)
    pending = {nid: len(children.get(nid, ())) for nid in costs}
    ready = [(-rank[nid], nid) for nid, deps in pending.items() if deps == 0]
    heapq.heapify(ready)
    ready_time = {nid: 0.0 for _, nid in ready}
    free = workers
    completions: list[tuple[float, int]] = []
    finish: dict[int, float] = {}
    now = 0.0
    while ready or completions:
        while ready and free:
            _, nid = heapq.heappop(ready)
            free -= 1
            heapq.heappush(completions, (now + costs[nid], nid))
        fin, nid = heapq.heappop(completions)
        now = fin
        free += 1
        finish[nid] = fin
        parent = edges.get(nid, -1)
        if parent in pending:
            pending[parent] -= 1
            if pending[parent] == 0:
                ready_time[parent] = now
                heapq.heappush(ready, (-rank[parent], parent))
    total = sum(costs.values())
    latencies = np.array([finish[nid] - ready_time[nid] for nid in costs])
    p50, p99 = (
        (float(np.percentile(latencies, 50)), float(np.percentile(latencies, 99)))
        if latencies.size
        else (0.0, 0.0)
    )
    return {
        "workers": workers,
        "makespan_seconds": now,
        "utilization": total / (workers * now) if now > 0 else 0.0,
        "p50_node_latency_seconds": p50,
        "p99_node_latency_seconds": p99,
    }


def _perturbed(
    costs: dict[int, float],
    rels: list[float],
    rng: np.random.Generator,
) -> dict[int, float]:
    """One noisy trial's cost vector: empirical residual resampling."""
    n = len(costs)
    if len(rels) >= 4:
        factors = 1.0 + rng.choice(np.asarray(rels, dtype=np.float64), size=n)
    else:
        factors = 1.0 + FALLBACK_SIGMA * rng.standard_normal(n)
    factors = np.maximum(factors, MIN_COST_FACTOR)
    return {nid: sec * f for (nid, sec), f in zip(sorted(costs.items()), factors)}


# --------------------------------------------------------------- the planner
def plan_report(
    tracer: Tracer,
    workers: list[int],
    hierarchy=None,
    model: WorkModel | None = None,
    trials: int = DEFAULT_TRIALS,
    seed: int = 0,
    ci_percent: float = 95,
    fleet_cost: FleetCostModel | None = None,
    knee: float = DEFAULT_KNEE,
    discount_overhead: bool = True,
    pass_index: int | None = None,
    max_drift: float = DEFAULT_MAX_DRIFT,
) -> dict:
    """Predict makespan/latency/utilization/cost at each fleet size.

    Returns the JSON-ready ``plan.json`` document: per-worker-count
    point predictions (unperturbed costs) with CIs over ``trials``
    noisy runs, the bounds envelope, the knee recommendation, and a
    self-validation entry comparing the prediction at the trace's own
    lane count against its measured wall time.
    """
    if trials < 1:
        raise ValueError(f"need at least one trial, got {trials}")
    counts = sorted({int(w) for w in workers})
    if not counts or counts[0] < 1:
        raise ValueError(f"worker counts must be positive, got {workers}")
    inp = planner_input(
        tracer,
        hierarchy=hierarchy,
        model=model,
        pass_index=pass_index,
        discount_overhead=discount_overhead,
    )
    fleet = fleet_cost if fleet_cost is not None else FleetCostModel()
    point = {w: simulate_schedule(inp.costs, inp.edges, w) for w in counts}
    rng = np.random.default_rng(seed)
    makespans: dict[int, list[float]] = {w: [] for w in counts}
    for _ in range(trials):
        trial_costs = _perturbed(inp.costs, inp.residual_rels, rng)
        for w in counts:
            makespans[w].append(
                simulate_schedule(trial_costs, inp.edges, w)["makespan_seconds"]
            )
    base = counts[0]
    predictions = []
    for w in counts:
        samples = makespans[w]
        costs_d = [fleet.run_cost(w, m) for m in samples]
        mk_ci = cost_ci(samples, ci_percent)
        speedups = [b / m for b, m in zip(makespans[base], samples)]
        predictions.append(
            {
                **point[w],
                "makespan_ci": [mk_ci[0], mk_ci[1]],
                "speedup": point[base]["makespan_seconds"]
                / point[w]["makespan_seconds"],
                "speedup_ci": list(cost_ci(speedups, ci_percent)),
                "cost_dollars": fleet.run_cost(w, point[w]["makespan_seconds"]),
                "cost_ci": list(cost_ci(costs_d, ci_percent)),
            }
        )
    return {
        "plan_version": 1,
        "source": {
            "label": inp.label,
            "backend": inp.backend,
            "n_lanes": inp.n_lanes,
            "wall_seconds": inp.wall_seconds,
            "n_nodes": len(inp.costs),
            "obs_overhead_seconds": inp.obs_overhead_seconds,
            "overhead_discount": inp.overhead_discount,
        },
        "bounds": {
            "critical_path_seconds": inp.critical_path_seconds,
            "serial_seconds": inp.serial_seconds,
            "perfect_speedup": (
                inp.serial_seconds / inp.critical_path_seconds
                if inp.critical_path_seconds > 0
                else 1.0
            ),
        },
        "noise": {
            "source": inp.noise_source,
            "n_residuals": len(inp.residual_rels),
            "fallback_sigma": FALLBACK_SIGMA,
        },
        "trials": int(trials),
        "seed": int(seed),
        "ci_percent": float(ci_percent),
        "cost_model": {
            "worker_hour_dollars": fleet.worker_hour_dollars,
            "makespan_hour_dollars": fleet.makespan_hour_dollars,
        },
        "predictions": predictions,
        "recommendation": _recommend(predictions, makespans, knee, ci_percent),
        "validation": [self_validation(inp, max_drift=max_drift)],
    }


def _recommend(
    predictions: list[dict],
    makespans: dict[int, list[float]],
    knee: float,
    ci_percent: float,
) -> dict:
    """Knee finding: the first fleet size where growing it stops paying.

    The marginal speedup from ``w_i`` to ``w_{i+1}`` is the mean paired
    per-trial ratio minus one; the recommendation is the smallest count
    whose next step's gain falls below ``knee`` *or* whose makespan CI
    overlaps the next one's (``compare_cis`` says the improvement is not
    statistically resolvable).  If every step pays, the largest planned
    count is recommended with its own last marginal gain.
    """
    marginal = []
    pick = predictions[-1]
    pick_gain, pick_gain_ci, pick_significant = 0.0, (0.0, 0.0), False
    chosen = False
    for cur, nxt in zip(predictions, predictions[1:]):
        w_cur, w_nxt = cur["workers"], nxt["workers"]
        ratios = [
            a / b - 1.0 for a, b in zip(makespans[w_cur], makespans[w_nxt])
        ]
        gain_ci = cost_ci(ratios, ci_percent)
        gain = float(np.mean(ratios))
        significant = (
            compare_cis(tuple(nxt["makespan_ci"]), tuple(cur["makespan_ci"])) == 1
        )
        marginal.append(
            {
                "from_workers": w_cur,
                "to_workers": w_nxt,
                "gain": gain,
                "gain_ci": list(gain_ci),
                "significant": significant,
            }
        )
        if not chosen and (gain < knee or not significant):
            pick, pick_gain, pick_gain_ci = cur, gain, gain_ci
            pick_significant = significant
            chosen = True
    if not chosen and marginal:
        last = marginal[-1]
        pick_gain, pick_gain_ci = last["gain"], tuple(last["gain_ci"])
        pick_significant = last["significant"]
    half = (pick_gain_ci[1] - pick_gain_ci[0]) / 2.0
    if chosen or not marginal:
        statement = (
            f"this workload wants {pick['workers']} workers; adding more "
            f"buys <{max(pick_gain, 0.0):.1%} ± {half:.1%}"
        )
    else:
        # Every planned step still paid: the knee lies beyond the range.
        statement = (
            f"this workload still scales at {pick['workers']} workers "
            f"(last marginal gain {pick_gain:.1%} ± {half:.1%}); plan "
            f"beyond {pick['workers']} to find the knee"
        )
    return {
        "workers": pick["workers"],
        "knee_threshold": float(knee),
        "knee_found": bool(chosen or not marginal),
        "marginal_gain": pick_gain,
        "marginal_gain_ci": list(pick_gain_ci),
        "marginal_gain_significant": pick_significant,
        "marginal_gains": marginal,
        "statement": statement,
    }


# -------------------------------------------------- prediction vs measured
def self_validation(
    inp: PlannerInput, max_drift: float = DEFAULT_MAX_DRIFT
) -> dict:
    """Simulate the trace at its own lane count vs its measured wall time.

    This is the honesty gate: if the list-scheduling model cannot
    reproduce the configuration it watched, its extrapolations to other
    fleet sizes are not to be trusted.  ``rel_error`` is relative to the
    measured wall; ``within`` applies ``max_drift``.
    """
    predicted = simulate_schedule(inp.costs, inp.edges, max(1, inp.n_lanes))
    wall = inp.wall_seconds
    err = (
        abs(predicted["makespan_seconds"] - wall) / wall if wall > 0 else 0.0
    )
    return {
        "kind": "self",
        "workers": max(1, inp.n_lanes),
        "predicted_makespan_seconds": predicted["makespan_seconds"],
        "measured_wall_seconds": wall,
        "rel_error": err,
        "max_drift": float(max_drift),
        "within": bool(err <= max_drift),
    }


def validate_prediction(
    plan: dict,
    measured: Tracer,
    hierarchy=None,
    max_drift: float = DEFAULT_MAX_DRIFT,
    trace: str | None = None,
) -> dict:
    """Compare a plan's prediction against an independently traced run.

    ``measured`` is a trace of the *same workload* recorded at some
    worker count (its lane count); the plan's predicted makespan at that
    count — interpolated by re-simulation when the count was not
    planned — is judged against the measured pass wall time.
    """
    passes = solve_passes(measured)
    p = _anchor_pass(passes, None)
    workers = max(1, len({stat.lane for stat in p.nodes.values()}))
    predicted = next(
        (
            e["makespan_seconds"]
            for e in plan["predictions"]
            if e["workers"] == workers
        ),
        None,
    )
    if predicted is None:
        inp = planner_input(measured, hierarchy=hierarchy)
        predicted = simulate_schedule(inp.costs, inp.edges, workers)[
            "makespan_seconds"
        ]
    wall = p.wall_seconds
    err = abs(predicted - wall) / wall if wall > 0 else 0.0
    return {
        "kind": "measured",
        "trace": trace,
        "workers": workers,
        "predicted_makespan_seconds": predicted,
        "measured_wall_seconds": wall,
        "rel_error": err,
        "max_drift": float(max_drift),
        "within": bool(err <= max_drift),
    }


# ---------------------------------------------------------------- rendering
def format_plan_report(plan: dict) -> str:
    """Monospace rendering of a :func:`plan_report` document."""
    src, bounds = plan["source"], plan["bounds"]
    backend = f" backend={src['backend']}" if src["backend"] else ""
    lines = [
        f"capacity plan from {src['label']}{backend}: "
        f"{src['n_nodes']} nodes over {src['n_lanes']} lane(s), "
        f"wall {src['wall_seconds']:.4f}s",
        f"bounds: critical path {bounds['critical_path_seconds']:.4f}s <= "
        f"makespan <= serial {bounds['serial_seconds']:.4f}s "
        f"(perfect speedup {bounds['perfect_speedup']:.2f}x); "
        f"{plan['trials']} noisy trials, {plan['ci_percent']:g}% CIs, "
        f"noise from {plan['noise']['source']}",
    ]
    header = (
        f"{'workers':>7} {'makespan':>10} {'CI':>21} {'speedup':>8} "
        f"{'util':>6} {'p99 lat':>9} {'cost':>8}"
    )
    lines.append(header)
    lines.append("-" * len(header))
    for e in plan["predictions"]:
        ci = f"[{e['makespan_ci'][0]:.4f}, {e['makespan_ci'][1]:.4f}]"
        lines.append(
            f"{e['workers']:>7d} {e['makespan_seconds']:>9.4f}s {ci:>21} "
            f"{e['speedup']:>7.2f}x {e['utilization']:>6.1%} "
            f"{e['p99_node_latency_seconds']:>8.4f}s ${e['cost_dollars']:>7.4f}"
        )
    rec = plan.get("recommendation")
    if rec:
        lines.append(f"recommendation: {rec['statement']} (knee {rec['knee_threshold']:.0%})")
    for v in plan.get("validation", []):
        where = v.get("trace") or "this trace"
        mark = "ok" if v["within"] else "DRIFT"
        lines.append(
            f"validation [{mark}]: predicted "
            f"{v['predicted_makespan_seconds']:.4f}s vs measured "
            f"{v['measured_wall_seconds']:.4f}s at {v['workers']} worker(s) "
            f"({where}; rel err {v['rel_error']:.1%}, limit {v['max_drift']:.0%})"
        )
    return "\n".join(lines)
