"""Tests for the capacity planner (repro.obs.planner).

Covers: asg-sim confidence-interval semantics (cost_ci / compare_cis),
the list-scheduling simulator on synthetic DAGs with closed-form
answers (a chain parallelizes not at all; a perfect binary tree has a
known makespan at every worker count), plan_report's bounds/trials/CI
behavior, knee recommendation, dollar-cost curve shape, plan.json
schema validation, the prediction-vs-measured acceptance gate (a
single-worker ribosome-topology trace must predict an independently
scheduled 4-worker trace's makespan within 30%), the doctor's tracer
self-cost surfacing, and the ``repro obs plan`` CLI.
"""

import json

import numpy as np
import pytest

from repro import obs
from repro.cli import main
from repro.errors import TraceAnalysisError
from repro.machine.costmodel import FleetCostModel, SimulationError
from repro.obs import planner
from repro.obs.tracer import Span, Tracer
from repro.obs.validate import validate_plan_json


def _add_span(tracer, name, start, end, *, cat="solve", attrs=None,
              parent=None, pid=1, tid=1):
    sp = Span(
        name=name,
        cat=cat,
        start=float(start),
        end=float(end),
        attrs=dict(attrs or {}),
        span_id=tracer._new_id(),
        parent_id=parent,
        pid=pid,
        tid=tid,
    )
    tracer.spans.append(sp)
    return sp


def _serial_trace(costs, edges):
    """One-lane trace: node spans tiled back to back inside one cycle.

    Node attrs carry only nid/parent_nid (no Equation-1 attributes), so
    the planner falls back to its gaussian noise model.
    """
    tracer = Tracer()
    total = sum(costs.values())
    cycle = _add_span(tracer, "cycle", 0.0, total, attrs={"cycle": 0})
    t = 0.0
    for nid in sorted(costs):
        _add_span(
            tracer, f"node[{nid}]", t, t + costs[nid],
            attrs={"nid": nid, "parent_nid": edges.get(nid, -1)},
            parent=cycle.span_id,
        )
        t += costs[nid]
    return tracer


# chain 0 <- 1 <- 2 <- 3 (leaf 0 first): no parallelism at all
CHAIN_COSTS = {0: 1.0, 1: 2.0, 2: 1.0, 3: 3.0}
CHAIN_EDGES = {0: 1, 1: 2, 2: 3, 3: -1}

# perfect binary tree, 7 unit-cost nodes: leaves 3..6, mids 1..2, root 0
TREE_COSTS = {nid: 1.0 for nid in range(7)}
TREE_EDGES = {3: 1, 4: 1, 5: 2, 6: 2, 1: 0, 2: 0, 0: -1}


class TestCostCI:
    def test_matches_normal_approximation(self):
        samples = [1.0, 2.0, 3.0, 4.0]
        lo, hi = planner.cost_ci(samples, 95)
        mean = np.mean(samples)
        half = 1.96 * np.std(samples, ddof=1) / np.sqrt(4)
        assert (lo, hi) == pytest.approx((mean - half, mean + half))

    def test_single_sample_zero_width(self):
        assert planner.cost_ci([2.5]) == (2.5, 2.5)

    def test_wider_levels_are_wider(self):
        samples = list(range(10))
        w95 = np.diff(planner.cost_ci(samples, 95))[0]
        w999 = np.diff(planner.cost_ci(samples, 99.9))[0]
        assert w999 > w95

    def test_unsupported_percent_and_empty(self):
        with pytest.raises(ValueError):
            planner.cost_ci([1.0], 90)
        with pytest.raises(ValueError):
            planner.cost_ci([])

    def test_compare_cis(self):
        assert planner.compare_cis((0.0, 1.0), (2.0, 3.0)) == 1
        assert planner.compare_cis((2.0, 3.0), (0.0, 1.0)) == -1
        assert planner.compare_cis((0.0, 2.0), (1.0, 3.0)) == 0


class TestSimulateSchedule:
    def test_chain_has_no_parallelism(self):
        serial = sum(CHAIN_COSTS.values())
        for w in (1, 2, 4, 16):
            sim = planner.simulate_schedule(CHAIN_COSTS, CHAIN_EDGES, w)
            assert sim["makespan_seconds"] == pytest.approx(serial)
        assert planner.simulate_schedule(CHAIN_COSTS, CHAIN_EDGES, 4)[
            "utilization"
        ] == pytest.approx(0.25)

    def test_binary_tree_closed_form(self):
        # 7 unit tasks: w=1 -> 7; w=2 -> leaves in 2 rounds (2), mids
        # together (1), root (1) = 4; w=4 -> level per step = 3
        for w, expect in [(1, 7.0), (2, 4.0), (4, 3.0), (8, 3.0)]:
            sim = planner.simulate_schedule(TREE_COSTS, TREE_EDGES, w)
            assert sim["makespan_seconds"] == pytest.approx(expect), w
        sim4 = planner.simulate_schedule(TREE_COSTS, TREE_EDGES, 4)
        assert sim4["utilization"] == pytest.approx(7.0 / 12.0)

    def test_independent_tasks_longest_first(self):
        # Ready tasks go out by descending rank: 3+2 / 3+2 is the optimal
        # split, and the 2 s task starts before the two 1 s tasks (nid
        # order would finish at 3 s).
        for costs, expect in [
            ({0: 3.0, 1: 3.0, 2: 2.0, 3: 2.0}, 5.0),
            ({0: 1.0, 1: 1.0, 2: 2.0}, 2.0),
        ]:
            edges = {nid: -1 for nid in costs}
            sim = planner.simulate_schedule(costs, edges, 2)
            assert sim["makespan_seconds"] == pytest.approx(expect)

    def test_bracketed_by_critical_path_and_serial(self):
        rng = np.random.default_rng(5)
        costs = {nid: float(rng.uniform(0.5, 2.0)) for nid in range(7)}
        cp = planner.PlannerInput(
            label="x", backend=None, wall_seconds=1.0, n_lanes=1,
            costs=costs, edges=TREE_EDGES,
        ).critical_path_seconds
        serial = sum(costs.values())
        for w in (1, 2, 3, 4, 16):
            m = planner.simulate_schedule(costs, TREE_EDGES, w)["makespan_seconds"]
            assert cp - 1e-12 <= m <= serial + 1e-12

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            planner.simulate_schedule(TREE_COSTS, TREE_EDGES, 0)
        with pytest.raises(TraceAnalysisError):
            planner.simulate_schedule({}, {}, 1)
        with pytest.raises(TraceAnalysisError, match="cycle"):
            planner.simulate_schedule({0: 1.0, 1: 1.0}, {0: 1, 1: 0}, 2)


class TestPlanReport:
    @pytest.fixture
    def tree_trace(self):
        return _serial_trace(TREE_COSTS, TREE_EDGES)

    def test_predictions_within_bounds(self, tree_trace):
        plan = obs.plan_report(tree_trace, workers=[1, 2, 4, 8], seed=0)
        b = plan["bounds"]
        assert b["critical_path_seconds"] == pytest.approx(3.0)
        assert b["serial_seconds"] == pytest.approx(7.0)
        for e in plan["predictions"]:
            assert (
                b["critical_path_seconds"] - 1e-9
                <= e["makespan_seconds"]
                <= b["serial_seconds"] + 1e-9
            )
        assert validate_plan_json(plan) == []

    def test_default_trials_at_least_twenty(self, tree_trace):
        plan = obs.plan_report(tree_trace, workers=[1, 2])
        assert plan["trials"] >= 20

    def test_ci_width_shrinks_with_more_trials(self, tree_trace):
        def width(trials):
            plan = obs.plan_report(
                tree_trace, workers=[2], trials=trials, seed=0
            )
            lo, hi = plan["predictions"][0]["makespan_ci"]
            return hi - lo

        # same gaussian noise model, 16x the trials: ~4x narrower
        assert width(320) < width(5)

    def test_compare_cis_ordering_stable_across_seeds(self, tree_trace):
        for seed in (0, 1, 2, 3):
            plan = obs.plan_report(
                tree_trace, workers=[1, 4], trials=30, seed=seed
            )
            one, four = plan["predictions"]
            assert planner.compare_cis(
                tuple(four["makespan_ci"]), tuple(one["makespan_ci"])
            ) == 1, seed

    def test_recommendation_finds_the_knee(self, tree_trace):
        plan = obs.plan_report(
            tree_trace, workers=[1, 2, 4, 8], trials=30, seed=0, knee=0.1
        )
        rec = plan["recommendation"]
        # beyond 4 workers the tree has no level wider than 4: the 4->8
        # marginal speedup is exactly zero, under any knee threshold
        assert rec["workers"] == 4
        assert rec["marginal_gain"] < 0.1
        assert "wants 4 workers" in rec["statement"]
        assert len(rec["marginal_gains"]) == 3

    def test_chain_recommends_one_worker(self):
        trace = _serial_trace(CHAIN_COSTS, CHAIN_EDGES)
        plan = obs.plan_report(trace, workers=[1, 2, 4], trials=30, seed=0)
        assert plan["recommendation"]["workers"] == 1
        for e in plan["predictions"]:
            assert e["speedup"] == pytest.approx(1.0)

    def test_cost_curve_has_a_minimum(self, tree_trace):
        fleet = FleetCostModel(worker_hour_dollars=0.1, makespan_hour_dollars=50.0)
        plan = obs.plan_report(
            tree_trace, workers=[1, 4, 64], seed=0, fleet_cost=fleet
        )
        costs = {e["workers"]: e["cost_dollars"] for e in plan["predictions"]}
        # 4 workers: shorter run than 1, idle-fleet tax smaller than 64
        assert costs[4] < costs[1]
        assert costs[4] < costs[64]

    def test_self_validation_exact_on_tiled_trace(self, tree_trace):
        # spans tile the cycle exactly, so re-simulating at 1 lane
        # reproduces the measured wall to within float error
        plan = obs.plan_report(tree_trace, workers=[1, 2], seed=0)
        v = plan["validation"][0]
        assert v["kind"] == "self" and v["workers"] == 1
        assert v["rel_error"] < 1e-9 and v["within"]

    def test_bad_arguments(self, tree_trace):
        with pytest.raises(ValueError):
            obs.plan_report(tree_trace, workers=[])
        with pytest.raises(ValueError):
            obs.plan_report(tree_trace, workers=[0, 2])
        with pytest.raises(ValueError):
            obs.plan_report(tree_trace, workers=[1], trials=0)


class TestFleetCostModel:
    def test_pricing_formula(self):
        fleet = FleetCostModel(worker_hour_dollars=1.0, makespan_hour_dollars=10.0)
        # 4 workers for half an hour: 4*0.5*1 + 0.5*10
        assert fleet.run_cost(4, 1800.0) == pytest.approx(7.0)

    def test_rejects_empty_fleet(self):
        with pytest.raises(SimulationError):
            FleetCostModel().run_cost(0, 10.0)


class TestValidatePlanJson:
    @pytest.fixture
    def plan(self):
        return obs.plan_report(
            _serial_trace(TREE_COSTS, TREE_EDGES), workers=[1, 2, 4], seed=0
        )

    def test_accepts_real_plan(self, plan):
        assert validate_plan_json(plan) == []

    def test_rejects_breakage(self, plan):
        bad = json.loads(json.dumps(plan))
        bad["predictions"][0]["makespan_seconds"] = 99.0  # above serial
        assert validate_plan_json(bad)
        bad = json.loads(json.dumps(plan))
        bad["predictions"][0]["workers"] = 3  # non-increasing counts
        assert validate_plan_json(bad)
        bad = json.loads(json.dumps(plan))
        bad["trials"] = 0
        assert validate_plan_json(bad)
        assert validate_plan_json({"plan_version": 2})
        assert validate_plan_json([])


def _ribosome_hierarchy_edges():
    from repro.molecules.ribosome import build_ribo30s

    problem = build_ribo30s(seed=0)
    return {
        n.nid: -1 if n.parent is None else n.parent.nid
        for n in problem.hierarchy.nodes
    }


class TestAcceptanceRibosome:
    """ISSUE acceptance: a 1-worker ribosome trace predicts the 4-worker
    traced makespan within 30%."""

    @pytest.fixture(scope="class")
    def ribo(self):
        edges = _ribosome_hierarchy_edges()
        rng = np.random.default_rng(7)
        costs = {
            nid: float(rng.uniform(0.004, 0.012)) for nid in sorted(edges)
        }
        return costs, edges

    def test_one_worker_trace_predicts_four_worker_makespan(self, ribo):
        costs, edges = ribo
        single = _serial_trace(costs, edges)
        plan = obs.plan_report(single, workers=[1, 2, 4], trials=20, seed=0)

        # Independently synthesize the 4-worker run: greedy earliest-free
        # lane packing in dependency order (not the planner's rank-based
        # event loop) with ±5% per-node cost jitter.
        rng = np.random.default_rng(1)
        jittered = {
            nid: sec * float(rng.uniform(0.95, 1.05))
            for nid, sec in costs.items()
        }
        measured = Tracer()
        cycle = _add_span(measured, "cycle", 0.0, 1.0, attrs={"cycle": 0})
        lanes = [0.0, 0.0, 0.0, 0.0]
        for nid in planner._dependency_order(jittered, edges):
            lane = int(np.argmin(lanes))
            start = lanes[lane]
            lanes[lane] = start + jittered[nid]
            _add_span(
                measured, f"node[{nid}]", start, lanes[lane],
                attrs={"nid": nid, "parent_nid": edges.get(nid, -1)},
                parent=cycle.span_id, pid=1, tid=lane + 1,
            )
        measured.spans[0].end = max(lanes)  # cycle wall = last lane busy

        v = obs.validate_prediction(plan, measured, trace="synthetic-4w")
        assert v["workers"] == 4
        assert v["rel_error"] < 0.30, v
        assert v["within"]
        plan["validation"].append(v)
        assert validate_plan_json(plan) == []

    def test_recommend_names_a_knee_count(self, ribo):
        costs, edges = ribo
        plan = obs.plan_report(
            _serial_trace(costs, edges),
            workers=[1, 2, 4, 8, 16],
            trials=25,
            seed=0,
        )
        rec = plan["recommendation"]
        assert rec["workers"] in (1, 2, 4, 8, 16)
        if rec["knee_found"]:
            # the named count's next step is below the knee or unresolved
            assert (
                rec["marginal_gain"] < rec["knee_threshold"]
                or not rec["marginal_gain_significant"]
            )
            assert "workers; adding more buys" in rec["statement"]
        else:
            # wide hierarchy: every planned step still paid
            assert rec["workers"] == 16
            assert "still scales" in rec["statement"]


class TestOverheadDiscount:
    def test_overhead_shrinks_costs(self):
        trace = _serial_trace(TREE_COSTS, TREE_EDGES)
        trace.overhead_seconds = 0.7  # 10% of the 7s of node work
        inp = obs.planner_input(trace)
        assert inp.overhead_discount < 1.0
        assert inp.serial_seconds < 7.0
        undiscounted = obs.planner_input(trace, discount_overhead=False)
        assert undiscounted.serial_seconds == pytest.approx(7.0)

    def test_doctor_surfaces_self_cost(self):
        trace = _serial_trace(TREE_COSTS, TREE_EDGES)
        trace.overhead_seconds = 0.5
        report = obs.doctor_report(trace)
        assert report["obs_overhead_seconds"] == 0.5
        assert any("tracer self-cost" in v for v in report["verdicts"])


class TestPlannerCLI:
    @pytest.fixture
    def trace_file(self, tmp_path):
        path = tmp_path / "tree.jsonl"
        obs.write_spans_jsonl(_serial_trace(TREE_COSTS, TREE_EDGES), path)
        return str(path)

    def test_plan_command(self, trace_file, tmp_path, capsys):
        out = tmp_path / "plan.json"
        rc = main([
            "obs", "plan", trace_file, "--workers", "1,2,4,8",
            "--trials", "20", "--recommend", "--out", str(out),
        ])
        assert rc == 0
        text = capsys.readouterr().out
        assert "capacity plan" in text
        assert "recommendation: this workload wants 4 workers" in text
        plan = json.loads(out.read_text())
        assert validate_plan_json(plan) == []
        assert plan["recommendation"]["workers"] == 4

    def test_plan_measured_validation(self, trace_file, tmp_path):
        # a second copy of the same serial trace is a measured 1-worker
        # run; the prediction at 1 worker matches it exactly
        rc = main([
            "obs", "plan", trace_file, "--workers", "1,2",
            "--measured", f"1:{trace_file}",
        ])
        assert rc == 0

    def test_plan_drift_gate_fails(self, trace_file, tmp_path):
        # an absurd drift budget of 0 trips on any noise; the tiled
        # synthetic trace is exact, so tighten against a doctored copy
        doctored = Tracer()
        cycle = _add_span(doctored, "cycle", 0.0, 100.0, attrs={"cycle": 0})
        t = 0.0
        for nid in sorted(TREE_COSTS):
            _add_span(
                doctored, f"node[{nid}]", t, t + 1.0,
                attrs={"nid": nid, "parent_nid": TREE_EDGES.get(nid, -1)},
                parent=cycle.span_id,
            )
            t += 1.0
        path = tmp_path / "slow.jsonl"  # wall 100s but only 7s of work
        obs.write_spans_jsonl(doctored, path)
        rc = main(["obs", "plan", str(path), "--workers", "1,2",
                   "--max-drift", "0.3"])
        assert rc == 1

    def test_plan_json_validator_cli(self, trace_file, tmp_path, capsys):
        out = tmp_path / "plan.json"
        assert main(["obs", "plan", trace_file, "--workers", "1,2",
                     "--out", str(out)]) == 0
        from repro.obs import validate as vmod

        assert vmod.main([str(out)]) == 0
        assert "valid plan" in capsys.readouterr().out
