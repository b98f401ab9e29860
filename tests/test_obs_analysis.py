"""Tests for the post-hoc trace analytics layer.

Covers: the spans-JSONL loader (exact round-trip, id preservation,
error reporting), JSONL schema validation (and its CLI), critical-path
extraction on hand-built traces with known answers,
per-lane utilization and imbalance attribution, Equation-1 drift
verdicts, the doctor's cross-backend determinism guarantee (same DAG
from serial/thread/process traces of the same problem, warm ``resolve``
passes included), its tracer self-cost verdict, and the ``repro obs``
CLI family.
"""

import json

import numpy as np
import pytest

from repro import obs
from repro.cli import main
from repro.core.hierarchy import assign_constraints
from repro.core.workmodel import WorkModel, analytic_work_model
from repro.errors import TraceAnalysisError
from repro.obs import analysis
from repro.obs.tracer import Span, Tracer
from repro.obs.validate import spans_jsonl_stats, validate_spans_jsonl
from repro.parallel import (
    ParallelHierarchicalSolver,
    ProcessExecutor,
    SerialExecutor,
    ThreadExecutor,
)

EXECUTORS = {
    "serial": SerialExecutor,
    "thread": lambda: ThreadExecutor(2),
    "process": lambda: ProcessExecutor(2),
}


@pytest.fixture
def assigned_problem(two_group_problem):
    coords, constraints, hierarchy, estimate = two_group_problem
    assign_constraints(hierarchy, constraints)
    return hierarchy, estimate


def _traced_cycle(hierarchy, estimate, backend):
    tracer = obs.Tracer()
    with EXECUTORS[backend]() as ex, obs.tracing(tracer):
        ParallelHierarchicalSolver(
            hierarchy, batch_size=4, executor=ex
        ).run_cycle(estimate)
    return tracer


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


def _node_attrs(nid, parent_nid, state_dim=12, rows=4, batch=4):
    return {
        "nid": nid,
        "parent_nid": parent_nid,
        "state_dim": state_dim,
        "rows": rows,
        "batch_size": batch,
    }


@pytest.fixture
def synthetic_tracer():
    """cycle 0..10 with a 3-node tree: leaves 0 (3s) and 1 (4s) under root 2 (2s).

    Leaf 1 runs on a second lane.  Critical path = node1 + node2 = 6s,
    serial work = 9s.
    """
    tracer = Tracer()
    cycle = _add_span(tracer, "cycle", 0.0, 10.0, attrs={"cycle": 0, "solver": "test"})
    _add_span(tracer, "node[0]", 0.0, 3.0, attrs=_node_attrs(0, 2),
              parent=cycle.span_id)
    _add_span(tracer, "node[1]", 0.0, 4.0, attrs=_node_attrs(1, 2),
              parent=cycle.span_id, pid=2, tid=7)
    _add_span(tracer, "node[2]", 4.0, 6.0, attrs=_node_attrs(2, -1),
              parent=cycle.span_id)
    return tracer


def _serial_trace(costs, edges):
    """One-lane trace: node spans tiled back to back inside one cycle.

    Node attrs carry only nid/parent_nid (no Equation-1 attributes).
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


# perfect binary tree, 7 unit-cost nodes: leaves 3..6, mids 1..2, root 0
TREE_COSTS = {nid: 1.0 for nid in range(7)}
TREE_EDGES = {3: 1, 4: 1, 5: 2, 6: 2, 1: 0, 2: 0, 0: -1}


class TestLoaders:
    def test_spans_jsonl_round_trips_exactly(self, assigned_problem, tmp_path):
        hierarchy, estimate = assigned_problem
        tracer = _traced_cycle(hierarchy, estimate, "serial")
        first = tmp_path / "first.jsonl"
        second = tmp_path / "second.jsonl"
        obs.write_spans_jsonl(tracer, first)
        loaded = obs.read_spans_jsonl(first)
        obs.write_spans_jsonl(loaded, second)
        assert first.read_bytes() == second.read_bytes()
        assert {sp.span_id for sp in loaded.spans} == {
            sp.span_id for sp in tracer.spans
        }
        assert len(loaded.instants) == len(tracer.instants)

    def test_loaded_tracer_id_allocator_advances(self, tmp_path):
        tracer = Tracer()
        _add_span(tracer, "a", 0.0, 1.0)
        path = tmp_path / "t.jsonl"
        obs.write_spans_jsonl(tracer, path)
        loaded = obs.read_spans_jsonl(path)
        taken = {sp.span_id for sp in loaded.spans}
        assert loaded._new_id() not in taken

    def test_bad_jsonl_raises_with_line_number(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"type": "span"\n')
        with pytest.raises(ValueError, match="bad.jsonl:1"):
            obs.read_spans_jsonl(path)
        path.write_text('{"type": "mystery", "name": "x"}\n')
        with pytest.raises(ValueError, match="unknown record type"):
            obs.read_spans_jsonl(path)


def _validate(rows):
    """Validate span rows as the body of a spans log (behind a meta row)."""
    return validate_spans_jsonl([{"type": "meta"}, *rows])


class TestSpansValidation:
    def _rows(self, tracer):
        return [
            {
                "type": "span", "name": sp.name, "cat": sp.cat,
                "start": sp.start, "end": sp.end, "dur": sp.duration,
                "span_id": sp.span_id, "parent_id": sp.parent_id,
                "pid": sp.pid, "tid": sp.tid, "attrs": dict(sp.attrs),
            }
            for sp in sorted(tracer.spans, key=lambda s: s.start)
        ]

    def test_valid_rows_pass(self, synthetic_tracer):
        rows = self._rows(synthetic_tracer)
        assert _validate(rows) == []
        stats = spans_jsonl_stats(rows)
        assert stats == {"lanes": 2, "spans": 4, "max_depth": 2}

    def test_duplicate_span_id(self, synthetic_tracer):
        rows = self._rows(synthetic_tracer)
        rows[1]["span_id"] = rows[0]["span_id"]
        assert any("duplicate span_id" in p for p in _validate(rows))

    def test_end_before_start(self, synthetic_tracer):
        rows = self._rows(synthetic_tracer)
        rows[-1]["end"] = rows[-1]["start"] - 1.0
        problems = _validate(rows)
        assert any("ends" in p and "before it starts" in p for p in problems)

    def test_dangling_parent(self, synthetic_tracer):
        rows = self._rows(synthetic_tracer)
        rows[1]["parent_id"] = 99999
        assert any("matches no span" in p for p in _validate(rows))

    def test_unsorted_rows(self, synthetic_tracer):
        rows = self._rows(synthetic_tracer)
        rows.reverse()
        assert any("not sorted" in p for p in _validate(rows))

    def test_partial_overlap_in_lane(self):
        tracer = Tracer()
        _add_span(tracer, "a", 0.0, 5.0)
        _add_span(tracer, "b", 3.0, 8.0)  # overlaps a, not nested
        problems = _validate(self._rows(tracer))
        assert any("partially overlaps" in p for p in problems)

    def test_nonscalar_attr_rejected_but_shape_lists_ok(self, synthetic_tracer):
        rows = self._rows(synthetic_tracer)
        rows[0]["attrs"]["shape"] = [4, 4]
        assert _validate(rows) == []
        rows[0]["attrs"]["bad"] = {"nested": 1}
        assert any("JSON scalar" in p for p in _validate(rows))

    def test_validate_cli_on_jsonl(self, assigned_problem, tmp_path, capsys):
        from repro.obs.validate import main as validate_main

        hierarchy, estimate = assigned_problem
        path = tmp_path / "t.jsonl"
        obs.write_spans_jsonl(_traced_cycle(hierarchy, estimate, "serial"), path)
        rc = validate_main([str(path), "--expect-name", "node", "--require-depth", "3"])
        assert rc == 0
        assert "valid:" in capsys.readouterr().out
        assert validate_main([str(path), "--expect-name", "no-such-span"]) == 1

    def test_validate_cli_rejects_corrupt_jsonl(self, tmp_path, capsys):
        from repro.obs.validate import main as validate_main

        path = tmp_path / "bad.jsonl"
        rows = [
            {"type": "meta"},
            {"type": "span", "name": "a", "cat": "solve", "start": 0.0,
             "end": -1.0, "span_id": 1, "parent_id": None, "pid": 1, "tid": 1,
             "attrs": {}},
        ]
        path.write_text("\n".join(json.dumps(r) for r in rows) + "\n")
        assert validate_main([str(path)]) == 1
        assert "before it starts" in capsys.readouterr().err

    def test_meta_row_comes_first_and_once(self, synthetic_tracer):
        rows = self._rows(synthetic_tracer)
        assert any("meta row" in p for p in validate_spans_jsonl(rows))
        problems = _validate([*rows, {"type": "meta"}])
        assert any("unknown or missing type 'meta'" in p for p in problems)

    def test_dump_meta_accounts_for_its_rows(self, synthetic_tracer):
        rows = self._rows(synthetic_tracer)
        meta = {"type": "meta", "reason": "manual", "capacity": 8,
                "recorded": 6, "dropped": 2, "events": 4}
        assert validate_spans_jsonl([meta, *rows]) == []
        problems = validate_spans_jsonl([meta, *rows[1:]])
        assert any("must equal the 3 span/instant rows" in p for p in problems)
        problems = validate_spans_jsonl([{**meta, "recorded": -1}, *rows])
        assert any("recorded must be a non-negative integer" in p for p in problems)

    def test_metrics_rows(self):
        meta = {"type": "meta", "period_seconds": 1.0}
        hist = {"count": 2, "buckets": {"-4": 1, "3": 1}}

        def beat(seq, ts, h=hist):
            return {"type": "metrics", "seq": seq, "ts": ts, "uptime_seconds": 0.0,
                    "metrics": {"counters": {"a": 1.0}, "gauges": {},
                                "histograms": {"cycle.seconds": h}}}

        assert validate_spans_jsonl([meta, beat(0, 1.0), beat(1, 2.0)]) == []
        problems = validate_spans_jsonl([meta, beat(0, 1.0), beat(0, 2.0)])
        assert any("seq must be strictly increasing" in p for p in problems)
        problems = validate_spans_jsonl([meta, beat(0, 2.0), beat(1, 1.0)])
        assert any("ts must be non-decreasing" in p for p in problems)
        problems = validate_spans_jsonl([meta, beat(0, 1.0, {"count": 3, "buckets": {"1": 2}})])
        assert any("sum to 2, count says 3" in p for p in problems)
        problems = validate_spans_jsonl([meta, beat(0, 1.0, {"count": 0})])
        assert any("needs a buckets object" in p for p in problems)
        assert any("needs metrics rows" in p for p in validate_spans_jsonl([meta]))


class TestCriticalPath:
    def test_known_chain(self, synthetic_tracer):
        passes = analysis.solve_passes(synthetic_tracer)
        assert len(passes) == 1
        edges = analysis.dag_edges(passes)
        assert edges == {0: 2, 1: 2, 2: -1}
        cp = analysis.critical_path(passes[0], edges)
        assert [link["nid"] for link in cp["chain"]] == [2, 1]
        assert cp["critical_path_seconds"] == pytest.approx(6.0)
        assert cp["serial_seconds"] == pytest.approx(9.0)
        assert cp["perfect_speedup"] == pytest.approx(1.5)
        assert cp["wall_seconds"] == pytest.approx(10.0)
        assert cp["achieved_speedup"] == pytest.approx(0.9)

    def test_hierarchy_and_attrs_agree(self, assigned_problem, tmp_path):
        hierarchy, estimate = assigned_problem
        tracer = _traced_cycle(hierarchy, estimate, "serial")
        passes = analysis.solve_passes(tracer)
        assert analysis.dag_edges(passes) == analysis.dag_edges(passes, hierarchy)

    def test_missing_parent_nid_needs_hierarchy(self, assigned_problem):
        hierarchy, _ = assigned_problem
        tracer = Tracer()
        cycle = _add_span(tracer, "cycle", 0.0, 2.0, attrs={"cycle": 0})
        _add_span(tracer, "node[0]", 0.0, 1.0, attrs={"nid": 0},
                  parent=cycle.span_id)
        passes = analysis.solve_passes(tracer)
        with pytest.raises(TraceAnalysisError, match="parent_nid"):
            analysis.dag_edges(passes)
        assert analysis.dag_edges(passes, hierarchy)  # hierarchy rescues it

    def test_no_cycles_raises(self):
        tracer = Tracer()
        _add_span(tracer, "solve", 0.0, 1.0)
        with pytest.raises(TraceAnalysisError, match="cycle"):
            analysis.solve_passes(tracer)

    def test_node_restarts_keep_completed_attempt(self, synthetic_tracer):
        # a crashed-and-restarted node records two spans with one nid;
        # the longer (completed) attempt wins
        cycle = synthetic_tracer.spans[0]
        _add_span(synthetic_tracer, "node[0]", 6.0, 6.2,
                  attrs=_node_attrs(0, 2), parent=cycle.span_id)
        passes = analysis.solve_passes(synthetic_tracer)
        assert passes[0].nodes[0].seconds == pytest.approx(3.0)


class TestUtilization:
    def test_lane_split_and_imbalance(self, synthetic_tracer):
        p = analysis.solve_passes(synthetic_tracer)[0]
        util = analysis.worker_utilization(p)
        assert util["n_lanes"] == 2
        by_lane = {(ln["pid"], ln["tid"]): ln for ln in util["lanes"]}
        main_lane = by_lane[(1, 1)]
        assert main_lane["busy_seconds"] == pytest.approx(5.0)  # 3 + 2
        assert main_lane["utilization"] == pytest.approx(0.5)
        worker = by_lane[(2, 7)]
        assert worker["busy_seconds"] == pytest.approx(4.0)
        # imbalance = max busy / mean busy = 5 / 4.5
        assert util["imbalance"] == pytest.approx(5.0 / 4.5)
        # the main lane idles 4..4 gap between node0 and node2 (1s) and a 4s tail
        gaps = {(g["after_nid"], g["before_nid"]): g["seconds"]
                for g in main_lane["longest_gaps"]}
        assert gaps[(0, 2)] == pytest.approx(1.0)
        assert gaps[(2, None)] == pytest.approx(4.0)


class TestEq1Drift:
    def _pass_for(self, model, scale=2.0, distort=None):
        tracer = Tracer()
        cycle = _add_span(tracer, "cycle", 0.0, 100.0, attrs={"cycle": 0})
        t = 0.0
        for nid, (n, rows, m) in enumerate(
            [(6, 3, 3), (12, 6, 4), (24, 9, 4), (48, 12, 4), (24, 5, 4)]
        ):
            dur = scale * model.node_work(n, rows, m)
            if distort is not None:
                dur = distort(nid, dur)
            _add_span(tracer, f"node[{nid}]", t, t + dur,
                      attrs=_node_attrs(nid if nid else 0, -1 if nid == 0 else 0,
                                        state_dim=n, rows=rows, batch=m),
                      parent=cycle.span_id)
            t += dur
        return analysis.solve_passes(tracer)[0]

    def test_exact_model_is_calibrated(self):
        model = analytic_work_model()
        report = analysis.eq1_drift(self._pass_for(model), model)
        assert report["verdict"] == "calibrated"
        assert report["scale"] == pytest.approx(2.0)
        assert report["r2"] == pytest.approx(1.0)
        assert report["median_abs_rel"] == pytest.approx(0.0, abs=1e-12)
        assert {r["nid"] for r in report["residuals"]} == {0, 1, 2, 3, 4}

    def test_distorted_measurements_read_stale(self):
        model = analytic_work_model()
        # quadruple every other node's duration: shape no longer fits
        p = self._pass_for(
            model, distort=lambda nid, d: d * (4.0 if nid % 2 else 0.25)
        )
        report = analysis.eq1_drift(p, model)
        assert report["verdict"] == "stale"
        assert report["worst"][0]["rel"] >= report["worst"][-1]["rel"]

    def test_insufficient_data(self):
        tracer = Tracer()
        cycle = _add_span(tracer, "cycle", 0.0, 2.0, attrs={"cycle": 0})
        _add_span(tracer, "node[0]", 0.0, 1.0, attrs=_node_attrs(0, -1),
                  parent=cycle.span_id)
        p = analysis.solve_passes(tracer)[0]
        report = analysis.eq1_drift(p, analytic_work_model())
        assert report["verdict"] == "insufficient-data"


class TestDoctorAcrossBackends:
    def test_same_dag_from_all_backends(self, assigned_problem, tmp_path):
        hierarchy, estimate = assigned_problem
        dags, eq1_nodes = {}, {}
        for backend in sorted(EXECUTORS):
            tracer = _traced_cycle(hierarchy, estimate, backend)
            # analyze through the exported file, as the CLI would
            path = tmp_path / f"{backend}.jsonl"
            obs.write_spans_jsonl(tracer, path)
            report = obs.doctor_report(obs.read_spans_jsonl(path))
            dags[backend] = json.dumps(report["dag"], sort_keys=True)
            eq1_nodes[backend] = {
                r["nid"] for p in report["passes"] for r in p["eq1"]["residuals"]
            }
            assert report["verdicts"]
        assert len(set(dags.values())) == 1
        assert len({frozenset(v) for v in eq1_nodes.values()}) == 1

    def test_doctor_is_deterministic_per_trace(self, assigned_problem):
        hierarchy, estimate = assigned_problem
        tracer = _traced_cycle(hierarchy, estimate, "thread")
        a = obs.doctor_report(tracer)
        b = obs.doctor_report(tracer)
        assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)

    def test_warm_resolve_pass_analyzed(self, two_group_problem):
        from repro.constraints.position import PositionConstraint
        from repro.core.session import SolveSession

        coords, constraints, hierarchy, estimate = two_group_problem
        tracer = obs.Tracer()
        with SolveSession(hierarchy, constraints, batch_size=4) as session, \
                obs.tracing(tracer):
            session.solve(estimate, max_cycles=2, tol=0.0)
            session.add_constraints([PositionConstraint(1, coords[1], 0.05)])
            result = session.resolve()
        report = obs.doctor_report(tracer)
        labels = [p["label"] for p in report["passes"]]
        assert any(lbl.startswith("resolve[") for lbl in labels)
        warm = next(p for p in report["passes"]
                    if p["label"].startswith("resolve["))
        # the warm pass covers exactly the dirty path it re-solved
        assert warm["critical_path"]["n_nodes"] == result.n_dirty
        assert warm["utilization"]["n_lanes"] >= 1

    def test_format_doctor_report_renders(self, assigned_problem):
        hierarchy, estimate = assigned_problem
        report = obs.doctor_report(_traced_cycle(hierarchy, estimate, "serial"))
        text = obs.format_doctor_report(report)
        assert "critical path" in text
        assert "lanes:" in text
        assert "eq1:" in text

    @pytest.fixture()
    def helix_thread_trace(self, helix2_problem):
        tracer = obs.Tracer()
        with ThreadExecutor(2) as ex, obs.tracing(tracer):
            ParallelHierarchicalSolver(
                helix2_problem.hierarchy, batch_size=16, executor=ex
            ).run_cycle(helix2_problem.initial_estimate(0))
        return tracer

    def test_headroom_reported(self, helix_thread_trace, helix2_problem):
        report = analysis.doctor_report(
            helix_thread_trace, hierarchy=helix2_problem.hierarchy
        )
        cp = report["passes"][0]["critical_path"]
        assert cp["headroom"] >= 0.0
        assert cp["headroom"] == pytest.approx(
            max(0.0, cp["perfect_speedup"] - cp["achieved_speedup"])
        )

    def test_worst_lane_names_heaviest_subtree(
        self, helix_thread_trace, helix2_problem
    ):
        report = analysis.doctor_report(
            helix_thread_trace, hierarchy=helix2_problem.hierarchy
        )
        wl = report["passes"][0]["utilization"]["worst_lane"]
        assert wl["busy_seconds"] > 0.0
        heavy = wl["heaviest"]
        assert heavy["nid"] in {n.nid for n in helix2_problem.hierarchy.nodes}
        assert heavy["measured_seconds"] > 0.0
        # Equation-1 attrs are on the spans, so a prediction is attached
        assert heavy["predicted_seconds"] is None or heavy["predicted_seconds"] > 0.0


class TestTracerSelfCost:
    def test_doctor_surfaces_self_cost(self):
        trace = _serial_trace(TREE_COSTS, TREE_EDGES)
        trace.overhead_seconds = 0.5
        report = obs.doctor_report(trace)
        assert report["obs_overhead_seconds"] == 0.5
        assert any("tracer self-cost" in v for v in report["verdicts"])


class TestObsCLI:
    @pytest.fixture
    def trace_file(self, assigned_problem, tmp_path):
        hierarchy, estimate = assigned_problem
        path = tmp_path / "trace.jsonl"
        obs.write_spans_jsonl(
            _traced_cycle(hierarchy, estimate, "thread"), path
        )
        return str(path)

    def test_doctor(self, trace_file, tmp_path, capsys):
        out = tmp_path / "doctor.json"
        rc = main(["obs", "doctor", trace_file, "--out", str(out)])
        assert rc == 0
        text = capsys.readouterr().out
        assert "critical path" in text
        report = json.loads(out.read_text())
        assert report["passes"] and report["dag"]["edges"]

    def test_critical_path(self, trace_file, capsys):
        assert main(["obs", "critical-path", trace_file]) == 0
        assert "critical path over" in capsys.readouterr().out

    def test_doctor_rejects_chrome_trace(self, synthetic_tracer, tmp_path):
        path = tmp_path / "t.json"
        obs.write_chrome_trace(synthetic_tracer, path)
        for cmd in ("doctor", "critical-path"):
            with pytest.raises(SystemExit, match=r"solve --trace PATH\.jsonl"):
                main(["obs", cmd, str(path)])

    def test_doctor_rejects_empty_trace(self, tmp_path):
        tracer = Tracer()
        _add_span(tracer, "solve", 0.0, 1.0)
        path = tmp_path / "empty.jsonl"
        obs.write_spans_jsonl(tracer, path)
        with pytest.raises(SystemExit, match="cannot analyze"):
            main(["obs", "doctor", str(path)])

class TestWorkModelResidualAPI:
    def test_node_work_batch_matches_scalar(self):
        model = analytic_work_model()
        n, rows, m = [6, 12, 24], [3, 6, 9], [3, 4, 4]
        batch = model.node_work_batch(n, rows, m)
        assert batch == pytest.approx(
            [model.node_work(*args) for args in zip(n, rows, m)]
        )

    def test_residuals_scale(self):
        model = analytic_work_model()
        n, rows, m = [6, 12, 24], [3, 6, 9], [3, 4, 4]
        predicted = model.node_work_batch(n, rows, m)
        p2, resid = model.residuals(n, rows, m, 2.0 * predicted, scale=2.0)
        assert p2 == pytest.approx(predicted)
        assert resid == pytest.approx(np.zeros(3), abs=1e-15)

    def test_residuals_shape_mismatch(self):
        from repro.errors import WorkModelError

        model = analytic_work_model()
        with pytest.raises(WorkModelError):
            model.residuals([6, 12], [3, 6], [3, 4], [1.0])

    def test_drift_report_recovers_host_scale(self):
        from repro.core.workmodel import drift_report

        model = WorkModel(np.array([1e-7, 1e-8, 1e-9, 1e-8, 1e-9]))
        n = np.array([50, 100, 200, 400, 800])
        rows = np.array([10, 20, 30, 40, 50])
        m = np.array([8, 8, 8, 8, 8])
        measured = 3.5 * model.node_work_batch(n, rows, m)
        report = drift_report(model, n, rows, m, measured)
        assert report["verdict"] == "calibrated"
        assert report["scale"] == pytest.approx(3.5)

    def test_drift_report_insufficient(self):
        from repro.core.workmodel import drift_report

        model = analytic_work_model()
        report = drift_report(model, [6], [3], [3], [0.1])
        assert report["verdict"] == "insufficient-data"
        assert report["residuals"] == []
