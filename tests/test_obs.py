"""Tests for the repro.obs observability layer.

Covers: span nesting and contextvar scoping, metric registry semantics
and cross-process merge, the Chrome trace-event exporter and its schema
validator, the kernel → batch → node → cycle attribution chain on a
real solve, fault/retry/checkpoint annotations, the bitwise-identity
guarantee when tracing is off vs on, and the CLI surface
(``--trace`` / ``--metrics-out`` / ``--obs-summary`` / ``--out``
summary sidecar).
"""

import json

import numpy as np
import pytest

from repro import obs
from repro.cli import main
from repro.core.hier_solver import HierarchicalSolver
from repro.core.session import SolveSession
from repro.faults import FaultConfig, FaultInjector, fault_injection
from repro.linalg.kernels import gemm
from repro.util.timer import Timer, WallClock, set_wall_clock, wall_clock


class FakeClock(WallClock):
    def __init__(self):
        self.t = 0.0

    def now(self):
        return self.t


class TestTracer:
    def test_inactive_by_default(self):
        assert obs.current_tracer() is None
        with obs.span("anything") as sp:
            assert sp is None  # no-op context yields None
        obs.instant("nothing")  # must not raise

    def test_span_nesting_and_attrs(self):
        tracer = obs.Tracer(clock=FakeClock())
        with obs.tracing(tracer):
            with obs.span("outer", cat="solve", level=1) as outer:
                with obs.span("inner", cat="update") as inner:
                    inner.attrs["late"] = 42
                assert inner.parent_id == outer.span_id
        assert outer.parent_id is None
        assert outer.attrs == {"level": 1}
        assert inner.attrs["late"] == 42
        assert [sp.name for sp in tracer.spans] == ["inner", "outer"]

    def test_span_committed_on_exception(self):
        tracer = obs.Tracer()
        with pytest.raises(RuntimeError):
            with obs.tracing(tracer):
                with obs.span("failing"):
                    raise RuntimeError("boom")
        assert tracer.find(name="failing")
        sp = tracer.find(name="failing")[0]
        assert sp.end >= sp.start

    def test_tracing_scope_restores(self):
        tracer = obs.Tracer()
        with obs.tracing(tracer):
            assert obs.current_tracer() is tracer
        assert obs.current_tracer() is None

    def test_nested_tracer_shadows_and_does_not_inherit_parent(self):
        outer_tr, inner_tr = obs.Tracer(), obs.Tracer()
        with obs.tracing(outer_tr), obs.span("outer"):
            with obs.tracing(inner_tr):
                with obs.span("shadowed") as sp:
                    pass
        assert sp.parent_id is None  # parent context reset per tracer
        assert [s.name for s in inner_tr.spans] == ["shadowed"]
        assert [s.name for s in outer_tr.spans] == ["outer"]

    def test_instant_records_parent(self):
        tracer = obs.Tracer()
        with obs.tracing(tracer):
            with obs.span("region") as sp:
                obs.instant("mark", cat="fault", detail=1)
        ev = tracer.instants[0]
        assert ev.name == "mark" and ev.parent_id == sp.span_id
        assert ev.attrs == {"detail": 1}

    def test_clock_injection(self):
        clock = FakeClock()
        tracer = obs.Tracer(clock=clock)
        with obs.tracing(tracer):
            clock.t = 1.0
            with obs.span("timed"):
                clock.t = 3.5
        sp = tracer.spans[0]
        assert sp.start == 1.0 and sp.end == 3.5 and sp.duration == 2.5

    def test_merge_remaps_reparents_and_rebases(self):
        parent_clock, worker_clock = FakeClock(), FakeClock()
        parent = obs.Tracer(clock=parent_clock)
        worker = obs.Tracer(clock=worker_clock)
        # Simulate differing perf_counter epochs: the worker's clock
        # reads 100 s at the same wall time the parent's reads ~0 s.
        worker.epoch = parent.epoch - 100.0
        with obs.tracing(worker):
            worker_clock.t = 100.0
            with obs.span("wroot") as wroot:
                with obs.span("wchild"):
                    worker_clock.t = 101.0
        with obs.tracing(parent):
            with obs.span("dispatch") as disp:
                parent.merge(worker.payload(), parent_id=disp.span_id)
        by_name = {sp.name: sp for sp in parent.spans}
        root, child = by_name["wroot"], by_name["wchild"]
        assert root.parent_id == disp.span_id  # worker root re-parented
        assert child.parent_id == root.span_id  # internal links preserved
        ids = [sp.span_id for sp in parent.spans]
        assert len(ids) == len(set(ids))  # no id collisions after remap
        assert root.start == pytest.approx(0.0)  # 100 s epoch shift removed
        assert root.end == pytest.approx(1.0)

    def test_merge_empty_payload_is_noop(self):
        tracer = obs.Tracer()
        tracer.merge(None)
        tracer.merge({"epoch": 0.0, "spans": [], "instants": []})
        assert tracer.spans == [] and tracer.instants == []

    def test_ancestry(self):
        tracer = obs.Tracer()
        with obs.tracing(tracer):
            with obs.span("a"), obs.span("b"), obs.span("c"):
                pass
        leaf = tracer.find(name="c")[0]
        assert [s.name for s in tracer.ancestry(leaf)] == ["b", "a"]


class TestMetrics:
    def test_inactive_by_default(self):
        assert obs.current_metrics() is None
        obs.inc("x")
        obs.set_gauge("y", 1.0)
        obs.observe("z", 2.0)  # all no-ops, no raise

    def test_counter_gauge_histogram(self):
        reg = obs.MetricsRegistry()
        with obs.metrics_scope(reg):
            obs.inc("c")
            obs.inc("c", 2.5)
            obs.set_gauge("g", 7.0)
            for v in (1.0, 3.0, 2.0):
                obs.observe("h", v)
        snap = reg.snapshot()
        assert snap["counters"]["c"] == 3.5
        assert snap["gauges"]["g"] == 7.0
        h = snap["histograms"]["h"]
        assert h["count"] == 3 and h["min"] == 1.0 and h["max"] == 3.0
        assert h["mean"] == pytest.approx(2.0)

    def test_record_kernel_totals_and_per_category(self):
        reg = obs.MetricsRegistry()
        reg.record_kernel("m-m", flops=100.0, seconds=0.5)
        reg.record_kernel("m-m", flops=50.0, seconds=0.25)
        reg.record_kernel("vec", flops=1.0, seconds=0.01)
        snap = reg.snapshot()["counters"]
        assert snap["kernel.calls"] == 3
        assert snap["kernel.flops"] == 151.0
        assert snap["kernel.calls.m-m"] == 2
        assert snap["kernel.flops.m-m"] == 150.0
        assert snap["kernel.seconds.vec"] == pytest.approx(0.01)

    def test_merge_snapshot_accumulates(self):
        a, b = obs.MetricsRegistry(), obs.MetricsRegistry()
        a.counter("c").inc(1.0)
        b.counter("c").inc(2.0)
        b.gauge("g").set(5.0)
        a.histogram("h").observe(1.0)
        b.histogram("h").observe(9.0)
        a.merge_snapshot(b.snapshot())
        snap = a.snapshot()
        assert snap["counters"]["c"] == 3.0
        assert snap["gauges"]["g"] == 5.0
        h = snap["histograms"]["h"]
        assert h["count"] == 2 and h["min"] == 1.0 and h["max"] == 9.0
        a.merge_snapshot(None)  # no-op

    def test_scope_restores(self):
        reg = obs.MetricsRegistry()
        with obs.metrics_scope(reg):
            assert obs.current_metrics() is reg
        assert obs.current_metrics() is None


class TestClockUnification:
    def test_kernel_timing_uses_process_clock(self):
        """Satellite: counters/obs timing flows through the injectable clock."""
        clock = FakeClock()
        previous = set_wall_clock(clock)
        try:
            tracer = obs.Tracer()  # picks up the fake process clock
            assert tracer.clock is clock
            with obs.tracing(tracer):
                clock.t = 2.0
                gemm(np.eye(3), np.eye(3))
            sp = tracer.find(cat="kernel")[0]
            # FakeClock never advances inside gemm: a zero-length span
            # stamped at the fake time proves both the kernel timestamps
            # and the tracer read the injected clock.
            assert sp.start == 2.0 and sp.end == 2.0
            assert Timer().clock is clock  # default Timer shares it too
        finally:
            set_wall_clock(previous)
        assert wall_clock() is previous


class TestExporters:
    def _traced_sample(self):
        tracer = obs.Tracer()
        reg = obs.MetricsRegistry()
        with obs.tracing(tracer), obs.metrics_scope(reg):
            with obs.span("cycle", cat="solve", cycle=0):
                with obs.span("node[0]", cat="solve", nid=0):
                    gemm(np.eye(4), np.eye(4))
                    obs.instant("update.retry", cat="fault", attempt=0)
        return tracer, reg

    def test_chrome_events_balanced_and_valid(self):
        tracer, _ = self._traced_sample()
        events = obs.chrome_trace_events(tracer)
        assert obs.validate_chrome_trace({"traceEvents": events}) == []
        b = [e for e in events if e["ph"] == "B"]
        e = [e for e in events if e["ph"] == "E"]
        assert len(b) == len(e) == 3  # cycle, node, kernel
        names = [ev["name"] for ev in events if ev["ph"] == "i"]
        assert names == ["update.retry"]
        meta = [ev for ev in events if ev["ph"] == "M"]
        assert {m["args"]["name"] for m in meta} >= {"main"}

    def test_empty_tracer_exports_empty(self):
        assert obs.chrome_trace_events(obs.Tracer()) == []

    def test_write_chrome_trace_document(self, tmp_path):
        tracer, _ = self._traced_sample()
        path = obs.write_chrome_trace(tracer, tmp_path / "t.json")
        doc = json.loads(path.read_text())
        assert doc["displayTimeUnit"] == "ms"
        assert obs.validate_chrome_trace(doc) == []
        stats = obs.trace_stats(doc)
        assert stats["spans"] == 3 and stats["max_depth"] == 3

    def test_write_spans_jsonl(self, tmp_path):
        tracer, _ = self._traced_sample()
        path = obs.write_spans_jsonl(tracer, tmp_path / "s.jsonl")
        rows = [json.loads(line) for line in path.read_text().splitlines()]
        assert len(rows) == 5  # meta header + 3 spans + 1 instant
        assert rows[0]["type"] == "meta"
        spans = [r for r in rows if r["type"] == "span"]
        assert {r["name"] for r in spans} == {"cycle", "node[0]", "gemm"}
        starts = [r.get("start", r.get("ts")) for r in rows[1:]]
        assert starts == sorted(starts)

    def test_write_metrics_json(self, tmp_path):
        _, reg = self._traced_sample()
        path = obs.write_metrics_json(reg, tmp_path / "m.json", extra={"run": "x"})
        doc = json.loads(path.read_text())
        assert doc["counters"]["kernel.calls"] == 1
        assert doc["run"] == {"run": "x"}

    def test_format_summary(self):
        tracer, reg = self._traced_sample()
        text = obs.format_obs_summary(tracer, reg)
        assert "host kernel time by category" in text
        assert "m-m" in text  # gemm's category row
        assert "update.retry" in text  # annotation counts
        assert "kernel.flops" in text

    def test_format_summary_empty(self):
        assert "no observability data" in obs.format_obs_summary(None, None)


class TestValidator:
    def test_detects_unbalanced_begin(self):
        doc = {"traceEvents": [
            {"name": "a", "ph": "B", "ts": 0, "pid": 1, "tid": 1},
        ]}
        problems = obs.validate_chrome_trace(doc)
        assert any("never closed" in p for p in problems)

    def test_detects_mismatched_end(self):
        doc = {"traceEvents": [
            {"name": "a", "ph": "B", "ts": 0, "pid": 1, "tid": 1},
            {"name": "b", "ph": "E", "ts": 1, "pid": 1, "tid": 1},
        ]}
        assert obs.validate_chrome_trace(doc)

    def test_detects_unknown_phase_and_bad_ts(self):
        doc = {"traceEvents": [
            {"name": "a", "ph": "Q", "ts": 0, "pid": 1, "tid": 1},
            {"name": "b", "ph": "B", "ts": -5, "pid": 1, "tid": 1},
            {"name": "b", "ph": "E", "ts": -1, "pid": 1, "tid": 1},
        ]}
        problems = obs.validate_chrome_trace(doc)
        assert len(problems) >= 2

    def test_detects_time_going_backwards(self):
        doc = {"traceEvents": [
            {"name": "a", "ph": "B", "ts": 10, "pid": 1, "tid": 1},
            {"name": "a", "ph": "E", "ts": 5, "pid": 1, "tid": 1},
        ]}
        assert any("decreases" in p for p in obs.validate_chrome_trace(doc))


class TestSolveTracing:
    def test_traced_solve_bitwise_identical(self, helix2_problem):
        est = helix2_problem.initial_estimate(0)
        solver = HierarchicalSolver(helix2_problem.hierarchy, 16)
        clean = solver.run_cycle(est)
        with obs.tracing(obs.Tracer()), obs.metrics_scope(obs.MetricsRegistry()):
            traced = solver.run_cycle(est)
        assert np.array_equal(clean.estimate.mean, traced.estimate.mean)
        assert np.array_equal(clean.estimate.covariance, traced.estimate.covariance)

    def test_nesting_chain_kernel_to_cycle(self, helix2_problem):
        tracer = obs.Tracer()
        with obs.tracing(tracer):
            HierarchicalSolver(helix2_problem.hierarchy, 16).run_cycle(
                helix2_problem.initial_estimate(0)
            )
        kernel = tracer.find(cat="kernel")
        assert kernel
        chain = [s.name for s in tracer.ancestry(kernel[0])]
        assert chain[0] == "batch"
        assert chain[1].startswith("node[")
        assert chain[-1] == "cycle"
        # every node of the hierarchy produced a span
        node_spans = [s for s in tracer.spans if s.name.startswith("node[")]
        assert len(node_spans) == len(helix2_problem.hierarchy.nodes)
        # exported trace passes the schema check at full depth
        doc = {"traceEvents": obs.chrome_trace_events(tracer)}
        assert obs.validate_chrome_trace(doc) == []
        assert obs.trace_stats(doc)["max_depth"] >= 4

    def test_solve_metrics(self, helix2_problem):
        reg = obs.MetricsRegistry()
        with obs.metrics_scope(reg):
            HierarchicalSolver(helix2_problem.hierarchy, 16).run_cycle(
                helix2_problem.initial_estimate(0)
            )
        snap = reg.snapshot()["counters"]
        assert snap["solve.cycles"] == 1
        assert snap["kernel.calls"] > 0
        assert snap["kernel.flops"] > 0
        assert set(snap) >= {"kernel.calls.chol", "kernel.calls.m-m"}

    def test_fault_retries_become_instants_and_metrics(self, helix2_problem):
        tracer, reg = obs.Tracer(), obs.MetricsRegistry()
        inj = FaultInjector(FaultConfig(chol_p=0.2, seed=3))
        with fault_injection(inj), obs.tracing(tracer), obs.metrics_scope(reg):
            HierarchicalSolver(helix2_problem.hierarchy, 16).run_cycle(
                helix2_problem.initial_estimate(0)
            )
        assert inj.injected["chol"] > 0  # the schedule actually fired
        snap = reg.snapshot()["counters"]
        assert snap["faults.injected.chol"] == inj.injected["chol"]
        assert snap["update.retry_total"] >= inj.injected["chol"]
        assert snap["update.retry_recovered"] > 0
        retries = [ev for ev in tracer.instants if ev.name == "update.retry"]
        assert len(retries) == snap["update.retry_total"]
        assert all(ev.cat == "fault" for ev in retries)
        injected = [ev for ev in tracer.instants if ev.name == "fault.injected"]
        assert len(injected) == inj.injected["chol"]

    def test_session_store_spans_and_metrics(self, helix2_problem, tmp_path):
        tracer, reg = obs.Tracer(), obs.MetricsRegistry()
        session = SolveSession(
            helix2_problem.hierarchy, helix2_problem.constraints,
            store=tmp_path / "store",
        )
        with obs.tracing(tracer), obs.metrics_scope(reg):
            session.solve(helix2_problem.initial_estimate(0), max_cycles=1, tol=0.0)
        saves = tracer.find(name="session.save_node", cat="checkpoint")
        assert len(saves) == len(helix2_problem.hierarchy.nodes)
        assert all("nid" in sp.attrs for sp in saves)
        snap = reg.snapshot()["counters"]
        assert snap["session.nodes_saved"] == len(saves)


class TestCLIObservability:
    @pytest.fixture
    def helix_file(self, tmp_path):
        path = tmp_path / "helix2.npz"
        assert main(["generate", "helix", "--length", "2", "--out", str(path)]) == 0
        return path

    def test_trace_metrics_summary_flags(self, helix_file, tmp_path, capsys):
        trace = tmp_path / "trace.json"
        metrics = tmp_path / "metrics.json"
        code = main([
            "solve", str(helix_file), "--cycles", "1",
            "--trace", str(trace), "--metrics-out", str(metrics),
            "--obs-summary",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "host kernel time by category" in out
        doc = json.loads(trace.read_text())
        assert obs.validate_chrome_trace(doc) == []
        assert obs.trace_stats(doc)["max_depth"] >= 4
        counters = json.loads(metrics.read_text())["counters"]
        assert counters["solve.cycles"] == 1

    def test_trace_jsonl_variant(self, helix_file, tmp_path):
        trace = tmp_path / "trace.jsonl"
        assert main([
            "solve", str(helix_file), "--cycles", "1", "--trace", str(trace),
        ]) == 0
        rows = [json.loads(line) for line in trace.read_text().splitlines()]
        assert any(r.get("name") == "cycle" for r in rows)
        assert rows[0]["type"] == "meta"  # self-cost header row leads

    def test_out_summary_sidecar(self, helix_file, tmp_path, capsys):
        est = tmp_path / "solved.npz"
        trace = tmp_path / "trace.json"
        code = main([
            "solve", str(helix_file), "--cycles", "1",
            "--trace", str(trace), "--out", str(est),
        ])
        assert code == 0
        assert "wrote summary to" in capsys.readouterr().out
        summary = json.loads((tmp_path / "solved.summary.json").read_text())
        assert summary["problem"] == "helix2"
        rob = summary["robustness"]
        assert {"retried_batch_updates", "recovered_batch_updates",
                "quarantined_batches", "quarantined_constraints",
                "quarantined_rows"} <= set(rob)
        assert summary["artifacts"]["trace"] == str(trace)
        assert summary["artifacts"]["estimate"] == str(est)

    def test_summary_counts_faulted_retries(self, helix_file, tmp_path):
        est = tmp_path / "solved.npz"
        code = main([
            "solve", str(helix_file), "--cycles", "1",
            "--faults", "chol=0.2,seed=3", "--out", str(est),
        ])
        assert code == 0
        summary = json.loads((tmp_path / "solved.summary.json").read_text())
        assert summary["robustness"]["retried_batch_updates"] > 0
        assert summary["faults_injected"]["chol"] > 0
        assert summary["artifacts"]["trace"] is None


class TickClock(WallClock):
    """Advances by one second on every now() call: each clock read is
    visible as exactly 1s of accounted time."""

    def __init__(self):
        self.t = -1.0

    def now(self):
        self.t += 1.0
        return self.t


class TestOverheadAccounting:
    def test_span_bookkeeping_excluded_and_accounted(self):
        tracer = obs.Tracer(clock=TickClock())
        # Tracer.__init__ consumed tick 0 for the epoch; span() then
        # reads t_open=1, sp.start=2, sp.end=3, exit bookkeeping=4
        with tracer.span("work") as sp:
            pass
        assert (sp.start, sp.end) == (2.0, 3.0)
        assert tracer.overhead_seconds == 2.0  # enter tick + exit tick

    def test_complete_and_instant_account_record_cost(self):
        tracer = obs.Tracer(clock=TickClock())
        tracer.complete("k", "kernel", 10.0, 11.0)
        assert tracer.overhead_seconds == 1.0
        tracer.instant("mark")
        assert tracer.overhead_seconds == 2.0

    def test_payload_merge_accumulates_worker_overhead(self):
        parent, worker = obs.Tracer(clock=FakeClock()), obs.Tracer(clock=FakeClock())
        with worker.span("task"):
            pass
        worker.overhead_seconds = 0.25
        parent.overhead_seconds = 0.5
        parent.merge(worker.payload())
        assert parent.overhead_seconds == 0.75

    def test_jsonl_round_trip_preserves_overhead(self, tmp_path):
        tracer = obs.Tracer(clock=FakeClock())
        with tracer.span("a"):
            pass
        tracer.overhead_seconds = 0.125
        path = tmp_path / "t.jsonl"
        obs.write_spans_jsonl(tracer, path)
        loaded = obs.read_spans_jsonl(path)
        assert loaded.overhead_seconds == 0.125
        # export time is added to the live tracer only after the file is
        # written, so re-exporting the loaded tracer is byte-exact
        second = tmp_path / "t2.jsonl"
        obs.write_spans_jsonl(loaded, second)
        assert path.read_bytes() == second.read_bytes()

    def test_chrome_round_trip_preserves_overhead(self, tmp_path):
        tracer = obs.Tracer(clock=FakeClock())
        with tracer.span("a"):
            pass
        tracer.overhead_seconds = 0.25
        path = tmp_path / "t.json"
        obs.write_chrome_trace(tracer, path)
        doc = json.loads(path.read_text())
        assert doc["otherData"]["obs_overhead_seconds"] == 0.25

    def test_tracing_exit_publishes_gauge(self):
        registry = obs.MetricsRegistry()
        tracer = obs.Tracer(clock=TickClock())
        # metrics scope must wrap tracing: the gauge is published on
        # tracing() exit into whatever metrics scope is still active
        with obs.metrics_scope(registry), obs.tracing(tracer):
            with obs.span("work"):
                pass
        snap = registry.snapshot()
        assert snap["gauges"]["obs.overhead_seconds"] == tracer.overhead_seconds
        assert tracer.overhead_seconds > 0

    def test_no_metrics_scope_is_fine(self):
        tracer = obs.Tracer(clock=FakeClock())
        with obs.tracing(tracer):
            with obs.span("work"):
                pass  # exit must not raise without a metrics scope
