"""Live telemetry plane: flight recorder, rolling histograms, heartbeats.

Pins the while-it-runs observability contracts of :mod:`repro.obs.live`
and the streaming internals of :mod:`repro.obs.metrics`:

* the flight recorder's bounded ring of tracer records, forensic
  triggers, dumps in the spans-log schema and the worker payload/merge
  transport;
* log-bucket histograms (O(1) memory, quantiles within bucket
  resolution, merge);
* labeled metric keys surviving snapshot/merge round trips;
* the heartbeat exporter + ``repro obs top`` rendering, and the SLO
  burn-rate verdict.
"""

import json
import os
import re

import numpy as np
import pytest

from repro import obs
from repro.core.hierarchy import assign_constraints
from repro.core.hier_solver import HierarchicalSolver
from repro.faults import FaultConfig, FaultInjector, fault_injection
from repro.obs.live import DEFAULT_TRIGGERS
from repro.obs.metrics import (
    Histogram,
    bucket_index,
    bucket_value,
    labeled_name,
    parse_metric_key,
    quantile_from_snapshot,
)
from repro.obs.validate import validate_spans_jsonl
from repro.parallel import ParallelHierarchicalSolver, ProcessExecutor


def _read_rows(path):
    with open(path) as fh:
        return [json.loads(line) for line in fh if line.strip()]


# --------------------------------------------------------------- histograms
class TestStreamingHistogram:
    def test_constant_memory(self):
        """The histogram must not retain observations — only bucket counts."""
        h = Histogram()
        rng = np.random.default_rng(0)
        for v in rng.lognormal(size=10_000):
            h.observe(float(v))
        assert not hasattr(h, "values")
        assert h.count == 10_000
        # bucket count is bounded by the clamped index range, not by n
        assert len(h.buckets) < 600

    def test_quantiles_within_bucket_resolution(self):
        rng = np.random.default_rng(7)
        xs = rng.lognormal(mean=-1.0, sigma=1.0, size=20_000)
        h = Histogram()
        for v in xs:
            h.observe(float(v))
        # log-bucket geometry: 4 buckets per power of two => ~9% ceiling
        for q in (0.5, 0.9, 0.99):
            exact = float(np.quantile(xs, q))
            assert h.quantile(q) == pytest.approx(exact, rel=0.12)
        # extremes pin to the exact observed range within one bucket
        assert h.quantile(0.0) == pytest.approx(h.vmin, rel=0.2)
        assert h.quantile(1.0) == pytest.approx(h.vmax, rel=0.2)
        assert h.vmin <= h.quantile(0.0) <= h.quantile(1.0) <= h.vmax

    def test_merge_matches_union(self):
        a, b = Histogram(), Histogram()
        xs = [0.001, 0.01, 0.5, 2.0, 40.0]
        ys = [0.25, 0.3, 8.0]
        for v in xs:
            a.observe(v)
        for v in ys:
            b.observe(v)
        a.merge(b)
        assert a.count == len(xs) + len(ys)
        assert a.vmin == min(xs + ys)
        assert a.vmax == max(xs + ys)
        assert a.mean == pytest.approx(float(np.mean(xs + ys)))

    def test_bucket_geometry_round_trips(self):
        for v in (1e-4, 0.02, 1.0, 3.7, 1e5):
            idx = bucket_index(v)
            # the representative value lands back in the same bucket
            assert bucket_index(bucket_value(idx)) == idx

    def test_snapshot_merge_round_trip(self):
        src = obs.MetricsRegistry()
        for v in (0.1, 0.2, 0.4, 0.8):
            src.histogram("cycle.seconds").observe(v)
        dst = obs.MetricsRegistry()
        dst.merge_snapshot(src.snapshot())
        dst.merge_snapshot(src.snapshot())
        h = dst.histogram("cycle.seconds")
        assert h.count == 8
        snap = dst.snapshot()["histograms"]["cycle.seconds"]
        assert sum(snap["buckets"].values()) == 8
        assert quantile_from_snapshot(snap, 0.5) == pytest.approx(
            h.quantile(0.5)
        )


# ----------------------------------------------------------- labeled metrics
class TestLabeledMetrics:
    def test_key_encoding_round_trip(self):
        key = labeled_name("session.solves", {"session": "s1", "backend": "thread"})
        assert key == "session.solves{backend=thread,session=s1}"
        name, labels = parse_metric_key(key)
        assert name == "session.solves"
        assert labels == {"backend": "thread", "session": "s1"}
        assert parse_metric_key("plain.counter") == ("plain.counter", {})

    def test_labeled_series_survive_snapshot_merge(self):
        src = obs.MetricsRegistry()
        src.counter("session.solves", labels={"session": "a"}).inc()
        src.counter("session.solves", labels={"session": "b"}).inc(2)
        src.histogram("node.seconds", labels={"session": "a"}).observe(0.5)
        dst = obs.MetricsRegistry()
        dst.merge_snapshot(src.snapshot())
        assert dst.counter("session.solves", labels={"session": "a"}).value == 1
        assert dst.counter("session.solves", labels={"session": "b"}).value == 2
        assert dst.histogram("node.seconds", labels={"session": "a"}).count == 1

    def test_observe_latency_publishes_quantile_gauges(self):
        registry = obs.MetricsRegistry()
        with obs.metrics_scope(registry):
            for v in (0.1, 0.2, 0.3):
                obs.observe_latency("cycle.seconds", v)
        snap = registry.snapshot()
        assert snap["histograms"]["cycle.seconds"]["count"] == 3
        assert snap["gauges"]["cycle.seconds.p50"] == pytest.approx(0.2, rel=0.1)
        assert snap["gauges"]["cycle.seconds.p99"] == pytest.approx(0.3, rel=0.1)


# ------------------------------------------------------------ flight recorder
class TestFlightRecorder:
    def test_ring_is_bounded_and_counts_drops(self):
        with obs.flight_recording(capacity=8) as rec:
            for i in range(20):
                with obs.span(f"node[{i}]", cat="solve", nid=i):
                    pass
        assert rec.recorded == 20
        assert rec.dropped == 12
        payload = rec.payload()
        assert len(payload["spans"]) == 8
        assert payload["spans"][-1].name == "node[19]"

    def test_idle_without_active_recorder_records_nothing(self):
        rec = obs.FlightRecorder()
        assert obs.current_flight_recorder() is None
        obs.instant("update.batch_failed", cat="fault")  # no-op: not active
        assert rec.recorded == 0

    def test_span_and_instant_hooks_feed_active_recorder(self):
        with obs.flight_recording(capacity=16) as rec:
            with obs.span("node[3]", cat="solve", nid=3) as sp:
                obs.instant("fault.injected", cat="fault", channel="chol")
        assert [s.name for s in rec.spans] == ["node[3]"]
        assert rec.spans[0] is sp and sp.end >= sp.start
        (ev,) = rec.instants
        assert ev.name == "fault.injected" and ev.parent_id == sp.span_id
        assert rec.overhead_seconds > 0.0

    def test_ring_keeps_the_active_tracers_records(self):
        """With a tracer active the ring holds the tracer's own records;
        kernel spans (Tracer.complete) stay out of the ring."""
        tracer = obs.Tracer()
        with obs.flight_recording() as rec, obs.tracing(tracer):
            with obs.span("node[1]", nid=1):
                tracer.complete("gemm", "kernel", 0.0, 1.0)
                obs.instant("fault.injected", cat="fault")
        assert [s.name for s in tracer.spans] == ["gemm", "node[1]"]
        assert list(rec.spans) == [tracer.spans[1]]
        assert list(rec.instants) == tracer.instants
        assert rec.recorded == 2

    def test_trigger_dumps_validated_artifact(self, tmp_path):
        with obs.flight_recording(dump_dir=tmp_path, capacity=32) as rec:
            with obs.span("node[1]", cat="solve", nid=1):
                pass
            obs.instant(
                "update.batch_failed",
                cat="fault",
                attempts=3,
                error="NotPositiveDefiniteError",
            )
        assert len(rec.dumps) == 1
        rows = _read_rows(rec.dumps[0])
        assert validate_spans_jsonl(rows) == []
        meta = rows[0]
        assert meta["reason"] == "update.batch_failed"
        assert meta["trigger"]["error"] == "NotPositiveDefiniteError"
        assert meta["events"] == 2
        loaded = obs.read_spans_jsonl(rec.dumps[0])
        assert [s.name for s in loaded.spans] == ["node[1]"]
        assert [e.name for e in loaded.instants] == ["update.batch_failed"]

    def test_dump_nulls_parents_outside_the_ring(self, tmp_path):
        """A trigger inside an open span dumps before that span commits; a
        row whose parent is not in the dump names no parent."""
        with obs.flight_recording(dump_dir=tmp_path) as rec:
            with obs.span("node[2]", nid=2):
                with obs.span("batch"):
                    pass
                obs.instant("batch.quarantined", cat="fault", nid=2)
        rows = _read_rows(rec.dumps[0])
        assert validate_spans_jsonl(rows) == []
        assert [(r["name"], r["parent_id"]) for r in rows[1:]] == [
            ("batch", None),
            ("batch.quarantined", None),
        ]

    def test_npd_error_attr_triggers_regardless_of_name(self, tmp_path):
        rec = obs.FlightRecorder(dump_dir=tmp_path)
        rec.instant("some.other.instant", "x", error="ValueError")
        assert rec.dumps == []
        rec.instant("some.other.instant", "x", error="NotPositiveDefiniteError")
        assert len(rec.dumps) == 1

    def test_dump_rate_limit(self, tmp_path):
        rec = obs.FlightRecorder(dump_dir=tmp_path, max_dumps=2)
        for _ in range(5):
            rec.instant("executor.pool_rebuild", "executor")
        assert len(rec.dumps) == 2

    def test_worker_payload_absorb_refires_triggers(self, tmp_path):
        worker = obs.FlightRecorder()  # no dump_dir: worker-side config
        with obs.flight_recording(worker):
            with obs.span("node[9]", cat="solve", nid=9):
                obs.instant("batch.quarantined", cat="fault", nid=9)
        assert worker.dumps == []  # cannot dump, only queue
        parent = obs.FlightRecorder(dump_dir=tmp_path)
        with parent.span("cycle") as cycle:
            parent.merge(worker.payload(), parent_id=cycle.span_id)
        # the worker's trigger fired in the parent, with the worker's attrs
        assert len(parent.dumps) == 1
        rows = _read_rows(parent.dumps[0])
        assert validate_spans_jsonl(rows) == []
        assert rows[0]["reason"] == "batch.quarantined"
        assert rows[0]["trigger"] == {"nid": 9}
        # each worker record appears once; the open cycle span is not in
        # the dump, so the worker's root names no parent there
        assert [r["name"] for r in rows[1:]] == ["node[9]", "batch.quarantined"]
        assert rows[1]["parent_id"] is None

    def test_manual_dump_explicit_path(self, tmp_path):
        rec = obs.FlightRecorder()
        with rec.span("node[0]", cat="solve"):
            pass
        path = rec.dump(tmp_path / "flight.jsonl")
        rows = _read_rows(path)
        assert validate_spans_jsonl(rows) == []
        assert rows[0]["reason"] == "manual"

    def test_default_triggers_cover_the_failure_surfaces(self):
        assert {
            "update.batch_failed",     # terminal batch failure / NPD path
            "batch.quarantined",       # quarantine
            "executor.resubmit",       # worker death (lost task)
            "executor.pool_rebuild",   # pool rebuild
        } <= DEFAULT_TRIGGERS


# ------------------------------------------------- solver-integrated forensics
class TestSolverForensics:
    def test_serial_chol_fault_storm_leaves_validated_dump(
        self, two_group_problem, tmp_path
    ):
        """Injected factorization failures that exhaust retries must dump
        the ring, naming the failing surface in the trigger."""
        coords, constraints, hierarchy, estimate = two_group_problem
        assign_constraints(hierarchy, constraints)
        inj = FaultInjector(FaultConfig(chol_p=1.0, seed=0))
        solver = HierarchicalSolver(hierarchy, batch_size=4)
        with obs.flight_recording(dump_dir=tmp_path) as rec, fault_injection(inj):
            solver.run_cycle(estimate)
        assert rec.dumps, "no forensic dump written"
        rows = _read_rows(rec.dumps[0])
        assert validate_spans_jsonl(rows) == []
        assert rows[0]["reason"] in DEFAULT_TRIGGERS
        names = {r["name"] for r in rows[1:]}
        assert "fault.injected" in names
        sites = {
            r["attrs"].get("site")
            for r in rows[1:]
            if r["name"] == "fault.injected"
        }
        assert "cholesky" in sites

    def test_process_worker_records_keep_their_lanes(
        self, two_group_problem, tmp_path
    ):
        """Triggers seen in process workers dump in the parent; each dump
        loads back record for record, and worker rows keep their lanes."""
        coords, constraints, hierarchy, estimate = two_group_problem
        assign_constraints(hierarchy, constraints)
        inj = FaultInjector(FaultConfig(chol_p=1.0, seed=0))
        with obs.flight_recording(dump_dir=tmp_path) as rec, fault_injection(
            inj
        ), ProcessExecutor(2) as ex:
            ParallelHierarchicalSolver(
                hierarchy, batch_size=4, executor=ex
            ).run_cycle(estimate)
        assert rec.dumps, "no forensic dump written"
        for path in rec.dumps:
            rows = _read_rows(path)
            assert validate_spans_jsonl(rows) == []
            loaded = obs.read_spans_jsonl(path)
            assert [s.name for s in loaded.spans] == [
                r["name"] for r in rows if r["type"] == "span"
            ]
            assert [e.name for e in loaded.instants] == [
                r["name"] for r in rows if r["type"] == "instant"
            ]
        worker_lanes = {(r["pid"], r["tid"]) for r in rows[1:] if r["pid"] != os.getpid()}
        assert worker_lanes
        assert {r["name"] for r in rows[1:] if (r["pid"], r["tid"]) in worker_lanes} >= {
            "batch.quarantined"
        }

    @pytest.mark.parametrize(
        "backend",
        [[], ["--backend", "process", "--workers", "2"]],
        ids=["serial", "process"],
    )
    def test_one_dump_per_failing_batch(self, tmp_path, backend):
        """A terminal failure fires update.batch_failed then batch.quarantined;
        the pair writes one dump holding both, and each failure its own."""
        from repro.cli import main

        problem, flights = tmp_path / "h2.npz", tmp_path / "flights"
        assert main(["generate", "helix", "--length", "2", "--out", str(problem)]) == 0
        assert main(
            ["solve", str(problem), "--cycles", "2", "--faults", "chol=0.2,seed=3",
             "--max-retries", "1", "--flight-dir", str(flights),
             "--out", str(tmp_path / "est.npz"), *backend]
        ) == 0
        summary = json.loads((tmp_path / "est.summary.json").read_text())
        failures = summary["robustness"]["quarantined_batches"]
        assert failures >= 2
        dumps = sorted(flights.glob("flight-*.jsonl"))
        assert len(dumps) == min(5, failures)
        concluded = []
        for path in dumps:
            rows = _read_rows(path)
            assert validate_spans_jsonl(rows) == []
            assert rows[0]["reason"] == "update.batch_failed"
            names = [r["name"] for r in rows[1:] if r["type"] == "instant"]
            failed = names.count("update.batch_failed")
            assert failed == names.count("batch.quarantined") >= 1
            concluded.append(failed)
        assert concluded == sorted(concluded)
        if not backend:  # serially each dump adds exactly its own failure
            assert concluded == list(range(1, len(dumps) + 1))

    def test_recorder_does_not_change_results(self, two_group_problem):
        """Bit-identity: an active flight recorder must be observe-only."""
        coords, constraints, hierarchy, estimate = two_group_problem
        assign_constraints(hierarchy, constraints)
        plain = HierarchicalSolver(hierarchy, batch_size=4).run_cycle(estimate)
        with obs.flight_recording():
            recorded = HierarchicalSolver(hierarchy, batch_size=4).run_cycle(
                estimate
            )
        assert np.array_equal(plain.estimate.mean, recorded.estimate.mean)
        assert np.array_equal(
            plain.estimate.covariance, recorded.estimate.covariance
        )


# ------------------------------------------------------------- heartbeats
class TestTelemetrySnapshotter:
    def test_writes_meta_and_final_beat(self, tmp_path):
        registry = obs.MetricsRegistry()
        registry.counter("sched.busy_seconds").inc(1.5)
        path = tmp_path / "hb.jsonl"
        with obs.TelemetrySnapshotter(registry, path, period=60.0) as snap:
            registry.histogram("cycle.seconds").observe(0.25)
        # period far longer than the run: stop() still wrote one beat
        assert snap.beats >= 1
        rows = _read_rows(path)
        assert validate_spans_jsonl(rows) == []
        meta, beats = rows[0], rows[1:]
        assert meta["type"] == "meta"
        assert {r["type"] for r in beats} == {"metrics"}
        assert meta["period_seconds"] == 60.0
        last = beats[-1]["metrics"]
        assert last["counters"]["sched.busy_seconds"] == 1.5
        assert last["histograms"]["cycle.seconds"]["count"] == 1
        # the snapshotter prices itself into every beat
        assert "obs.snapshotter_overhead_seconds" in last["gauges"]
        assert [r["seq"] for r in beats] == list(range(snap.beats))

    def test_second_run_replaces_the_first(self, tmp_path):
        """A reused heartbeat path holds one run, as --trace and --out do."""
        path = tmp_path / "hb.jsonl"
        for run in range(2):
            registry = obs.MetricsRegistry()
            registry.counter("run").inc(run)
            with obs.TelemetrySnapshotter(registry, path, period=60.0) as snap:
                snap.beat()
        rows = _read_rows(path)
        assert validate_spans_jsonl(rows) == []
        assert [r["type"] for r in rows] == ["meta", "metrics", "metrics"]
        assert {r["metrics"]["counters"]["run"] for r in rows[1:]} == {1}

    def test_read_heartbeats(self, tmp_path):
        registry = obs.MetricsRegistry()
        path = tmp_path / "hb.jsonl"
        with obs.TelemetrySnapshotter(registry, path, period=60.0):
            pass
        meta, rows = obs.read_heartbeats(path)
        assert meta["period_seconds"] == 60.0
        assert rows and rows[0]["seq"] == 0

    def test_parse_heartbeat_spec(self):
        path, period = obs.parse_heartbeat_spec("hb.jsonl")
        assert str(path) == "hb.jsonl" and period == 1.0
        path, period = obs.parse_heartbeat_spec("out/hb.jsonl:0.25")
        assert str(path) == "out/hb.jsonl" and period == 0.25
        with pytest.raises(ValueError):
            obs.parse_heartbeat_spec("hb.jsonl:-1")


# ------------------------------------------------------------------- SLOs
class TestSLO:
    def test_spec_parse(self):
        spec = obs.SLOSpec.parse("cycle.seconds:2.0")
        assert spec == obs.SLOSpec("cycle.seconds", 2.0, 0.95)
        spec = obs.SLOSpec.parse("resolve.seconds:0.5:0.99")
        assert spec.objective == 0.99
        for bad in ("cycle.seconds", "m:0", "m:1:1.5", "m:1:0"):
            with pytest.raises(ValueError):
                obs.SLOSpec.parse(bad)

    def test_burn_rate_verdicts(self):
        spec = obs.SLOSpec("cycle.seconds", 1.0, objective=0.9)
        tracker = obs.SLOTracker(spec, window=10)
        assert tracker.verdict() == "no-data"
        tracker.update(good=99, bad=1)  # 1% bad vs 10% budget: burn 0.1
        assert tracker.verdict() == "ok"
        tracker.update(good=0, bad=15)  # now ~14% bad: burn ~1.4
        assert tracker.verdict() == "warn"
        tracker.update(good=0, bad=100)  # blows the budget
        assert tracker.verdict() == "breach"

    def test_good_bad_split_uses_bucket_representatives(self):
        from repro.obs.live import good_bad_from_buckets

        h = Histogram()
        for v in (0.1, 0.2, 5.0):
            h.observe(v)
        good, bad = good_bad_from_buckets(
            {str(i): n for i, n in h.buckets.items()}, target=1.0
        )
        assert (good, bad) == (2, 1)


# ------------------------------------------------------------------ obs top
def _beat(seq, ts, counters=None, gauges=None, histograms=None):
    return {
        "type": "metrics",
        "seq": seq,
        "ts": ts,
        "uptime_seconds": float(seq),
        "metrics": {
            "counters": counters or {},
            "gauges": gauges or {},
            "histograms": histograms or {},
        },
    }


class TestRenderTop:
    def test_renders_rates_levels_sessions_and_slo(self):
        h0 = {"count": 1, "buckets": {str(bucket_index(0.5)): 1}}
        h1 = {
            "count": 3,
            "buckets": {str(bucket_index(0.5)): 2, str(bucket_index(4.0)): 1},
        }
        rows = [
            _beat(
                0, 100.0,
                counters={"sched.busy_seconds": 0.0},
                histograms={"cycle.seconds": h0},
            ),
            _beat(
                1, 101.0,
                counters={
                    "sched.busy_seconds": 1.2,
                    "plan.cache_hits": 9.0,
                    "plan.cache_builds": 1.0,
                    "session.solves{backend=thread,session=s1}": 2.0,
                },
                gauges={"sched.workers": 2.0, "sched.inflight": 1.0},
                histograms={"cycle.seconds": h1},
            ),
        ]
        meta = {"period_seconds": 1.0, "pid": 123}
        out = obs.render_top(
            meta, rows, slo=obs.SLOSpec("cycle.seconds", 2.0), window=5
        )
        assert "workers 2  inflight 1  busy 60.0%" in out
        assert "plan-cache 90.0% hit" in out
        assert "cycle" in out and "p50" in out
        assert "SLO cycle.seconds <= 2s" in out
        assert "s1{backend=thread} solves=2" in out

    def test_empty_rows(self):
        assert obs.render_top({}, []) == "no heartbeats yet"

    def test_serial_solve_renders_one_busy_worker(self, helix2_problem, tmp_path):
        """The serial solver publishes the scheduler figures too: one
        worker, busy for its node seconds."""
        registry = obs.MetricsRegistry()
        path = tmp_path / "hb.jsonl"
        solver = HierarchicalSolver(helix2_problem.hierarchy, batch_size=16)
        with obs.metrics_scope(registry), obs.TelemetrySnapshotter(
            registry, path, period=60.0
        ) as snap:
            snap.beat()
            solver.run_cycle(helix2_problem.initial_estimate(0))
        meta, rows = obs.read_heartbeats(path)
        out = obs.render_top(meta, rows)
        assert "workers 1  inflight 0" in out
        busy = re.search(r"busy (\d+\.\d)%", out)
        assert busy is not None and float(busy.group(1)) > 0

    def test_slo_breach_shows_in_view(self):
        bad_bucket = {str(bucket_index(10.0)): 5}
        rows = [
            _beat(0, 10.0, histograms={"cycle.seconds": {"count": 5, "buckets": bad_bucket}}),
        ]
        out = obs.render_top({}, rows, slo=obs.SLOSpec("cycle.seconds", 1.0))
        assert "breach" in out


# ---------------------------------------------------------------- CLI: top
class TestObsTopCLI:
    def test_once_renders_and_exits_zero(self, tmp_path, capsys):
        from repro.cli import main

        registry = obs.MetricsRegistry()
        registry.histogram("cycle.seconds").observe(0.2)
        path = tmp_path / "hb.jsonl"
        with obs.TelemetrySnapshotter(registry, path, period=60.0):
            pass
        rc = main(
            ["obs", "top", str(path), "--once", "--slo", "cycle.seconds:2.0"]
        )
        out = capsys.readouterr().out
        assert rc == 0
        assert "repro obs top" in out
        assert "SLO cycle.seconds" in out

    def test_once_without_beats_exits_one(self, tmp_path, capsys):
        from repro.cli import main

        path = tmp_path / "hb.jsonl"
        path.write_text(
            json.dumps({"type": "meta", "period_seconds": 1.0})
            + "\n"
        )
        assert main(["obs", "top", str(path), "--once"]) == 1

    def test_once_missing_file_exits_one(self, tmp_path):
        from repro.cli import main

        assert main(["obs", "top", str(tmp_path / "none.jsonl"), "--once"]) == 1
