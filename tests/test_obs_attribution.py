"""Recorder-tag and span attribution under the parallel solver.

The hierarchical solvers attribute every kernel event to its tree node
through ``Recorder.tagged(nid)``; the parallel scheduler must preserve
that attribution when node updates run in pool threads or in worker
*processes* (whose events travel back pickled and are merged into the
dispatching recorder).  These tests pin the contract for all three
executor backends against the serial solver's reference attribution,
and check the analogous span-side attribution after a cross-process
``Tracer.merge``.
"""

import numpy as np
import pytest

from repro import obs
from repro.core.hier_solver import HierarchicalSolver
from repro.core.hierarchy import assign_constraints
from repro.faults import FaultConfig, FaultInjector, fault_injection
from repro.linalg import get_workspace
from repro.linalg.counters import recording
from repro.obs.tracer import Tracer
from repro.parallel import (
    ParallelHierarchicalSolver,
    ProcessExecutor,
    SerialExecutor,
    ThreadExecutor,
)
from repro.util.timer import WallClock


class FakeClock(WallClock):
    def __init__(self, t=0.0):
        self.t = t

    def now(self):
        return self.t

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


def _flops_by_tag(events):
    out: dict[object, float] = {}
    for e in events:
        out[e.tag] = out.get(e.tag, 0.0) + e.flops
    return out


class TestRecorderAttribution:
    @pytest.fixture
    def reference(self, assigned_problem):
        """The serial solver's attribution from a cold plan cache.

        A plan build is recorded only on a cache miss, so the fixture
        empties this thread's arena before and after its run: the run
        under test then compiles its plans too, whichever thread it is on.
        """
        hierarchy, estimate = assigned_problem
        get_workspace().clear()
        cycle = HierarchicalSolver(hierarchy, batch_size=4).run_cycle(estimate)
        get_workspace().clear()
        return _flops_by_tag(cycle.recorder.events)

    @pytest.mark.parametrize("backend", sorted(EXECUTORS))
    def test_events_tagged_with_node_ids(self, assigned_problem, backend):
        hierarchy, estimate = assigned_problem
        with EXECUTORS[backend]() as ex:
            cycle = ParallelHierarchicalSolver(
                hierarchy, batch_size=4, executor=ex
            ).run_cycle(estimate)
        events = cycle.recorder.events
        assert events
        node_ids = {n.nid for n in hierarchy.nodes}
        assert {e.tag for e in events} <= node_ids
        # every node with constraints contributed tagged work
        constrained = {n.nid for n in hierarchy.nodes if n.constraints}
        assert {e.tag for e in events} == constrained

    @pytest.mark.parametrize("backend", sorted(EXECUTORS))
    def test_per_node_flops_match_serial_reference(
        self, assigned_problem, reference, backend
    ):
        hierarchy, estimate = assigned_problem
        with EXECUTORS[backend]() as ex:
            cycle = ParallelHierarchicalSolver(
                hierarchy, batch_size=4, executor=ex
            ).run_cycle(estimate)
        assert _flops_by_tag(cycle.recorder.events) == reference

    @pytest.mark.parametrize("backend", sorted(EXECUTORS))
    def test_events_land_in_parent_recorder(
        self, assigned_problem, reference, backend
    ):
        """Worker-recorded events must reach a recorder activated by the parent."""
        hierarchy, estimate = assigned_problem
        with EXECUTORS[backend]() as ex, recording() as rec:
            solver = ParallelHierarchicalSolver(hierarchy, batch_size=4, executor=ex)
            cycle = solver.run_cycle(estimate)
        assert cycle.recorder is rec  # the outer recorder is the merge target
        assert _flops_by_tag(rec.events) == reference
        # the per-node record views agree with the merged stream
        by_tag = rec.events_by_tag()
        for record in cycle.records:
            assert [e.flops for e in record.events] == [
                e.flops for e in by_tag.get(record.nid, [])
            ]


class TestSpanAttribution:
    @pytest.mark.parametrize("backend", sorted(EXECUTORS))
    def test_node_spans_attributed_across_backends(self, assigned_problem, backend):
        hierarchy, estimate = assigned_problem
        tracer = obs.Tracer()
        with EXECUTORS[backend]() as ex, obs.tracing(tracer):
            ParallelHierarchicalSolver(
                hierarchy, batch_size=4, executor=ex
            ).run_cycle(estimate)
        node_spans = [sp for sp in tracer.spans if sp.name.startswith("node[")]
        assert {sp.attrs["nid"] for sp in node_spans} == {
            n.nid for n in hierarchy.nodes
        }
        # every kernel span's nearest node ancestor matches the node that
        # the equivalent recorder event was tagged with
        for kernel in tracer.find(cat="kernel"):
            nodes = [
                s for s in tracer.ancestry(kernel) if s.name.startswith("node[")
            ]
            assert nodes, "kernel span detached from its node"
            assert nodes[0].attrs["nid"] in {n.nid for n in hierarchy.nodes}

    def test_node_spans_carry_one_attribute_set(self, assigned_problem):
        """Serial, thread and process node spans carry the same attributes,
        with the same values."""
        hierarchy, estimate = assigned_problem
        keys = {
            "nid", "node_name", "depth", "state_dim", "rows", "n_constraints",
            "leaf", "batch_size", "parent_nid", "n_batches",
        }
        attrs = {}
        for backend in ("serial", "thread", "process"):
            tracer = obs.Tracer()
            with obs.tracing(tracer):
                if backend == "serial":
                    HierarchicalSolver(hierarchy, batch_size=4).run_cycle(estimate)
                else:
                    with EXECUTORS[backend]() as ex:
                        ParallelHierarchicalSolver(
                            hierarchy, batch_size=4, executor=ex
                        ).run_cycle(estimate)
            attrs[backend] = {
                sp.attrs["nid"]: sp.attrs
                for sp in tracer.spans
                if sp.name.startswith("node[")
            }
            assert set(attrs[backend]) == {n.nid for n in hierarchy.nodes}
            assert all(set(a) == keys for a in attrs[backend].values()), backend
        assert attrs["thread"] == attrs["serial"]
        assert attrs["process"] == attrs["serial"]

    def test_process_spans_reparented_under_cycle(self, assigned_problem):
        hierarchy, estimate = assigned_problem
        tracer = obs.Tracer()
        with ProcessExecutor(2) as ex, obs.tracing(tracer):
            ParallelHierarchicalSolver(
                hierarchy, batch_size=4, executor=ex
            ).run_cycle(estimate)
        for sp in tracer.spans:
            if not sp.name.startswith("node["):
                continue
            assert [s.name for s in tracer.ancestry(sp)] == ["cycle"]
        # worker processes show up as separate trace lanes
        pids = {sp.pid for sp in tracer.spans}
        assert len(pids) >= 2
        doc = {"traceEvents": obs.chrome_trace_events(tracer)}
        assert obs.validate_chrome_trace(doc) == []


class TestTracerMergeEdgeCases:
    """Cross-process merge corners: zero-span workers, clock skew, rebuilds."""

    def _worker_tracer(self, epoch_skew=0.0, clock_t=0.0):
        tr = Tracer(clock=FakeClock(clock_t))
        tr.epoch += epoch_skew  # simulate a worker whose clock domain differs
        return tr

    def test_fully_empty_payload_is_a_noop(self):
        parent = Tracer(clock=FakeClock())
        with parent.span("dispatch"):
            pass
        before = list(parent.spans)
        parent.merge(None, parent_id=before[0].span_id)
        parent.merge(
            {"epoch": parent.epoch + 1e6, "spans": [], "instants": []},
            parent_id=before[0].span_id,
        )
        assert parent.spans == before
        assert parent.instants == []

    def test_zero_span_worker_still_ships_instants(self):
        """A worker whose task recorded no spans (e.g. an injected fault
        before any node work) still gets its instants onto the timeline."""
        parent = Tracer(clock=FakeClock())
        with parent.span("dispatch") as dispatch:
            pass
        worker = self._worker_tracer(epoch_skew=100.0, clock_t=2.0)
        worker.instant("fault.crash", cat="fault", nid=3)
        parent.merge(worker.payload(), parent_id=dispatch.span_id)
        assert parent.spans == [dispatch]  # no phantom spans appear
        (ev,) = parent.instants
        assert ev.name == "fault.crash"
        assert ev.parent_id == dispatch.span_id  # orphan re-parented
        # epochs align wall time: the instant was recorded at the worker's
        # construction instant (~ the parent's 0.0), shifted by the skew
        assert ev.ts == pytest.approx(100.0, abs=0.05)

    def test_epoch_rebase_under_clock_skew(self):
        """Worker timestamps land on the parent timeline even when the two
        monotonic clock domains are wildly offset (fresh process epochs)."""
        parent = Tracer(clock=FakeClock(5.0))
        with parent.span("dispatch") as dispatch:
            parent.clock.t = 6.0
        skew = -1234.5
        worker = self._worker_tracer(epoch_skew=skew, clock_t=1000.0)
        with worker.span("node[7]", nid=7):
            worker.clock.t = 1000.25
        parent.merge(worker.payload(), parent_id=dispatch.span_id)
        merged = next(sp for sp in parent.spans if sp.name == "node[7]")
        # the span opened at the worker's construction instant, which is
        # the parent's clock reading 5.0 in wall terms, plus the skew
        assert merged.start == pytest.approx(5.0 + skew, abs=0.05)
        assert merged.end == pytest.approx(5.25 + skew, abs=0.05)
        assert merged.duration == pytest.approx(0.25)  # durations survive

    def test_merge_remaps_ids_and_preserves_internal_links(self):
        parent = Tracer(clock=FakeClock())
        with parent.span("dispatch") as dispatch:
            pass
        worker = self._worker_tracer()
        with worker.span("node[1]", nid=1):
            worker.clock.t = 1.0
            with worker.span("batch"):
                worker.clock.t = 2.0
        parent.merge(worker.payload(), parent_id=dispatch.span_id)
        by_name = {sp.name: sp for sp in parent.spans}
        assert len({sp.span_id for sp in parent.spans}) == len(parent.spans)
        # the worker's root hangs under the dispatch span; internal
        # parent links follow the id remap
        assert by_name["node[1]"].parent_id == dispatch.span_id
        assert by_name["batch"].parent_id == by_name["node[1]"].span_id

    def test_worker_metrics_survive_pool_rebuild(self, two_group_problem):
        """Two sessions over a kill-mode process pool: every worker task's
        series comes home, although the pool was rebuilt under them."""
        from repro.core.session import SolveSession

        coords, constraints, hierarchy, estimate = two_group_problem
        registry = obs.MetricsRegistry()
        inj = FaultInjector(FaultConfig(crash_p=0.5, seed=0, crash_mode="kill"))
        with ProcessExecutor(2) as ex, obs.metrics_scope(registry), \
                fault_injection(inj):
            for _ in range(2):
                with SolveSession(
                    hierarchy, constraints, batch_size=4, executor=ex
                ) as session:
                    session.solve(estimate, max_cycles=1, tol=0.0)
        assert inj.injected["crash"] > 0  # workers really died
        assert registry.counter("executor.pool_rebuilds").value > 0
        counters = registry.snapshot()["counters"]
        assert counters["session.solves"] == 2
        # every node's task of both solves was counted despite the rebuilds
        n_tasks = 2 * len(hierarchy.nodes)
        assert counters["sched.tasks_completed"] == n_tasks
        assert registry.histogram("node.seconds").count == n_tasks

    def test_attribution_survives_process_pool_rebuild(self, assigned_problem):
        """kill-mode faults hard-exit workers mid-cycle; the executor
        rebuilds the pool and resubmits, and the retried node solves must
        still come back attributed and correctly re-parented."""
        hierarchy, estimate = assigned_problem
        tracer = obs.Tracer()
        inj = FaultInjector(FaultConfig(crash_p=1.0, seed=0, crash_mode="kill"))
        with ProcessExecutor(2) as ex, fault_injection(inj), obs.tracing(tracer):
            ParallelHierarchicalSolver(
                hierarchy, batch_size=4, executor=ex
            ).run_cycle(estimate)
        assert inj.injected["crash"] > 0  # workers really died
        node_spans = [sp for sp in tracer.spans if sp.name.startswith("node[")]
        assert {sp.attrs["nid"] for sp in node_spans} == {
            n.nid for n in hierarchy.nodes
        }
        for sp in node_spans:
            chain = [s.name for s in tracer.ancestry(sp)]
            assert chain and chain[-1] == "cycle"
        # the rebuilt pool's spans still analyze: one pass, full DAG
        report = obs.doctor_report(tracer, hierarchy=hierarchy)
        assert len(report["passes"]) == 1
        assert len(report["dag"]["edges"]) == len(list(hierarchy.nodes))
