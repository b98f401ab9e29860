"""The traced run: spans around each layer's public calls, and the layer split.

Nothing here touches ``src/``.  :meth:`SpanLog.instrumented` swaps the
public entry points of each layer for timing wrappers (and restores them
on exit); spans stay in memory and are written out when the run ends.
The program's own always-on kernel recorder supplies the kernel
categories, and an ``obs.metrics_scope`` — active only in the traced run,
because it makes workers ship their counters — supplies the plan-cache,
retry and resubmit counts.

How an op's wall time W is split (all on the dispatching thread):

* ``residual_s`` — W outside every wrapped call;
* ``solver.tree_self_s`` — time in the wrapped session and solver calls
  that no node, batch or dispatch span accounts for;
* serial backends: ``solver.node_s`` (the node seconds of the cycle
  records) splits into node self time (``solver.node_self_s``), and the
  batch updates: assembly (the recorder's ``vec`` seconds), the five
  kernel categories, and ``update.self_s``;
* process backend: ``parallel.submit_s``, the shared-memory spans and
  ``parallel.wait_s`` (blocked in ``concurrent.futures.wait`` while
  workers run).  Worker-side node, update, assembly and kernel seconds
  are then summed over workers — CPU seconds beside the wall split, not
  part of it.

Per-op metrics are means over the workload's measured ops: steady cycles
(every cycle but a solve's first) on the cold workloads, edit+resolve ops
on ``helix-edits``.
"""

from __future__ import annotations

import concurrent.futures
import functools
import json
import time
from contextlib import contextmanager
from pathlib import Path

import repro.core  # noqa: F401  - repro.molecules needs repro.core imported first
from repro import molecules, obs
from repro.core import hier_solver
from repro.core.hier_solver import HierarchicalSolver
from repro.core.session import SolveSession
from repro.parallel import ParallelHierarchicalSolver, ProcessExecutor, SharedEstimatePlane

KERNEL_CATEGORIES = ("d-s", "chol", "sys", "m-m", "m-v")

#: Program counters read per op through the traced run's metrics scope.
COUNTERS = (
    "plan.cache_builds",
    "plan.cache_hits",
    "session.cache_hits",
    "session.dirty_nodes",
    "update.retry_total",
    "solve.batches_quarantined",
    "executor.tasks_resubmitted",
)

#: Per-layer metrics in report order, with units.
PER_LAYER = (
    ("molecules.generate_s", "s"),
    ("hierarchy.assign_s", "s"),
    ("constraints.assembly_s", "s"),
    ("constraints.plan_builds", "count"),
    ("constraints.plan_hits", "count"),
    *(
        (f"linalg.{c}.{field}", unit)
        for c in KERNEL_CATEGORIES
        for field, unit in (("s", "s"), ("gflop", "GFLOP"), ("gb", "GB"))
    ),
    ("linalg.m-m.gflops", "GFLOP/s"),
    ("update.batches", "count"),
    ("update.apply_s", "s"),
    ("update.self_s", "s"),
    ("update.retries", "count"),
    ("update.quarantined", "count"),
    ("solver.nodes", "count"),
    ("solver.node_s", "s"),
    ("solver.node_self_s", "s"),
    ("solver.tree_self_s", "s"),
    ("session.dirty_nodes", "count"),
    ("session.cache_hits", "count"),
    ("parallel.tasks", "count"),
    ("parallel.submit_s", "s"),
    ("parallel.wait_s", "s"),
    ("parallel.task_wait_s", "s"),
    ("parallel.lane_busy_frac", "frac"),
    ("parallel.shm_put_s", "s"),
    ("parallel.shm_read_s", "s"),
    ("parallel.shm_promote_s", "s"),
    ("parallel.shm_bytes", "bytes"),
    ("parallel.resubmits", "count"),
    ("obs.trace_overhead_frac", "frac"),
    ("residual_s", "s"),
    ("residual_frac", "frac"),
)

#: Span names of the dispatching thread's parallel-layer calls.
_DISPATCH_SPANS = {
    "parallel.submit": "parallel.submit_s",
    "parallel.wait": "parallel.wait_s",
    "parallel.shm_put": "parallel.shm_put_s",
    "parallel.shm_read": "parallel.shm_read_s",
    "parallel.shm_promote": "parallel.shm_promote_s",
}


def _estimate_bytes(estimate) -> int:
    return estimate.mean.nbytes + estimate.covariance.nbytes


def _put_bytes(rec, args, handle) -> None:
    rec["attrs"]["bytes"] = _estimate_bytes(args[1])


def _read_bytes(rec, args, estimate) -> None:
    rec["attrs"]["bytes"] = _estimate_bytes(estimate)


class SpanLog:
    """In-memory spans (name, layer, start, end, parent, op) plus the wrappers.

    Spans open and close on the dispatching thread only; executor
    done-callbacks, which run on the pool's management thread, only set
    attributes on their submit span.
    """

    def __init__(self) -> None:
        self.t0 = time.perf_counter()
        self.spans: list[dict] = []
        self.op = -1
        self.registry = obs.MetricsRegistry()
        self._stack: list[int] = []
        #: span id → cycle result parts (records, recorder) kept off the JSON.
        self._cycles: dict[int, tuple] = {}
        #: Traced ÷ untraced wall − 1 of the same work, set by the runner.
        self.overhead_frac = 0.0

    # ------------------------------------------------------------ spans
    @contextmanager
    def span(self, name: str, layer: str, **attrs):
        rec = {
            "id": len(self.spans),
            "parent": self._stack[-1] if self._stack else -1,
            "op": self.op,
            "name": name,
            "layer": layer,
            "start": time.perf_counter(),
            "end": None,
            "attrs": attrs,
        }
        self.spans.append(rec)
        self._stack.append(rec["id"])
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            self._stack.pop()

    def _counters(self) -> dict[str, float]:
        return {name: self.registry.counter(name).value for name in COUNTERS}

    @contextmanager
    def op_span(self, kind: str, steady: bool = True):
        """One closed-loop op; every span opened inside carries its id."""
        before = self._counters()
        outer = self.op
        with self.span("op", "op", kind=kind, steady=steady) as rec:
            self.op = rec["id"]
            try:
                yield rec
            finally:
                self.op = outer
        after = self._counters()
        rec["attrs"]["counters"] = {k: after[k] - before[k] for k in COUNTERS}

    # --------------------------------------------------------- wrappers
    def _wrap(self, name: str, layer: str, original, after=None):
        log = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            with log.span(name, layer) as rec:
                result = original(*args, **kwargs)
            if after is not None:
                after(rec, args, result)
            return result

        return wrapper

    def _keep_cycle(self, rec, args, result) -> None:
        self._cycles[rec["id"]] = (result.records, result.recorder)

    @staticmethod
    def _stamp_done(rec, args, future) -> None:
        """A done-callback stamps when the task's result reached this process.

        It runs on the pool's management thread and only sets attributes.
        """

        def done(f) -> None:
            rec["attrs"]["done_after_s"] = time.perf_counter() - rec["start"]
            if not f.cancelled() and f.exception() is None:
                rec["attrs"]["worker_s"] = float(f.result()[3])

        future.add_done_callback(done)

    @contextmanager
    def instrumented(self):
        """Wrap every layer's entry points and activate the metrics scope."""
        targets = [
            (molecules, "build_ribo30s", "molecules.build_ribo30s", "molecules", None),
            (molecules, "build_helix", "molecules.build_helix", "molecules", None),
            (SolveSession, "__init__", "session.init", "hierarchy", None),
            (SolveSession, "solve", "session.solve", "session", None),
            (SolveSession, "resolve", "session.resolve", "session", None),
            (SolveSession, "add_constraints", "session.add_constraints", "session", None),
            (SolveSession, "update_constraints", "session.update_constraints", "session", None),
            (SolveSession, "remove_constraints", "session.remove_constraints", "session", None),
            (HierarchicalSolver, "run_cycle", "solver.run_cycle", "solver", self._keep_cycle),
            (ParallelHierarchicalSolver, "run_cycle", "solver.run_cycle", "solver", self._keep_cycle),
            # The serial solver's node loop looks apply_batch up in its own module.
            (hier_solver, "apply_batch", "update.apply_batch", "update", None),
            (SharedEstimatePlane, "put_prior", "parallel.shm_put", "parallel", _put_bytes),
            (SharedEstimatePlane, "read_posterior", "parallel.shm_read", "parallel", _read_bytes),
            (SharedEstimatePlane, "promote", "parallel.shm_promote", "parallel", None),
            (ProcessExecutor, "submit", "parallel.submit", "parallel", self._stamp_done),
            # Where the dependency dispatch loop blocks on its workers.
            (concurrent.futures, "wait", "parallel.wait", "parallel", None),
        ]
        saved = []
        for owner, attr, name, layer, after in targets:
            original = owner.__dict__[attr]
            saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(name, layer, original, after))
        try:
            with obs.metrics_scope(self.registry):
                yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    # ------------------------------------------------------- layer split
    def _op_split(self, op: dict, inside: list[dict]) -> dict[str, float]:
        """Charge one op's wall time to the layers (see the module docstring).

        ``inside`` are the spans opened during the op.
        """
        wall = op["end"] - op["start"]
        covered = sum(s["end"] - s["start"] for s in inside if s["parent"] == op["id"])
        records, events = [], []
        for s in inside:
            if s["id"] in self._cycles:
                recs, recorder = self._cycles[s["id"]]
                records.extend(recs)
                events.extend(recorder.events)
        out = {name: 0.0 for name, _ in PER_LAYER}
        for e in events:
            cat = e.category.value
            if cat == "vec":
                out["constraints.assembly_s"] += e.seconds
            else:
                out[f"linalg.{cat}.s"] += e.seconds
                out[f"linalg.{cat}.gflop"] += e.flops / 1e9
                out[f"linalg.{cat}.gb"] += e.bytes / 1e9
        event_s = out["constraints.assembly_s"] + sum(
            out[f"linalg.{c}.s"] for c in KERNEL_CATEGORIES
        )
        node_s = sum(r.seconds for r in records)
        applies = [s for s in inside if s["name"] == "update.apply_batch"]
        tasks = [s["attrs"] for s in inside if s["name"] == "parallel.submit"]
        if tasks:
            # Worker-side seconds: the worker's node timer brackets exactly
            # its batch loop, so apply time is node time there.
            apply_s = node_s
            out["update.batches"] = sum(r.n_batches for r in records)
            dispatch = 0.0
            for s in inside:
                metric = _DISPATCH_SPANS.get(s["name"])
                if metric is not None:
                    out[metric] += s["end"] - s["start"]
                    dispatch += s["end"] - s["start"]
                    out["parallel.shm_bytes"] += s["attrs"].get("bytes", 0)
            out["solver.tree_self_s"] = covered - dispatch
            out["parallel.tasks"] = len(tasks)
            out["parallel.task_wait_s"] = sum(
                t["done_after_s"] - t.get("worker_s", 0.0) for t in tasks if "done_after_s" in t
            )
        else:
            apply_s = sum(s["end"] - s["start"] for s in applies)
            out["update.batches"] = len(applies)
            out["solver.node_self_s"] = node_s - apply_s
            out["solver.tree_self_s"] = covered - node_s
        counters = op["attrs"]["counters"]
        out.update(
            {
                "constraints.plan_builds": counters["plan.cache_builds"],
                "constraints.plan_hits": counters["plan.cache_hits"],
                "update.apply_s": apply_s,
                "update.self_s": apply_s - event_s,
                "update.retries": counters["update.retry_total"],
                "update.quarantined": counters["solve.batches_quarantined"],
                "solver.nodes": len(records),
                "solver.node_s": node_s,
                "session.dirty_nodes": counters["session.dirty_nodes"],
                "session.cache_hits": counters["session.cache_hits"],
                "parallel.resubmits": counters["executor.tasks_resubmitted"],
                "residual_s": wall - covered,
                "wall_s": wall,
            }
        )
        return out

    def layer_metrics(self, kind: str, workers: int) -> dict[str, float]:
        """Per-op means over the measured ops of ``kind``, plus set-up spans."""
        ops = [
            s
            for s in self.spans
            if s["name"] == "op" and s["attrs"]["kind"] == kind and s["attrs"]["steady"]
        ]
        if not ops:
            raise RuntimeError(f"traced run recorded no steady {kind} ops")
        inside: dict[int, list[dict]] = {op["id"]: [] for op in ops}
        for s in self.spans:
            inside.get(s["op"], []).append(s)
        splits = [self._op_split(op, inside[op["id"]]) for op in ops]
        out = {name: sum(s[name] for s in splits) / len(splits) for name, _ in PER_LAYER}
        wall = sum(s["wall_s"] for s in splits)
        out["residual_frac"] = sum(s["residual_s"] for s in splits) / wall
        out["parallel.lane_busy_frac"] = sum(
            s["solver.node_s"] for s in splits if s["parallel.tasks"]
        ) / (workers * wall)
        mm_s = sum(s["linalg.m-m.s"] for s in splits)
        out["linalg.m-m.gflops"] = sum(s["linalg.m-m.gflop"] for s in splits) / mm_s if mm_s else 0.0
        setup = [s for s in self.spans if s["op"] == -1]
        for metric, layer in (("molecules.generate_s", "molecules"), ("hierarchy.assign_s", "hierarchy")):
            spans = [s["end"] - s["start"] for s in setup if s["layer"] == layer]
            out[metric] = sum(spans) / len(spans) if spans else 0.0
        out["obs.trace_overhead_frac"] = self.overhead_frac
        return out

    def write(self, path: Path) -> None:
        """Spans as JSON lines, times in seconds since the log was created."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            for s in self.spans:
                row = dict(s, start=s["start"] - self.t0, end=s["end"] - self.t0)
                fh.write(json.dumps(row) + "\n")
