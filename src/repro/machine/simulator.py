"""List-scheduling simulation of the hierarchical solve on a machine model.

The unit of scheduling is a *node task*: the full kernel sequence one
hierarchy node executes on its assigned processor group.  Two policies
price the same recorded cycle, and both charge their tasks to one ledger
(:class:`_Ledger`), so their busy times, breakdowns and timelines are
directly comparable.

**Static groups** (:class:`MachineSimulator`, the paper's §4.3):

* a node starts only after all its children have finished (tree data
  dependency — the parent consumes the children's posteriors), and
* a node starts only when every processor of its group is free
  (groups are gang-scheduled: the intra-node kernels are parallel phases
  over the whole group).

Sibling subtrees with disjoint groups run concurrently — the hierarchy
axis of parallelism; subtrees sharing a processor serialize on it.  Both
behaviours fall out of the two rules above, including the paper's
observation that the Helix's binary tree loses efficiency whenever the
processor count is not a power of two (unequal sibling groups must
synchronize at the parent).

**Dynamic re-grouping** (:func:`dynamic_assignment_schedule`, the
paper's §5 proposal, built as an extension): processors are re-divided
by periodic global synchronization, here one epoch per wavefront of
ready (mutually independent) nodes.

* More processors than nodes → processors are split proportionally to
  the nodes' machine-priced work (largest-remainder rounding, every node
  at least one processor).
* More nodes than processors → nodes are packed onto processors with the
  LPT (longest-processing-time-first) rule and serialize per processor.

The epoch ends when its slowest processor finishes — the "periodic
global synchronization" — and the next wavefront is re-divided from
scratch.  The dynamic ablation shows re-grouping smoothing the helix's
non-power-of-2 speedup dips at the price of extra global barriers.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.assignment import ProcessorAssignment, _descend, assign_processors
from repro.core.hierarchy import Hierarchy, HierarchyNode
from repro.core.hier_solver import HierCycleResult, NodeSolveRecord
from repro.errors import SimulationError
from repro.linalg.counters import KernelEvent, OpCategory
from repro.machine.config import MachineConfig
from repro.machine.costmodel import node_elapsed
from repro.machine.trace import CategoryBreakdown, NodeTimeline, SimulationResult


class _Ledger:
    """Busy-time accounting of one simulated schedule on ``n_processors``."""

    def __init__(
        self,
        config: MachineConfig,
        records: dict[int, NodeSolveRecord],
        n_processors: int,
    ):
        if n_processors < 1:
            raise SimulationError("need at least one processor")
        if n_processors > config.n_processors:
            raise SimulationError(
                f"schedule needs {n_processors} processors, machine "
                f"{config.name} has {config.n_processors}"
            )
        self.config = config
        self.records = records
        self.busy = np.zeros(n_processors, dtype=np.float64)
        self.cat_busy = {c: 0.0 for c in OpCategory}
        self.timeline: list[NodeTimeline] = []

    def events(self, node: HierarchyNode) -> list[KernelEvent]:
        rec = self.records.get(node.nid)
        if rec is None:
            raise SimulationError(f"no solve record for node {node.nid}")
        return rec.events

    def run(self, node: HierarchyNode, rng: tuple[int, int], start: float) -> float:
        """Charge ``node`` to processors ``rng`` from ``start``; return its elapsed."""
        lo, hi = rng
        p = hi - lo
        elapsed, by_cat = node_elapsed(self.events(node), rng, self.config)
        self.busy[lo:hi] += elapsed
        for cat, t in by_cat.items():
            self.cat_busy[cat] += t * p
        self.timeline.append(
            NodeTimeline(node.nid, node.name, rng, start, start + elapsed)
        )
        return elapsed

    def result(self, machine: str, work_time: float) -> SimulationResult:
        n_procs = len(self.busy)
        breakdown = CategoryBreakdown(
            {c: self.cat_busy[c] / n_procs for c in OpCategory}
        )
        return SimulationResult(
            machine=machine,
            n_processors=n_procs,
            work_time=work_time,
            breakdown=breakdown,
            timeline=self.timeline,
            busy_per_processor=self.busy.tolist(),
        )


def _serial_seconds(events: list[KernelEvent], config: MachineConfig) -> float:
    """A node's single-processor compute time at the machine's rates."""
    return sum(e.flops / config.rates[e.category] for e in events)


@dataclass
class MachineSimulator:
    """Prices one recorded solve cycle on one machine configuration."""

    config: MachineConfig

    def simulate(
        self,
        hierarchy: Hierarchy,
        records: dict[int, NodeSolveRecord],
        assignment: ProcessorAssignment,
    ) -> SimulationResult:
        """Schedule the recorded node tasks; return makespan and breakdown.

        ``records`` maps node id → the solver's :class:`NodeSolveRecord`
        (its recorded kernel events); ``assignment`` fixes each node's
        processor range.  The simulation is deterministic.
        """
        n_procs = assignment.n_processors
        ledger = _Ledger(self.config, records, n_procs)
        proc_free = np.zeros(n_procs, dtype=np.float64)
        finish_time: dict[int, float] = {}

        for node in hierarchy.post_order():
            lo, hi = assignment.ranges[node.nid]
            data_ready = max((finish_time[c.nid] for c in node.children), default=0.0)
            procs_ready = float(proc_free[lo:hi].max(initial=0.0))
            start = max(data_ready, procs_ready)
            finish = start + ledger.run(node, (lo, hi), start)
            finish_time[node.nid] = finish
            proc_free[lo:hi] = finish

        return ledger.result(self.config.name, finish_time[hierarchy.root.nid])


def dynamic_assignment_schedule(
    hierarchy: Hierarchy,
    records: dict[int, NodeSolveRecord],
    config: MachineConfig,
    n_processors: int,
    sync_seconds: float = 1e-4,
) -> SimulationResult:
    """Simulate the dynamic re-grouping policy on ``config``.

    ``sync_seconds`` is the cost of one global synchronization /
    re-grouping boundary, charged once per epoch.
    """
    ledger = _Ledger(config, records, n_processors)
    now = 0.0
    for nodes in hierarchy.wavefronts():
        work1 = {n.nid: _serial_seconds(ledger.events(n), config) for n in nodes}
        epoch_finish = now
        if len(nodes) <= n_processors:
            shares = _largest_remainder([work1[n.nid] for n in nodes], n_processors)
            lo = 0
            for node, p in zip(nodes, shares):
                elapsed = ledger.run(node, (lo, lo + p), now)
                lo += p
                epoch_finish = max(epoch_finish, now + elapsed)
        else:
            # LPT packing: heaviest node first onto the least-loaded
            # processor.  Loads stay relative to the epoch start;
            # absolute clocks would round the timeline differently.
            loads = np.zeros(n_processors, dtype=np.float64)
            for node in sorted(nodes, key=lambda n: work1[n.nid], reverse=True):
                proc = int(np.argmin(loads))
                start = now + loads[proc]
                loads[proc] += ledger.run(node, (proc, proc + 1), start)
            epoch_finish = now + float(loads.max(initial=0.0))
        now = epoch_finish + sync_seconds
    return ledger.result(f"{config.name}+dynamic", now)


def _largest_remainder(work: list[float], p: int) -> list[int]:
    """Split ``p`` processors proportionally to ``work``; each share >= 1.

    Requires ``len(work) <= p``.  Zero or degenerate work vectors fall back
    to an even split.
    """
    n = len(work)
    if n > p:
        raise SimulationError("more nodes than processors in proportional split")
    total = sum(work)
    if total <= 0:
        shares = [1] * n
        for i in range(p - n):
            shares[i % n] += 1
        return shares
    raw = np.array([max(w, 0.0) / total * p for w in work])
    shares = np.maximum(1, np.floor(raw).astype(int))
    while shares.sum() > p:
        over = np.where(shares > 1)[0]
        i = over[int(np.argmax(shares[over] - raw[over]))]
        shares[i] -= 1
    while shares.sum() < p:
        i = int(np.argmax(raw - shares))
        shares[i] += 1
    return shares.tolist()


def simulate_solve(
    cycle: HierCycleResult,
    hierarchy: Hierarchy,
    config: MachineConfig,
    n_processors: int,
    model=None,
    batch_size: int = 16,
) -> SimulationResult:
    """Convenience wrapper: assign processors, then simulate a recorded cycle.

    ``model`` is the work-estimation model used by the static assignment;
    ``None`` uses the measured per-node FLOPs from the cycle itself priced
    at the machine's rates — an *oracle* work estimate, useful to isolate
    scheduling effects from work-model error.
    """
    records = cycle.record_by_nid()
    if model is None:
        assignment = _oracle_assignment(hierarchy, records, config, n_processors)
    else:
        assignment = assign_processors(hierarchy, n_processors, model, batch_size)
    return MachineSimulator(config).simulate(hierarchy, records, assignment)


def _oracle_assignment(
    hierarchy: Hierarchy,
    records: dict[int, NodeSolveRecord],
    config: MachineConfig,
    n_processors: int,
) -> ProcessorAssignment:
    """Assignment driven by the true single-processor cost of each node."""
    node_work: dict[int, float] = {}
    subtree: dict[int, float] = {}
    for node in hierarchy.post_order():
        own = _serial_seconds(records[node.nid].events, config)
        node_work[node.nid] = own
        subtree[node.nid] = own + sum(subtree[c.nid] for c in node.children)
    asg = ProcessorAssignment(
        n_processors=n_processors, node_work=node_work, subtree_work=subtree
    )
    root = hierarchy.root
    asg.procs[root.nid] = n_processors
    asg.ranges[root.nid] = (0, n_processors)
    _descend(root, n_processors, 0, asg)
    asg.validate(hierarchy)
    return asg
