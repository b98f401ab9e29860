"""Discrete-event shared-memory multiprocessor simulator.

The paper's evaluation platforms — the Stanford DASH (32 MIPS R3000
processors in 8 bus-based clusters joined by a mesh, distributed memory,
directory cache coherence) and the SGI Challenge (16 MIPS R4400
processors on one bus, centralized memory) — no longer exist, and the
host running this reproduction is a single GIL-bound core.  This package
replaces them with a deterministic machine model that executes the *real*
kernel-event trace of the *real* solver:

1. the hierarchical solver records every kernel invocation (category,
   FLOPs, bytes, parallel width) tagged with its tree node;
2. :mod:`repro.machine.costmodel` prices each kernel on a processor group
   of a configured machine (sustained per-category FLOP rates, serial
   fractions, barrier latency, remote-memory penalties for distributed
   configurations);
3. :mod:`repro.machine.simulator` list-schedules the node tasks over the
   processor set under one of two policies — the paper's §4.3 static
   processor assignment (:class:`MachineSimulator`, honoring tree
   dependencies and processor exclusivity) or §5's dynamic wavefront
   re-grouping (:func:`dynamic_assignment_schedule`) — and reports the
   makespan plus the per-category per-processor busy-time breakdown of
   Tables 3-6.

Per-category sustained rates in the stock configurations were calibrated
once against the paper's 1-processor time breakdown on the Helix problem
and then held fixed; the ribo30S problem acts as out-of-sample validation
(predicted 941 s vs the paper's 925 s on DASH).
"""

from repro.machine.config import CHALLENGE, DASH, MachineConfig, uniform_machine
from repro.machine.costmodel import clusters_spanned, kernel_elapsed, node_elapsed
from repro.machine.gantt import gantt_chart
from repro.machine.simulator import (
    MachineSimulator,
    dynamic_assignment_schedule,
    simulate_solve,
)
from repro.machine.trace import CategoryBreakdown, NodeTimeline, SimulationResult

__all__ = [
    "CHALLENGE",
    "DASH",
    "CategoryBreakdown",
    "MachineConfig",
    "MachineSimulator",
    "NodeTimeline",
    "SimulationResult",
    "clusters_spanned",
    "dynamic_assignment_schedule",
    "gantt_chart",
    "kernel_elapsed",
    "node_elapsed",
    "simulate_solve",
    "uniform_machine",
]
