"""Kernel pricing: elapsed time of one kernel on a processor group.

The model composes four effects:

* **Computation** — ``flops / rate[category]`` for one processor, divided
  over the group bounded by the kernel's natural parallel width
  (``parallel_rows``) and the category's Amdahl serial fraction.
* **Synchronization** — kernels on ``p > 1`` processors end with a
  log-depth barrier.
* **Remote memory (distributed machines)** — when a group spans more
  than one cluster, the category's remote-traffic fraction of the
  kernel's bytes pays the remote per-byte cost.  The fraction of traffic
  that is remote grows with the number of clusters spanned
  (``1 − 1/clusters``), mirroring DASH's directory protocol where a
  line's home is fixed and the chance a reference stays local shrinks as
  the group spreads.
* **Bus contention (centralized machines)** — a kernel's cache-miss
  traffic must cross the one shared bus.  With one processor that
  streaming overlaps computation (it is part of the calibrated sustained
  rate); with ``p`` processors the bus serves ``p`` concurrent miss
  streams serially, exposing ``(1 − 1/p)`` of the traffic time as extra
  elapsed time.
"""

from __future__ import annotations

import math

from repro.errors import SimulationError
from repro.linalg.counters import KernelEvent, OpCategory
from repro.machine.config import MachineConfig


def clusters_spanned(proc_range: tuple[int, int], cluster_size: int) -> int:
    """Number of bus clusters touched by processor ids ``[lo, hi)``."""
    lo, hi = proc_range
    if hi <= lo:
        raise SimulationError(f"empty processor range {proc_range}")
    return hi // cluster_size - lo // cluster_size + (1 if hi % cluster_size else 0)


def kernel_elapsed(
    event: KernelEvent, proc_range: tuple[int, int], cfg: MachineConfig
) -> float:
    """Elapsed seconds of ``event`` executed by the processors ``[lo, hi)``."""
    lo, hi = proc_range
    p = hi - lo
    if p < 1:
        raise SimulationError(f"empty processor range {proc_range}")
    cat = event.category
    t1 = event.flops / cfg.rates[cat]
    p_eff = max(1, min(p, event.parallel_rows))
    f = cfg.serial_fraction.get(cat, 0.0)
    t = t1 * (f + (1.0 - f) / p_eff)
    if p > 1:
        t += cfg.barrier_seconds * math.ceil(math.log2(p))
        if cfg.distributed:
            from repro.machine.placement import remote_share

            share = remote_share(cfg.placement, proc_range, cfg)
            if share > 0.0:
                frac = cfg.remote_traffic_fraction.get(cat, 0.0) * share
                byte_cost = cfg.remote_byte_seconds
                if cfg.topology == "mesh":
                    from repro.machine.topology import hop_cost_multiplier

                    byte_cost *= hop_cost_multiplier(
                        proc_range, cfg.cluster_size, cfg.n_clusters, cfg.hop_penalty
                    )
                t += event.bytes * frac * byte_cost
        else:
            frac = cfg.bus_traffic_fraction.get(cat, 0.0)
            t += event.bytes * frac * (1.0 - 1.0 / p) * cfg.bus_byte_seconds
    return t


def node_elapsed(
    events: list[KernelEvent], proc_range: tuple[int, int], cfg: MachineConfig
) -> tuple[float, dict[OpCategory, float]]:
    """Total elapsed time of a node's kernel sequence on its group.

    Kernels within one node are a dependency chain (each batch's steps
    feed the next), so elapsed times add.  Returns the total and the
    per-category split.
    """
    by_cat = {c: 0.0 for c in OpCategory}
    for e in events:
        by_cat[e.category] += kernel_elapsed(e, proc_range, cfg)
    return sum(by_cat.values()), by_cat
