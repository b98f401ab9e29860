"""Seeded, deterministic fault injection.

A :class:`FaultInjector` draws from one independent ``numpy`` Generator
per fault *channel*, so the schedule of injected faults is a pure
function of ``(seed, sequence of hook calls on that channel)`` — two runs
of the same deterministic workload under the same config inject exactly
the same faults, which is what makes failure-mode tests reproducible.

Channels and their hook points:

``nan``
    Kernel output poisoning: :func:`repro.linalg.kernels.gemm` /
    ``gemv`` / ``outer_update`` may overwrite one output element with
    NaN.  Caught by the update's finiteness detectors and retried.
``chol``
    Simulated factorization failure in
    :func:`repro.linalg.cholesky.cholesky_factor` (raises
    :class:`~repro.errors.InjectedFaultError` before LAPACK runs).
``corrupt``
    Constraint-batch corruption: one entry of the batch observation
    vector ``z`` becomes NaN inside the update attempt.
``crash``
    Worker/node crashes: executors draw one decision per submitted task
    (:meth:`FaultInjector.crash_schedule`), the serial hierarchical
    solver one per node attempt (:meth:`FaultInjector.maybe_crash`).
``slow``
    Simulated slow nodes: a short sleep at node entry, for exercising
    timeout/straggler handling without real stragglers.

Activation follows the same pattern as kernel recording: a module-level
context (:func:`fault_injection`) that hook sites query with
:func:`current_injector`.  With no active injector every hook is a
``None``-check and the solve path is bit-identical to an unhooked build.
"""

from __future__ import annotations

import contextlib
import time
from dataclasses import dataclass, replace
from typing import Iterator

import numpy as np

from repro import obs
from repro.errors import InjectedFaultError, WorkerCrashError

CHANNELS = ("nan", "chol", "corrupt", "crash", "slow")

_CRASH_MODES = ("raise", "kill")


@dataclass(frozen=True)
class FaultConfig:
    """Per-channel fault probabilities and the master seed.

    ``crash_mode`` selects how injected worker crashes manifest in the
    process-pool backend: ``"raise"`` makes the worker raise
    :class:`~repro.errors.WorkerCrashError` (a *soft* crash), ``"kill"``
    makes it hard-exit, taking its pool down (thread/serial backends
    always use the soft form).  ``slow_seconds`` is the sleep injected
    for each ``slow`` hit.
    """

    nan_p: float = 0.0
    chol_p: float = 0.0
    corrupt_p: float = 0.0
    crash_p: float = 0.0
    slow_p: float = 0.0
    seed: int = 0
    slow_seconds: float = 0.001
    crash_mode: str = "raise"

    def __post_init__(self) -> None:
        for ch in CHANNELS:
            p = getattr(self, f"{ch}_p")
            if not 0.0 <= p <= 1.0:
                raise ValueError(f"{ch}_p must be in [0, 1], got {p}")
        if self.crash_mode not in _CRASH_MODES:
            raise ValueError(f"crash_mode must be one of {_CRASH_MODES}")
        if self.slow_seconds < 0:
            raise ValueError("slow_seconds must be >= 0")

    @staticmethod
    def parse(spec: str) -> "FaultConfig":
        """Parse a CLI-style spec: ``"crash=0.05,nan=0.02,seed=7"``.

        Keys are the channel names (probabilities), plus ``seed``,
        ``slow-seconds`` and ``mode``.
        """
        cfg = FaultConfig()
        for part in filter(None, (p.strip() for p in spec.split(","))):
            if "=" not in part:
                raise ValueError(f"fault spec entry {part!r} is not key=value")
            key, value = (s.strip() for s in part.split("=", 1))
            if key in CHANNELS:
                cfg = replace(cfg, **{f"{key}_p": float(value)})
            elif key == "seed":
                cfg = replace(cfg, seed=int(value))
            elif key in ("slow-seconds", "slow_seconds"):
                cfg = replace(cfg, slow_seconds=float(value))
            elif key == "mode":
                cfg = replace(cfg, crash_mode=value)
            else:
                raise ValueError(
                    f"unknown fault spec key {key!r}; channels are {CHANNELS}"
                )
        return cfg


class FaultInjector:
    """Draws deterministic per-channel fault decisions and applies them.

    Attributes
    ----------
    injected:
        Count of faults actually injected, per channel.
    draws:
        Count of decisions drawn, per channel (injected + clean).
    """

    def __init__(self, config: FaultConfig):
        self.config = config
        self._rngs = {
            ch: np.random.default_rng((int(config.seed), i))
            for i, ch in enumerate(CHANNELS)
        }
        self.injected = {ch: 0 for ch in CHANNELS}
        self.draws = {ch: 0 for ch in CHANNELS}

    # ------------------------------------------------------------- drawing
    def _hit(self, channel: str, site: str | None = None) -> bool:
        p = getattr(self.config, f"{channel}_p")
        if p <= 0.0:
            return False
        self.draws[channel] += 1
        hit = bool(self._rngs[channel].random() < p)
        if hit:
            self.injected[channel] += 1
            # ``site`` names where the fault landed (kernel, cholesky,
            # batch...) so the flight recorder's ring carries enough
            # forensic context without cross-referencing a full trace.
            if site is not None:
                obs.instant("fault.injected", cat="fault", channel=channel, site=site)
            else:
                obs.instant("fault.injected", cat="fault", channel=channel)
            obs.inc(f"faults.injected.{channel}")
        return hit

    # ---------------------------------------------------------- channel hooks
    def maybe_poison(self, out: np.ndarray, site: str = "kernel") -> np.ndarray:
        """Possibly overwrite one element of a kernel output with NaN."""
        if not self._hit("nan", site=site):
            return out
        poisoned = np.array(out, dtype=np.float64, copy=True)
        flat = poisoned.reshape(-1)
        idx = int(self._rngs["nan"].integers(flat.size)) if flat.size else 0
        if flat.size:
            flat[idx] = np.nan
        return poisoned

    def maybe_fail_cholesky(self) -> None:
        """Possibly abort a factorization before it runs."""
        if self._hit("chol", site="cholesky"):
            raise InjectedFaultError("injected Cholesky factorization failure")

    def maybe_corrupt(self, z: np.ndarray) -> np.ndarray:
        """Possibly corrupt one entry of a batch observation vector."""
        if not self._hit("corrupt"):
            return z
        corrupted = np.array(z, dtype=np.float64, copy=True)
        if corrupted.size:
            idx = int(self._rngs["corrupt"].integers(corrupted.size))
            corrupted[idx] = np.nan
        return corrupted

    def maybe_crash(self, site: str = "node") -> None:
        """Possibly simulate a crashed node/worker (raises)."""
        if self._hit("crash"):
            raise WorkerCrashError(f"injected crash at {site}")

    def crash_schedule(self, n: int) -> list[bool]:
        """Draw ``n`` crash decisions at once (executor submit order)."""
        return [self._hit("crash") for _ in range(n)]

    def maybe_sleep(self) -> None:
        """Possibly stall, simulating a slow node."""
        if self._hit("slow") and self.config.slow_seconds > 0:
            time.sleep(self.config.slow_seconds)

    # ------------------------------------------------------------- reporting
    def summary(self) -> dict[str, dict[str, int]]:
        """Draw/injection counts per channel, for logs and assertions."""
        return {
            ch: {"draws": self.draws[ch], "injected": self.injected[ch]}
            for ch in CHANNELS
        }

    def since(self, summary: dict[str, dict[str, int]]) -> dict[str, dict[str, int]]:
        """The counts drawn since ``summary`` (an earlier :meth:`summary`)."""
        return {
            ch: {k: n - summary[ch][k] for k, n in counts.items()}
            for ch, counts in self.summary().items()
        }

    def add(self, counts: dict[str, dict[str, int]]) -> None:
        """Count another injector's draws (:meth:`since` in a process worker)."""
        for ch, c in counts.items():
            self.draws[ch] += c["draws"]
            self.injected[ch] += c["injected"]


# ----------------------------------------------------------- active context
_ACTIVE: FaultInjector | None = None


def current_injector() -> FaultInjector | None:
    """The injector hook sites should consult, or ``None`` (the default)."""
    return _ACTIVE


@contextlib.contextmanager
def fault_injection(injector: FaultInjector) -> Iterator[FaultInjector]:
    """Activate ``injector`` for the dynamic extent of the ``with`` block."""
    global _ACTIVE
    previous = _ACTIVE
    _ACTIVE = injector
    try:
        yield injector
    finally:
        _ACTIVE = previous
