"""Per-node checkpoint/resume for the hierarchical solve.

Structure-determination runs are long (20-200 cycles over thousands of
constraints); a crash near the end of a cycle should not cost the whole
cycle.  :class:`CheckpointManager` persists, inside one directory:

* ``manifest.json`` — which cycle is in progress, which post-order nodes
  of it have completed, and which whole cycles are done;
* ``node_<nid>.npz`` — each completed node's posterior for the
  in-progress cycle (the existing :mod:`repro.io` estimate format);
* ``cycle_<k>.npz`` — the output estimate of every completed cycle.

:class:`~repro.core.hier_solver.HierarchicalSolver` consults the manager
at every node: completed nodes are loaded instead of recomputed, so a
killed solve restarted against the same directory resumes from its last
completed post-order node and (estimates being serialized losslessly)
produces bitwise-identical results to an uninterrupted run.  Completed
cycles are replayed from their stored outputs, which is what lets a
multi-cycle ``solve()`` restart skip straight to the interrupted cycle.

All writes are atomic (temp file + ``os.replace``) so a crash mid-write
never leaves a truncated archive behind.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

from repro import obs
from repro.core.state import StructureEstimate
from repro.errors import CheckpointError
from repro.io import load_estimate, save_estimate

_MANIFEST = "manifest.json"
_VERSION = 1


class CheckpointManager:
    """Owns one checkpoint directory; safe to reuse across solver restarts."""

    def __init__(self, directory: str | Path):
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self._manifest = self._load_manifest()
        self.nodes_resumed = 0
        self.cycles_replayed = 0

    # ------------------------------------------------------------- manifest
    def _manifest_path(self) -> Path:
        return self.directory / _MANIFEST

    def _load_manifest(self) -> dict:
        path = self._manifest_path()
        if not path.exists():
            return {
                "version": _VERSION,
                "n_atoms": None,
                "completed_cycles": [],
                "current_cycle": None,
                "completed_nodes": [],
            }
        try:
            manifest = json.loads(path.read_text())
        except (OSError, json.JSONDecodeError) as exc:
            raise CheckpointError(f"unreadable checkpoint manifest {path}") from exc
        if manifest.get("version") != _VERSION:
            raise CheckpointError(
                f"checkpoint manifest {path} has version "
                f"{manifest.get('version')!r}, expected {_VERSION}"
            )
        return manifest

    def _write_manifest(self) -> None:
        tmp = self._manifest_path().with_suffix(".json.tmp")
        tmp.write_text(json.dumps(self._manifest))
        os.replace(tmp, self._manifest_path())

    # --------------------------------------------------------------- binding
    def bind(self, n_atoms: int, constraints_token: str | None = None) -> None:
        """Attach the manager to a problem size; rejects a foreign directory.

        ``constraints_token`` is a content fingerprint of the constraint
        set being solved (see :func:`repro.io.assigned_constraints_token`).
        Cached node and cycle estimates are only valid for the exact
        constraint set that produced them; when the token differs from the
        recorded one — the problem was edited between runs — every cached
        artifact is discarded instead of being silently replayed stale.
        """
        recorded = self._manifest.get("n_atoms")
        if recorded is None:
            self._manifest["n_atoms"] = int(n_atoms)
            self._write_manifest()
        elif recorded != n_atoms:
            raise CheckpointError(
                f"checkpoint directory {self.directory} belongs to a "
                f"{recorded}-atom problem, not {n_atoms} atoms"
            )
        if constraints_token is not None:
            known = self._manifest.get("constraints_token")
            if known is not None and known != constraints_token:
                obs.instant(
                    "checkpoint.invalidated",
                    cat="checkpoint",
                    reason="constraints_changed",
                )
                obs.inc("checkpoint.invalidations")
                self._discard_node_files()
                for path in self.directory.glob("cycle_*.npz"):
                    path.unlink(missing_ok=True)
                self._manifest["completed_cycles"] = []
                self._manifest["current_cycle"] = None
                self._manifest["completed_nodes"] = []
            self._manifest["constraints_token"] = constraints_token
            self._write_manifest()

    # ---------------------------------------------------------------- cycles
    def _cycle_path(self, k: int) -> Path:
        return self.directory / f"cycle_{k:04d}.npz"

    def completed_cycle_estimate(self, k: int) -> StructureEstimate | None:
        """The stored output of cycle ``k``, or ``None`` if not completed."""
        if k not in self._manifest["completed_cycles"]:
            return None
        path = self._cycle_path(k)
        if not path.exists():
            raise CheckpointError(f"manifest lists cycle {k} but {path} is missing")
        self.cycles_replayed += 1
        obs.instant("checkpoint.cycle_replayed", cat="checkpoint", cycle=k)
        obs.inc("checkpoint.cycles_replayed")
        return load_estimate(path)

    def start_cycle(self, k: int) -> None:
        """Begin (or resume) cycle ``k``; discards nodes of any other cycle."""
        if self._manifest["current_cycle"] == k:
            return  # resuming: keep the completed-node set
        self._discard_node_files()
        self._manifest["current_cycle"] = k
        self._manifest["completed_nodes"] = []
        self._write_manifest()

    def finish_cycle(self, k: int, estimate: StructureEstimate) -> None:
        """Record cycle ``k`` complete with ``estimate`` as its output."""
        with obs.span("checkpoint.finish_cycle", cat="checkpoint", cycle=k):
            save_estimate(self._cycle_path(k), estimate, atomic=True)
        if k not in self._manifest["completed_cycles"]:
            self._manifest["completed_cycles"].append(k)
        self._manifest["current_cycle"] = None
        self._manifest["completed_nodes"] = []
        self._write_manifest()
        self._discard_node_files()

    # ----------------------------------------------------------------- nodes
    def _node_path(self, nid: int) -> Path:
        return self.directory / f"node_{nid}.npz"

    def has_node(self, nid: int) -> bool:
        return nid in self._manifest["completed_nodes"]

    def load_node(self, nid: int) -> StructureEstimate:
        path = self._node_path(nid)
        if not self.has_node(nid) or not path.exists():
            raise CheckpointError(f"no checkpoint for node {nid} in {self.directory}")
        self.nodes_resumed += 1
        obs.inc("checkpoint.nodes_resumed")
        with obs.span("checkpoint.load_node", cat="checkpoint", nid=nid):
            return load_estimate(path)

    def save_node(self, nid: int, estimate: StructureEstimate) -> None:
        with obs.span("checkpoint.save_node", cat="checkpoint", nid=nid):
            save_estimate(self._node_path(nid), estimate, atomic=True)
            if nid not in self._manifest["completed_nodes"]:
                self._manifest["completed_nodes"].append(nid)
            self._write_manifest()
        obs.inc("checkpoint.nodes_saved")

    def _discard_node_files(self) -> None:
        for path in self.directory.glob("node_*.npz"):
            path.unlink(missing_ok=True)

    # ----------------------------------------------------------------- admin
    def clear(self) -> None:
        """Forget everything (fresh solve against a reused directory)."""
        self._discard_node_files()
        for path in self.directory.glob("cycle_*.npz"):
            path.unlink(missing_ok=True)
        self._manifest = {
            "version": _VERSION,
            "n_atoms": None,
            "completed_cycles": [],
            "current_cycle": None,
            "completed_nodes": [],
        }
        self._write_manifest()


_SESSION_MANIFEST = "session.json"
_SESSION_VERSION = 1


class SessionStore:
    """On-disk snapshot of a :class:`repro.core.session.SolveSession`.

    One directory holds:

    * ``session.json`` — constraint set (canonical encodings, in session
      order), hierarchy topology, per-node cache generations, the staged
      dirty set, and the in-progress re-solve generation (if any);
    * ``cycle_input.npz`` — the warm-start estimate the cached pass ran
      from;
    * ``node_<nid>.npz`` — each cached node posterior.

    The store is deliberately mechanism-only: the session layer decides
    *what* is valid (generation tags, dirty sets); the store guarantees
    that every write is atomic, so a session killed mid-re-solve leaves a
    directory from which :meth:`SolveSession.load` resumes warm — already
    recomputed dirty nodes carry the new generation and are not redone,
    and no node whose constraints changed can be replayed stale (its
    generation still predates the staged re-solve).
    """

    def __init__(self, directory: str | Path):
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)

    # ------------------------------------------------------------- manifest
    def _manifest_path(self) -> Path:
        return self.directory / _SESSION_MANIFEST

    def load_manifest(self) -> dict:
        path = self._manifest_path()
        if not path.exists():
            raise CheckpointError(f"no session manifest in {self.directory}")
        try:
            manifest = json.loads(path.read_text())
        except (OSError, json.JSONDecodeError) as exc:
            raise CheckpointError(f"unreadable session manifest {path}") from exc
        if manifest.get("version") != _SESSION_VERSION:
            raise CheckpointError(
                f"session manifest {path} has version "
                f"{manifest.get('version')!r}, expected {_SESSION_VERSION}"
            )
        return manifest

    def save_manifest(self, manifest: dict) -> None:
        manifest = dict(manifest)
        manifest["version"] = _SESSION_VERSION
        tmp = self._manifest_path().with_suffix(".json.tmp")
        tmp.write_text(json.dumps(manifest))
        os.replace(tmp, self._manifest_path())

    # ----------------------------------------------------------- estimates
    def _node_path(self, nid: int) -> Path:
        return self.directory / f"node_{nid}.npz"

    def save_node(self, nid: int, estimate: StructureEstimate) -> None:
        with obs.span("session.save_node", cat="checkpoint", nid=nid):
            save_estimate(self._node_path(nid), estimate, atomic=True)
        obs.inc("session.nodes_saved")

    def load_node(self, nid: int) -> StructureEstimate:
        path = self._node_path(nid)
        if not path.exists():
            raise CheckpointError(f"no cached posterior for node {nid} in {self.directory}")
        with obs.span("session.load_node", cat="checkpoint", nid=nid):
            return load_estimate(path)

    def save_cycle_input(self, estimate: StructureEstimate) -> None:
        save_estimate(self.directory / "cycle_input.npz", estimate, atomic=True)

    def load_cycle_input(self) -> StructureEstimate:
        path = self.directory / "cycle_input.npz"
        if not path.exists():
            raise CheckpointError(f"no cycle input estimate in {self.directory}")
        return load_estimate(path)

    def clear(self) -> None:
        """Forget everything (fresh session against a reused directory)."""
        for path in self.directory.glob("node_*.npz"):
            path.unlink(missing_ok=True)
        (self.directory / "cycle_input.npz").unlink(missing_ok=True)
        self._manifest_path().unlink(missing_ok=True)
