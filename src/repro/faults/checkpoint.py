"""Durable runs: the on-disk store behind a crash-resumable session.

Structure-determination runs are long (20-200 cycles over thousands of
constraints); a crash near the end of a cycle should not cost the whole
cycle, let alone the whole run.  :class:`SessionStore` is where a
:class:`repro.core.session.SolveSession` streams its state, so a killed
cold solve or warm re-solve resumes from its last finished tree node.
"""

from __future__ import annotations

import json
import os
import zipfile
from pathlib import Path

import numpy as np

from repro import obs
from repro.core.state import StructureEstimate
from repro.errors import CheckpointError
from repro.io import load_estimate, save_estimate

_SESSION_MANIFEST = "session.json"
_SESSION_VERSION = 2


class SessionStore:
    """On-disk snapshot of a :class:`repro.core.session.SolveSession`.

    One directory holds:

    * ``session.json`` — the manifest: constraint set (canonical
      encodings, in session order), hierarchy topology, batch size and
      update options, the session generation, which cycle input the
      cached posteriors ran from, the staged pass (the nodes being
      recomputed at that generation, if any) and an unfinished cold
      solve's progress (its cycle and the deltas so far);
    * ``cycle_input_<g>.npz`` — the cycle input staged at generation
      ``g``: a cold cycle's start, and afterwards the warm start every
      re-solve runs from;
    * ``node_<nid>.npz`` — each cached node posterior, tagged with the
      generation of the pass that computed it.

    The store is deliberately mechanism-only: the session layer decides
    *what* is valid (generation tags, staged sets); the store guarantees
    that every write is atomic (temporary sibling + ``os.replace``).  The
    manifest is written once per staged pass and a node costs one archive
    of its posterior, so a process killed anywhere leaves a directory
    from which :meth:`SolveSession.load` resumes: a staged node whose
    archive already carries the staged generation is done, and any other
    — missing, older, or never reached — is redone.
    """

    def __init__(self, directory: str | Path):
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)

    # ------------------------------------------------------------- manifest
    def _manifest_path(self) -> Path:
        return self.directory / _SESSION_MANIFEST

    def has_manifest(self) -> bool:
        return self._manifest_path().exists()

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

    def save_node(self, nid: int, estimate: StructureEstimate, generation: int) -> None:
        with obs.span("session.save_node", cat="checkpoint", nid=nid):
            save_estimate(
                self._node_path(nid), estimate, atomic=True, generation=generation
            )
        obs.inc("session.nodes_saved")

    def load_node(self, nid: int) -> StructureEstimate:
        path = self._node_path(nid)
        if not path.exists():
            raise CheckpointError(f"no cached posterior for node {nid} in {self.directory}")
        with obs.span("session.load_node", cat="checkpoint", nid=nid):
            return load_estimate(path)

    def node_generation(self, nid: int) -> int | None:
        """The generation node ``nid``'s archive was written at (``None``: none)."""
        try:
            with np.load(self._node_path(nid), allow_pickle=False) as data:
                return int(data["generation"])
        except (OSError, KeyError, ValueError, zipfile.BadZipFile):
            return None

    def _cycle_input_path(self, generation: int) -> Path:
        return self.directory / f"cycle_input_{generation}.npz"

    def save_cycle_input(self, estimate: StructureEstimate, generation: int) -> None:
        save_estimate(self._cycle_input_path(generation), estimate, atomic=True)

    def load_cycle_input(self, generation: int) -> StructureEstimate:
        path = self._cycle_input_path(generation)
        if not path.exists():
            raise CheckpointError(f"no cycle input {path.name} in {self.directory}")
        return load_estimate(path)

    def prune_cycle_inputs(self, keep: int) -> None:
        """Delete every cycle input but generation ``keep``'s."""
        kept = self._cycle_input_path(keep)
        for path in self.directory.glob("cycle_input*.npz"):
            if path != kept:
                path.unlink(missing_ok=True)

    def clear(self) -> None:
        """Forget everything (fresh session against a reused directory)."""
        for pattern in ("node_*.npz", "cycle_input*.npz"):
            for path in self.directory.glob(pattern):
                path.unlink(missing_ok=True)
        self._manifest_path().with_suffix(".json.tmp").unlink(missing_ok=True)
        self._manifest_path().unlink(missing_ok=True)
