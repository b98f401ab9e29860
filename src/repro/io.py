"""Serialization of estimates and problems (NumPy ``.npz`` archives).

Structure determination runs are long (the paper quotes 20-200 cycles);
being able to persist an estimate, or to ship a generated workload to
another machine, is table stakes for a usable tool.  Estimates serialize
losslessly and uncompressed (a covariance barely compresses, and
compressing it costs far more than writing it); problems serialize their
coordinates, constraint set and hierarchy topology, compressed.

Only the constraint types shipped with the library round-trip; custom
subclasses would need their own registry entry in ``_CONSTRAINT_TYPES``.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

import numpy as np

from repro.constraints.angle import AngleConstraint
from repro.constraints.base import Constraint, LinearConstraint
from repro.constraints.bounds import DistanceBoundConstraint
from repro.constraints.distance import DistanceConstraint
from repro.constraints.position import PositionConstraint
from repro.constraints.torsion import TorsionConstraint
from repro.core.hierarchy import Hierarchy, HierarchyNode
from repro.core.state import StructureEstimate
from repro.errors import ReproError


class SerializationError(ReproError, ValueError):
    """The archive is malformed or contains unknown constraint types."""


# --------------------------------------------------------------- estimates
def save_estimate(
    path: str | Path,
    estimate: StructureEstimate,
    atomic: bool = False,
    generation: int | None = None,
) -> None:
    """Write an estimate to ``path`` (``.npz``).

    ``atomic=True`` writes to a temporary sibling and renames it into
    place, so a crash mid-write can never leave a truncated archive — the
    guarantee the session store (:mod:`repro.faults.checkpoint`) depends
    on.  ``generation`` stores an integer tag in the same archive (the
    store's per-node record of which pass wrote it);
    :func:`load_estimate` ignores it.
    """
    path = Path(path)
    target = path if path.suffix == ".npz" else path.with_suffix(path.suffix + ".npz")
    write_to = target.with_name(target.name + ".tmp.npz") if atomic else target
    tags = {} if generation is None else {"generation": np.int64(generation)}
    np.savez(
        write_to,
        mean=estimate.mean,
        covariance=estimate.covariance,
        kind="estimate",
        **tags,
    )
    if atomic:
        os.replace(write_to, target)


def load_estimate(path: str | Path) -> StructureEstimate:
    """Read an estimate written by :func:`save_estimate`."""
    with np.load(path, allow_pickle=False) as data:
        if "mean" not in data or "covariance" not in data:
            raise SerializationError(f"{path} is not an estimate archive")
        return StructureEstimate(data["mean"], data["covariance"])


# -------------------------------------------------------------- constraints
def _encode_constraint(c: Constraint) -> dict:
    if isinstance(c, DistanceConstraint):
        return {"t": "distance", "i": c.i, "j": c.j, "d": c.distance, "v": c.sigma2}
    if isinstance(c, DistanceBoundConstraint):
        return {
            "t": "bound",
            "i": c.i,
            "j": c.j,
            "lo": c.lower,
            "hi": c.upper,
            "v": c.sigma2,
        }
    if isinstance(c, AngleConstraint):
        return {"t": "angle", "i": c.i, "j": c.j, "k": c.k, "a": c.angle, "v": c.sigma2}
    if isinstance(c, TorsionConstraint):
        return {
            "t": "torsion",
            "i": c.i,
            "j": c.j,
            "k": c.k,
            "l": c.l,
            "phi": c.torsion,
            "v": c.sigma2,
        }
    if isinstance(c, PositionConstraint):
        return {"t": "position", "i": c.i, "p": list(c.position), "v": c.sigma2}
    if isinstance(c, LinearConstraint):
        return {
            "t": "linear",
            "atoms": list(c.atoms),
            "coef": c.coefficients.tolist(),
            "z": c.target.tolist(),
            "v": c.variance.tolist(),
        }
    raise SerializationError(f"cannot serialize constraint type {type(c).__name__}")


def _decode_constraint(d: dict) -> Constraint:
    t = d.get("t")
    if t == "distance":
        return DistanceConstraint(d["i"], d["j"], d["d"], d["v"])
    if t == "bound":
        return DistanceBoundConstraint(d["i"], d["j"], d["lo"], d["hi"], d["v"])
    if t == "angle":
        return AngleConstraint(d["i"], d["j"], d["k"], d["a"], d["v"])
    if t == "torsion":
        return TorsionConstraint(d["i"], d["j"], d["k"], d["l"], d["phi"], d["v"])
    if t == "position":
        return PositionConstraint(d["i"], np.array(d["p"]), d["v"])
    if t == "linear":
        return LinearConstraint(
            tuple(d["atoms"]),
            np.array(d["coef"]),
            np.array(d["z"]),
            np.array(d["v"]),
        )
    raise SerializationError(f"unknown constraint tag {t!r}")


def encode_constraint(c: Constraint) -> dict:
    """Public alias: the canonical JSON-able encoding of one constraint."""
    return _encode_constraint(c)


def decode_constraint(d: dict) -> Constraint:
    """Inverse of :func:`encode_constraint`."""
    return _decode_constraint(d)


# ---------------------------------------------------------------- hierarchy
def _encode_hierarchy(node: HierarchyNode) -> dict:
    out: dict = {"name": node.name}
    if node.is_leaf:
        out["atoms"] = node.atoms.tolist()
    else:
        out["children"] = [_encode_hierarchy(c) for c in node.children]
    return out


def _decode_hierarchy(d: dict) -> HierarchyNode:
    if "children" in d:
        children = [_decode_hierarchy(c) for c in d["children"]]
        atoms = np.concatenate([c.atoms for c in children])
        return HierarchyNode(atoms=atoms, children=children, name=d.get("name", ""))
    return HierarchyNode(
        atoms=np.asarray(d["atoms"], dtype=np.int64), name=d.get("name", "")
    )


# ----------------------------------------------------------------- problems
def save_problem(path: str | Path, problem) -> None:
    """Write a :class:`repro.molecules.problem.StructureProblem` archive."""
    manifest = {
        "name": problem.name,
        "prior_sigma": problem.prior_sigma,
        "perturbation": problem.perturbation,
        "constraints": [_encode_constraint(c) for c in problem.constraints],
        "hierarchy": _encode_hierarchy(problem.hierarchy.root),
        "n_atoms": problem.n_atoms,
    }
    np.savez_compressed(
        path,
        true_coords=problem.true_coords,
        manifest=np.frombuffer(json.dumps(manifest).encode(), dtype=np.uint8),
        kind="problem",
    )


def load_problem(path: str | Path):
    """Read a problem written by :func:`save_problem`."""
    from repro.molecules.problem import StructureProblem

    with np.load(path, allow_pickle=False) as data:
        if "true_coords" not in data or "manifest" not in data:
            raise SerializationError(f"{path} is not a problem archive")
        manifest = json.loads(bytes(data["manifest"]).decode())
        true_coords = data["true_coords"]
    root = _decode_hierarchy(manifest["hierarchy"])
    hierarchy = Hierarchy(root, manifest["n_atoms"])
    return StructureProblem(
        name=manifest["name"],
        true_coords=true_coords,
        constraints=[_decode_constraint(d) for d in manifest["constraints"]],
        hierarchy=hierarchy,
        prior_sigma=manifest["prior_sigma"],
        perturbation=manifest["perturbation"],
    )
