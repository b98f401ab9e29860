"""Automatic structure decomposition (paper §5, built as an extension).

The paper requires the user to specify the hierarchy (plus a "simple and
non-optimal recursive bisection" fallback) and identifies automatic
decomposition as future work, framing it as a graph-partitioning problem:
atoms are vertices, constraints are (weighted) edges, and a good hierarchy
recursively splits the graph into loosely coupled parts so that most
constraints stay inside leaves.

Two decomposers are provided:

* :func:`recursive_coordinate_bisection` — the paper's in-place fallback:
  split on the longest spatial axis at the median, recursively.
* :func:`graph_partition_hierarchy` — the proposed approach: recursive
  Kernighan–Lin or spectral (Fiedler-vector) bisection of the constraint
  graph, minimizing cross-boundary constraints directly.
"""

from __future__ import annotations

from typing import Sequence

import networkx as nx
import numpy as np

from repro.constraints.base import Constraint
from repro.core.hierarchy import Hierarchy, HierarchyNode
from repro.errors import HierarchyError
from repro.util.rng import make_rng


def _make_node(atoms: np.ndarray, children: list[HierarchyNode], name: str) -> HierarchyNode:
    if children:
        atoms = np.concatenate([c.atoms for c in children])
    return HierarchyNode(atoms=atoms.astype(np.int64), children=children, name=name)


# --------------------------------------------------------------------------
# Recursive coordinate bisection
# --------------------------------------------------------------------------

def recursive_coordinate_bisection(
    coords: np.ndarray,
    max_leaf_atoms: int = 16,
    atoms: np.ndarray | None = None,
) -> Hierarchy:
    """Binary hierarchy by median splits along the longest spatial axis.

    ``coords`` is the ``(p, 3)`` initial structure; leaves hold at most
    ``max_leaf_atoms`` atoms.  Purely geometric: ignores the constraint
    graph, so it is the baseline the graph partitioner is compared against
    in the decomposition ablation.
    """
    coords = np.asarray(coords, dtype=np.float64)
    if coords.ndim != 2 or coords.shape[1] != 3:
        raise HierarchyError("coords must be (p, 3)")
    if max_leaf_atoms < 1:
        raise HierarchyError("max_leaf_atoms must be >= 1")
    if atoms is None:
        atoms = np.arange(coords.shape[0], dtype=np.int64)
    root = _rcb(coords, atoms, max_leaf_atoms, "rcb")
    return Hierarchy(root, coords.shape[0])


def _rcb(coords: np.ndarray, atoms: np.ndarray, max_leaf: int, name: str) -> HierarchyNode:
    if atoms.size <= max_leaf:
        return HierarchyNode(atoms=np.sort(atoms), name=name)
    pts = coords[atoms]
    spans = pts.max(axis=0) - pts.min(axis=0)
    axis = int(np.argmax(spans))
    order = atoms[np.argsort(pts[:, axis], kind="stable")]
    half = atoms.size // 2
    left = _rcb(coords, order[:half], max_leaf, name + ".0")
    right = _rcb(coords, order[half:], max_leaf, name + ".1")
    return _make_node(atoms, [left, right], name)


# --------------------------------------------------------------------------
# Constraint-graph partitioning
# --------------------------------------------------------------------------

def constraint_graph(n_atoms: int, constraints: Sequence[Constraint]) -> nx.Graph:
    """Atoms as vertices; constraint co-membership as weighted edges.

    A constraint touching ``k`` atoms contributes an edge between every
    atom pair it couples (a clique), each of weight 1/(k−1) so wide
    constraints do not dominate the cut metric.
    """
    g = nx.Graph()
    g.add_nodes_from(range(n_atoms))
    for c in constraints:
        ids = list(c.atoms)
        k = len(ids)
        if k < 2:
            continue
        w = 1.0 / (k - 1)
        for a in range(k):
            for b in range(a + 1, k):
                u, v = ids[a], ids[b]
                if g.has_edge(u, v):
                    g[u][v]["weight"] += w
                else:
                    g.add_edge(u, v, weight=w)
    return g


def graph_partition_hierarchy(
    n_atoms: int,
    constraints: Sequence[Constraint],
    max_leaf_atoms: int = 16,
    method: str = "kl",
    seed: int | np.random.Generator | None = 0,
) -> Hierarchy:
    """Binary hierarchy by recursive bisection of the constraint graph.

    ``method`` is ``"kl"`` (Kernighan–Lin refinement of a balanced random
    split) or ``"spectral"`` (sign of the Fiedler vector, falling back to a
    median split of the vector when signs are unbalanced).  Disconnected
    components are split apart before any cut is computed, since a free cut
    costs nothing.
    """
    if method not in ("kl", "spectral"):
        raise HierarchyError(f"unknown partition method {method!r}")
    g = constraint_graph(n_atoms, constraints)
    rng = make_rng(seed)
    atoms = np.arange(n_atoms, dtype=np.int64)
    root = _graph_split(g, atoms, max_leaf_atoms, method, rng, "gp")
    return Hierarchy(root, n_atoms)


def _graph_split(
    g: nx.Graph,
    atoms: np.ndarray,
    max_leaf: int,
    method: str,
    rng: np.random.Generator,
    name: str,
) -> HierarchyNode:
    if atoms.size <= max_leaf:
        return HierarchyNode(atoms=np.sort(atoms), name=name)
    sub = g.subgraph(atoms.tolist())
    components = [np.array(sorted(c), dtype=np.int64) for c in nx.connected_components(sub)]
    if len(components) > 1:
        # Free cuts first: one child per connected component (merging the
        # smallest ones to avoid a huge branching factor of singletons).
        components.sort(key=len, reverse=True)
        children = [
            _graph_split(g, comp, max_leaf, method, rng, f"{name}.c{i}")
            for i, comp in enumerate(components)
        ]
        return _make_node(atoms, children, name)
    if method == "kl":
        part_a, part_b = nx.algorithms.community.kernighan_lin_bisection(
            sub, weight="weight", seed=int(rng.integers(0, 2**31 - 1))
        )
        a = np.array(sorted(part_a), dtype=np.int64)
        b = np.array(sorted(part_b), dtype=np.int64)
    else:
        a, b = _spectral_bisect(sub, atoms)
    if a.size == 0 or b.size == 0:  # degenerate cut: fall back to even split
        half = atoms.size // 2
        a, b = atoms[:half], atoms[half:]
    left = _graph_split(g, a, max_leaf, method, rng, name + ".0")
    right = _graph_split(g, b, max_leaf, method, rng, name + ".1")
    return _make_node(atoms, [left, right], name)


def _spectral_bisect(sub: nx.Graph, atoms: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Split by the median of the Fiedler vector (balanced spectral cut)."""
    nodes = sorted(sub.nodes())
    try:
        fiedler = nx.fiedler_vector(sub, weight="weight", method="tracemin_lu")
    except (nx.NetworkXError, np.linalg.LinAlgError):
        half = len(nodes) // 2
        return (
            np.array(nodes[:half], dtype=np.int64),
            np.array(nodes[half:], dtype=np.int64),
        )
    fiedler = np.asarray(fiedler, dtype=np.float64)
    order = np.argsort(fiedler, kind="stable")
    half = len(nodes) // 2
    nodes_arr = np.array(nodes, dtype=np.int64)
    return np.sort(nodes_arr[order[:half]]), np.sort(nodes_arr[order[half:]])
