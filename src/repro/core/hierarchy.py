"""Structure hierarchy: the tree of §3 and constraint assignment.

A :class:`HierarchyNode` owns an ordered array of global atom ids; an
internal node's atoms are exactly the concatenation of its children's
atoms (in child order), so every node's local state is a contiguous
re-indexing of its subtree.  Constraints are assigned to the *smallest*
node that wholly contains their atoms — the lowest common ancestor of the
leaves owning those atoms — which is what eliminates computation with
structural zeros.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Iterator, Sequence

import numpy as np

from repro.constraints.base import Constraint
from repro.errors import HierarchyError


@dataclass(eq=False)
class HierarchyNode:
    """One node of the structure hierarchy.

    Attributes
    ----------
    nid:
        Unique integer id within its :class:`Hierarchy` (post-order index).
    atoms:
        Global atom ids owned by the subtree, in local state layout order.
    children:
        Sub-structures; empty for leaves.
    name:
        Human-readable label ("base_pair_3/base_A/backbone", ...).
    constraints:
        Constraints assigned to *this* node (and to no smaller node).
    """

    atoms: np.ndarray
    children: list["HierarchyNode"] = field(default_factory=list)
    name: str = ""
    nid: int = -1
    constraints: list[Constraint] = field(default_factory=list)
    parent: "HierarchyNode | None" = field(default=None, repr=False)
    depth: int = 0

    @property
    def is_leaf(self) -> bool:
        return not self.children

    @property
    def n_atoms(self) -> int:
        return int(self.atoms.shape[0])

    @property
    def state_dim(self) -> int:
        return 3 * self.n_atoms

    @property
    def n_constraint_rows(self) -> int:
        return sum(c.dimension for c in self.constraints)

    def post_order(self) -> Iterator["HierarchyNode"]:
        for child in self.children:
            yield from child.post_order()
        yield self

    def column_map(self, p_global: int) -> np.ndarray:
        """Map global atom id → local slot in this node's state (−1 outside)."""
        out = np.full(p_global, -1, dtype=np.int64)
        out[self.atoms] = np.arange(self.n_atoms)
        return out


class Hierarchy:
    """A validated structure hierarchy over ``n_atoms`` global atoms.

    The tree need not cover every global atom (a sub-complex can be
    modeled alone), but node atom sets must satisfy the partition
    invariant: an internal node's atoms are the concatenation of its
    children's, and sibling subtrees are disjoint.
    """

    def __init__(self, root: HierarchyNode, n_atoms: int):
        self.root = root
        self.n_atoms = int(n_atoms)
        self.nodes: list[HierarchyNode] = []
        self._index(root, None, 0)
        self.validate()

    # ----------------------------------------------------------- indexing
    def _index(self, node: HierarchyNode, parent: HierarchyNode | None, depth: int) -> None:
        node.parent = parent
        node.depth = depth
        for child in node.children:
            self._index(child, node, depth + 1)
        node.nid = len(self.nodes)
        self.nodes.append(node)

    def __len__(self) -> int:
        return len(self.nodes)

    def node(self, nid: int) -> HierarchyNode:
        return self.nodes[nid]

    def post_order(self) -> Iterator[HierarchyNode]:
        yield from self.root.post_order()

    def leaves(self) -> list[HierarchyNode]:
        return [n for n in self.nodes if n.is_leaf]

    def height(self) -> int:
        return max(n.depth for n in self.nodes)

    # --------------------------------------------------------- validation
    def validate(self) -> None:
        """Check tree invariants; raise :class:`HierarchyError` on violation."""
        atoms = self.root.atoms
        if atoms.size == 0:
            raise HierarchyError("root owns no atoms")
        if np.unique(atoms).size != atoms.size:
            raise HierarchyError("duplicate atoms in root")
        if atoms.min() < 0 or atoms.max() >= self.n_atoms:
            raise HierarchyError("root atom ids out of range")
        for node in self.nodes:
            if node.is_leaf:
                if node.n_atoms == 0:
                    raise HierarchyError(f"leaf {node.nid} owns no atoms")
                continue
            concat = np.concatenate([c.atoms for c in node.children])
            if concat.shape != node.atoms.shape or not np.array_equal(concat, node.atoms):
                raise HierarchyError(
                    f"node {node.nid} atoms are not the concatenation of its children's"
                )

    # ------------------------------------------------------- assignment
    def atom_leaf_map(self) -> np.ndarray:
        """Global atom id → owning leaf nid (−1 if not in the tree)."""
        out = np.full(self.n_atoms, -1, dtype=np.int64)
        for leaf in self.leaves():
            out[leaf.atoms] = leaf.nid
        return out

    def lowest_common_ancestor(self, a: HierarchyNode, b: HierarchyNode) -> HierarchyNode:
        while a is not b:
            if a.depth >= b.depth:
                assert a.parent is not None
                a = a.parent
            else:
                assert b.parent is not None
                b = b.parent
        return a

    def containing_node(self, atom_ids: Sequence[int]) -> HierarchyNode:
        """Smallest node whose atom set contains all ``atom_ids``."""
        leaf_of = self.atom_leaf_map()
        node: HierarchyNode | None = None
        for a in atom_ids:
            lid = leaf_of[a]
            if lid < 0:
                raise HierarchyError(f"atom {a} is not covered by the hierarchy")
            leaf = self.nodes[lid]
            node = leaf if node is None else self.lowest_common_ancestor(node, leaf)
        assert node is not None
        return node

    def clear_constraints(self) -> None:
        for node in self.nodes:
            node.constraints.clear()

    # ----------------------------------------------------- dirty tracking
    def ancestor_path(self, node: HierarchyNode) -> Iterator[HierarchyNode]:
        """``node`` and every ancestor up to (and including) the root.

        This is the *dirty path* of an incremental delta landing on
        ``node``: a changed constraint set at ``node`` invalidates exactly
        the posteriors of ``node`` and its root-ward ancestors — every
        other subtree's computation is untouched (§3's locality argument,
        read backwards).
        """
        current: HierarchyNode | None = node
        while current is not None:
            yield current
            current = current.parent

    def dirty_closure(self, nids: Iterable[int]) -> set[int]:
        """Union of the root-ward dirty paths of the given node ids."""
        out: set[int] = set()
        for nid in nids:
            for node in self.ancestor_path(self.nodes[nid]):
                if node.nid in out:
                    break  # the rest of this path is already marked
                out.add(node.nid)
        return out

    # ------------------------------------------------------------- stats
    def constraint_rows_by_level(self) -> dict[int, int]:
        """Total scalar constraint rows assigned per tree depth."""
        out: dict[int, int] = {}
        for node in self.nodes:
            out[node.depth] = out.get(node.depth, 0) + node.n_constraint_rows
        return out

    def leaf_constraint_fraction(self) -> float:
        """Fraction of scalar constraint rows applied at leaves.

        The paper's "optimistic scenario": a decomposition is efficient
        when this is high, since leaf updates touch the smallest states.
        """
        total = sum(n.n_constraint_rows for n in self.nodes)
        if total == 0:
            return 0.0
        at_leaves = sum(n.n_constraint_rows for n in self.nodes if n.is_leaf)
        return at_leaves / total


def assign_constraints(
    hierarchy: Hierarchy, constraints: Sequence[Constraint]
) -> list[int]:
    """Assign each constraint to the smallest node wholly containing it.

    Runs one LCA fold per constraint using a precomputed atom→leaf map;
    existing assignments are cleared first.  Returns the owner node id of
    each constraint, in input order (the session layer keeps this mapping
    to route incremental deltas to their dirty paths).
    """
    hierarchy.clear_constraints()
    leaf_of = hierarchy.atom_leaf_map()
    owners: list[int] = []
    for c in constraints:
        node: HierarchyNode | None = None
        for a in c.atoms:
            lid = leaf_of[a]
            if lid < 0:
                raise HierarchyError(f"constraint atom {a} not covered by hierarchy")
            leaf = hierarchy.nodes[lid]
            node = leaf if node is None else hierarchy.lowest_common_ancestor(node, leaf)
        assert node is not None
        node.constraints.append(c)
        owners.append(node.nid)
    return owners


def flat_hierarchy(n_atoms: int) -> Hierarchy:
    """The trivial one-node hierarchy (the flat organization as a tree)."""
    root = HierarchyNode(atoms=np.arange(n_atoms, dtype=np.int64), name="root")
    return Hierarchy(root, n_atoms)
