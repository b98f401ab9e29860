"""Tests for the structure hierarchy and constraint assignment."""

import numpy as np
import pytest

from repro.constraints import DistanceConstraint
from repro.core.hierarchy import (
    Hierarchy,
    HierarchyNode,
    assign_constraints,
    flat_hierarchy,
)
from repro.errors import HierarchyError


def three_level(n_atoms=8):
    """root -> [left(0..3) -> [l0(0,1), l1(2,3)], right(4..7)]"""
    l0 = HierarchyNode(atoms=np.array([0, 1]), name="l0")
    l1 = HierarchyNode(atoms=np.array([2, 3]), name="l1")
    left = HierarchyNode(atoms=np.array([0, 1, 2, 3]), children=[l0, l1], name="left")
    right = HierarchyNode(atoms=np.array([4, 5, 6, 7]), name="right")
    root = HierarchyNode(atoms=np.arange(8), children=[left, right], name="root")
    return Hierarchy(root, n_atoms)


class TestStructure:
    def test_post_order_ids(self):
        h = three_level()
        names = [n.name for n in h.post_order()]
        assert names == ["l0", "l1", "left", "right", "root"]
        assert [n.nid for n in h.post_order()] == [0, 1, 2, 3, 4]

    def test_depths(self):
        h = three_level()
        by_name = {n.name: n.depth for n in h.nodes}
        assert by_name == {"l0": 2, "l1": 2, "left": 1, "right": 1, "root": 0}

    def test_leaves(self):
        h = three_level()
        assert {n.name for n in h.leaves()} == {"l0", "l1", "right"}

    def test_height(self):
        assert three_level().height() == 2

    def test_parent_links(self):
        h = three_level()
        by_name = {n.name: n for n in h.nodes}
        assert by_name["l0"].parent is by_name["left"]
        assert by_name["root"].parent is None

    def test_state_dims(self):
        h = three_level()
        assert h.root.state_dim == 24
        assert h.nodes[0].state_dim == 6

    def test_len(self):
        assert len(three_level()) == 5

    def test_column_map(self):
        h = three_level()
        cmap = h.nodes[1].column_map(8)  # l1 owns atoms 2,3
        assert cmap[2] == 0 and cmap[3] == 1
        assert np.all(cmap[[0, 1, 4, 5, 6, 7]] == -1)

    def test_heights(self):
        by_name = {n.name: n.nid for n in three_level().nodes}
        heights = three_level().heights()
        assert heights[by_name["l0"]] == heights[by_name["right"]] == 0
        assert heights[by_name["left"]] == 1
        assert heights[by_name["root"]] == 2

    def test_wavefronts_partition_nodes(self, helix2_problem):
        fronts = helix2_problem.hierarchy.wavefronts()
        ids = [n.nid for front in fronts for n in front]
        assert sorted(ids) == [n.nid for n in helix2_problem.hierarchy.post_order()]
        assert all(n.is_leaf for n in fronts[0])
        assert fronts[-1] == [helix2_problem.hierarchy.root]

    def test_wavefront_independence(self, helix2_problem):
        """No node may appear in the same front as one of its ancestors."""
        for front in helix2_problem.hierarchy.wavefronts():
            ids = {n.nid for n in front}
            for node in front:
                p = node.parent
                while p is not None:
                    assert p.nid not in ids
                    p = p.parent


class TestValidation:
    def test_children_concat_violation(self):
        a = HierarchyNode(atoms=np.array([0]))
        b = HierarchyNode(atoms=np.array([1]))
        bad_root = HierarchyNode(atoms=np.array([1, 0]), children=[a, b])  # wrong order
        with pytest.raises(HierarchyError, match="concatenation"):
            Hierarchy(bad_root, 2)

    def test_duplicate_atoms_rejected(self):
        a = HierarchyNode(atoms=np.array([0, 1]))
        b = HierarchyNode(atoms=np.array([1]))
        root = HierarchyNode(atoms=np.array([0, 1, 1]), children=[a, b])
        with pytest.raises(HierarchyError, match="duplicate"):
            Hierarchy(root, 3)

    def test_out_of_range_rejected(self):
        root = HierarchyNode(atoms=np.array([0, 5]))
        with pytest.raises(HierarchyError, match="range"):
            Hierarchy(root, 3)

    def test_empty_root_rejected(self):
        with pytest.raises(HierarchyError, match="no atoms"):
            Hierarchy(HierarchyNode(atoms=np.array([], dtype=np.int64)), 3)

    def test_flat_hierarchy(self):
        h = flat_hierarchy(5)
        assert len(h) == 1
        assert h.root.is_leaf
        assert np.array_equal(h.root.atoms, np.arange(5))


class TestLCA:
    def test_atom_leaf_map(self):
        h = three_level()
        leaf_of = h.atom_leaf_map()
        by_name = {n.name: n.nid for n in h.nodes}
        assert leaf_of[0] == by_name["l0"]
        assert leaf_of[3] == by_name["l1"]
        assert leaf_of[6] == by_name["right"]

    def test_containing_node_within_leaf(self):
        h = three_level()
        assert h.containing_node([0, 1]).name == "l0"

    def test_containing_node_spanning_leaves(self):
        h = three_level()
        assert h.containing_node([0, 2]).name == "left"

    def test_containing_node_spanning_halves(self):
        h = three_level()
        assert h.containing_node([1, 6]).name == "root"

    def test_lca_of_node_with_itself(self):
        h = three_level()
        n = h.nodes[0]
        assert h.lowest_common_ancestor(n, n) is n

    def test_uncovered_atom(self):
        l0 = HierarchyNode(atoms=np.array([0]))
        h = Hierarchy(HierarchyNode(atoms=np.array([0]), children=[l0]), 2)
        with pytest.raises(HierarchyError, match="not covered"):
            h.containing_node([1])


class TestAssignment:
    def test_local_constraint_to_leaf(self):
        h = three_level()
        cons = [DistanceConstraint(0, 1, 1.0, 0.1)]
        assign_constraints(h, cons)
        assert h.nodes[0].constraints == cons

    def test_spanning_constraint_to_lca(self):
        h = three_level()
        cons = [DistanceConstraint(0, 3, 1.0, 0.1)]
        assign_constraints(h, cons)
        by_name = {n.name: n for n in h.nodes}
        assert by_name["left"].constraints == cons

    def test_global_constraint_to_root(self):
        h = three_level()
        cons = [DistanceConstraint(0, 7, 1.0, 0.1)]
        assign_constraints(h, cons)
        assert h.root.constraints == cons

    def test_reassignment_clears(self):
        h = three_level()
        assign_constraints(h, [DistanceConstraint(0, 1, 1.0, 0.1)])
        assign_constraints(h, [DistanceConstraint(4, 5, 1.0, 0.1)])
        assert not h.nodes[0].constraints
        by_name = {n.name: n for n in h.nodes}
        assert len(by_name["right"].constraints) == 1

    def test_every_constraint_assigned_once(self):
        h = three_level()
        cons = [
            DistanceConstraint(0, 1, 1.0, 0.1),
            DistanceConstraint(2, 3, 1.0, 0.1),
            DistanceConstraint(1, 2, 1.0, 0.1),
            DistanceConstraint(0, 7, 1.0, 0.1),
        ]
        assign_constraints(h, cons)
        assigned = [c for n in h.nodes for c in n.constraints]
        assert sorted(id(c) for c in assigned) == sorted(id(c) for c in cons)

    def test_rows_by_level(self):
        h = three_level()
        assign_constraints(
            h,
            [DistanceConstraint(0, 1, 1.0, 0.1), DistanceConstraint(0, 7, 1.0, 0.1)],
        )
        rows = h.constraint_rows_by_level()
        assert rows[2] == 1 and rows[0] == 1

    def test_leaf_fraction(self):
        h = three_level()
        assign_constraints(
            h,
            [DistanceConstraint(0, 1, 1.0, 0.1), DistanceConstraint(0, 7, 1.0, 0.1)],
        )
        assert h.leaf_constraint_fraction() == pytest.approx(0.5)

    def test_leaf_fraction_no_constraints(self):
        h = three_level()
        h.clear_constraints()
        assert h.leaf_constraint_fraction() == 0.0
