"""Tests for constraint-ordering strategies."""

import pytest

from repro.core.ordering import STRATEGIES, order_constraints
from repro.errors import HierarchyError


class TestOrderConstraints:
    def test_given_unchanged(self, helix2_problem):
        cons = helix2_problem.constraints
        assert order_constraints(cons, "given") == cons

    def test_random_is_permutation(self, helix2_problem):
        cons = helix2_problem.constraints
        shuffled = order_constraints(cons, "random", seed=1)
        assert shuffled != cons
        assert sorted(map(id, shuffled)) == sorted(map(id, cons))

    def test_random_seeded_deterministic(self, helix2_problem):
        cons = helix2_problem.constraints
        a = order_constraints(cons, "random", seed=5)
        b = order_constraints(cons, "random", seed=5)
        assert list(map(id, a)) == list(map(id, b))

    def test_locality_is_permutation(self, helix2_problem):
        p = helix2_problem
        ordered = order_constraints(p.constraints, "locality", p.hierarchy)
        assert sorted(map(id, ordered)) == sorted(map(id, p.constraints))

    def test_locality_groups_by_postorder_node(self, helix2_problem):
        p = helix2_problem
        ordered = order_constraints(p.constraints, "locality", p.hierarchy)
        node_of = {}
        for node in p.hierarchy.nodes:
            for c in node.constraints:
                node_of[id(c)] = node.nid
        post = [n.nid for n in p.hierarchy.post_order()]
        rank = {nid: i for i, nid in enumerate(post)}
        ranks = [rank[node_of[id(c)]] for c in ordered]
        assert ranks == sorted(ranks)

    def test_anti_locality_reverses(self, helix2_problem):
        p = helix2_problem
        loc = order_constraints(p.constraints, "locality", p.hierarchy)
        anti = order_constraints(p.constraints, "anti-locality", p.hierarchy)
        assert list(map(id, anti)) == list(map(id, reversed(loc)))

    def test_locality_requires_hierarchy(self, helix2_problem):
        with pytest.raises(HierarchyError, match="requires"):
            order_constraints(helix2_problem.constraints, "locality")

    def test_unknown_strategy(self, helix2_problem):
        with pytest.raises(HierarchyError, match="unknown"):
            order_constraints(helix2_problem.constraints, "sorted")

    def test_strategy_list_complete(self):
        assert set(STRATEGIES) == {"given", "random", "locality", "anti-locality"}

    @pytest.mark.parametrize("strategy", ["given", "random", "locality"])
    def test_batching_preserves_strategy_order(self, helix2_problem, strategy):
        """The ordering ablation feeds ordered lists straight into
        make_batches, so packing must preserve order (any regrouping
        would silently undo the study's independent variable)."""
        from repro.constraints.batch import make_batches

        p = helix2_problem
        ordered = order_constraints(p.constraints, strategy, p.hierarchy, seed=3)
        flat = [c for b in make_batches(ordered, 16) for c in b.constraints]
        assert list(map(id, flat)) == list(map(id, ordered))
